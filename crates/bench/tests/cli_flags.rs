//! Both measurement binaries reject a command line they cannot honour:
//! an unknown flag or an unparsable number names the flag on stderr and
//! exits non-zero before anything is generated or written.

use std::path::PathBuf;
use std::process::Command;

/// Run `bin` with `args` plus `--out <fresh dir>`, and assert that it
/// failed, named `flag` on stderr, and created no output directory.
fn assert_rejected(bin: &str, case: &str, args: &[&str], flag: &str) {
    let out: PathBuf =
        std::env::temp_dir().join(format!("vdx_cli_flags_{case}_{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let output = Command::new(bin)
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let created = out.exists();
    std::fs::remove_dir_all(&out).ok();
    assert!(
        !output.status.success(),
        "{case}: exited successfully; stderr: {stderr}"
    );
    assert!(
        stderr.contains(flag),
        "{case}: stderr does not name {flag}: {stderr}"
    );
    assert!(stderr.contains("usage:"), "{case}: no usage line: {stderr}");
    assert!(!created, "{case}: wrote its --out directory");
}

/// Small sizes, so that a binary that ignored the bad flag would finish
/// quickly (and fail the assertions) rather than run a full-size job.
const FIGURES_SMALL: [&str; 8] = [
    "--particles",
    "2000",
    "--timesteps",
    "2",
    "--nodes",
    "1",
    "--samples",
    "1",
];
const WORKLOAD_SMALL: [&str; 8] = [
    "--particles",
    "500",
    "--timesteps",
    "2",
    "--sessions",
    "2",
    "--arrival-rps",
    "500",
];

#[test]
fn figures_rejects_unknown_flags_and_unparsable_numbers() {
    let bin = env!("CARGO_BIN_EXE_figures");
    let misspelled = [&FIGURES_SMALL[..], &["--sample", "3"]].concat();
    assert_rejected(bin, "figures_flag", &misspelled, "--sample");
    let bad_number = [&FIGURES_SMALL[..], &["--timesteps", "2x"]].concat();
    assert_rejected(bin, "figures_number", &bad_number, "--timesteps");
    let bad_list = [&FIGURES_SMALL[..], &["--nodes", "1,x"]].concat();
    assert_rejected(bin, "figures_list", &bad_list, "--nodes");
}

#[test]
fn workload_rejects_unknown_flags_and_unparsable_numbers() {
    let bin = env!("CARGO_BIN_EXE_vdx-workload");
    let misspelled = [&WORKLOAD_SMALL[..], &["--sesions", "3"]].concat();
    assert_rejected(bin, "workload_flag", &misspelled, "--sesions");
    let bad_number = [&WORKLOAD_SMALL[..], &["--seed", "x"]].concat();
    assert_rejected(bin, "workload_number", &bad_number, "--seed");
}
