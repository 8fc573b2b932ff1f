//! `vdx-server` rejects flags it does not read: an unknown flag, or a
//! number-valued flag whose value does not parse, prints the usage text and
//! exits 1 before the subcommand opens anything.

use std::process::Command;

#[test]
fn serve_rejects_unknown_flags_and_unparsable_values_before_opening_the_dir() {
    for (tag, extra, flag) in [
        // The retired connection-layer knob.
        ("io_mode", ["--io-mode", "threaded"], "--io-mode"),
        // A misspelling of `--idle-timeout-ms`.
        ("idle", ["--idle-timeout", "5"], "--idle-timeout"),
        // A known flag whose value is not a number.
        ("workers", ["--workers", "many"], "--workers"),
    ] {
        let dir = std::env::temp_dir().join(format!("vdx_cli_flags_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let output = Command::new(env!("CARGO_BIN_EXE_vdx-server"))
            .arg("serve")
            .arg("--dir")
            .arg(&dir)
            .args(extra)
            .output()
            .expect("run vdx-server");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "[{tag}] {stderr}");
        assert!(stderr.contains("usage: vdx-server"), "[{tag}] {stderr}");
        let error = stderr
            .lines()
            .find(|line| line.starts_with("vdx-server:"))
            .unwrap_or_else(|| panic!("[{tag}] no error line in {stderr}"));
        assert!(error.contains(flag), "[{tag}] {error}");
        assert!(!dir.exists(), "[{tag}] {} was created", dir.display());
    }
}
