//! `vdx-server` rejects flags it does not read: an unknown flag, a
//! number-valued flag whose value does not parse, or a `--cache-mb` too
//! large to count in bytes prints the usage text and exits 1 before the
//! subcommand opens anything.

use std::process::Command;

#[test]
fn serve_rejects_unknown_flags_and_unparsable_values_before_opening_the_dir() {
    let cases: [(&str, &[&str], &str); 7] = [
        // The retired connection-layer knob.
        ("io_mode", &["--io-mode", "threaded"], "--io-mode"),
        // The retired chunked-engine index-acceleration knob.
        ("index_accel", &["--index-accel"], "--index-accel"),
        // The retired tracking fan-out knob (one node per available core).
        ("nodes", &["--nodes", "2"], "--nodes"),
        // The retired chunk-size knob (always `DEFAULT_CHUNK_ROWS`).
        ("chunk_rows", &["--chunk-rows", "64"], "--chunk-rows"),
        // A misspelling of `--idle-timeout-ms`.
        ("idle", &["--idle-timeout", "5"], "--idle-timeout"),
        // A known flag whose value is not a number.
        ("workers", &["--workers", "many"], "--workers"),
        // 2^44 MiB is 2^64 bytes: the byte count overflows.
        ("cache_mb", &["--cache-mb", "17592186044416"], "--cache-mb"),
    ];
    for (tag, extra, flag) in cases {
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

#[test]
fn route_rejects_the_retired_per_replica_bound() {
    // A router worker forwards one request per group at a time, so a
    // replica never sees more than `--workers` requests in flight.
    let output = Command::new(env!("CARGO_BIN_EXE_vdx-server"))
        .args(["route", "--shard-map", "m.toml", "--backend-inflight", "4"])
        .output()
        .expect("run vdx-server");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("usage: vdx-server"), "{stderr}");
    let error = stderr
        .lines()
        .find(|line| line.starts_with("vdx-server:"))
        .unwrap_or_else(|| panic!("no error line in {stderr}"));
    assert!(error.contains("--backend-inflight"), "{error}");
}

#[test]
fn the_retired_bench_subcommand_prints_the_usage() {
    // `vdx-workload` is the load generator.
    let output = Command::new(env!("CARGO_BIN_EXE_vdx-server"))
        .arg("bench")
        .output()
        .expect("run vdx-server");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("usage: vdx-server"), "{stderr}");
    assert!(!stderr.contains("  bench "), "{stderr}");
}
