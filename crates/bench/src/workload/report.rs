//! Workload run reporting: the `BENCH_workload_mixed.json` artifact and
//! the human-readable run summary.
//!
//! Every JSON record carries the repo-wide benchmark schema keys (`op`,
//! `n`, `median_s`, `mean_s`, `samples`) so the CI-wide jq validation
//! accepts the file unchanged, plus workload-specific extras: tail
//! quantiles in milliseconds, reply-class counts, throughput and the SLO
//! verdict. Records come in three flavors distinguished by the `op` name:
//! `workload_<op>` (per request op), `workload_session_<kind>`
//! (whole-session durations per kind) and `workload_total` (the merged
//! all-ops distribution).

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use obs::LatencyHistogram;

use super::driver::WorkloadOutcome;
use super::slo::SloReport;

/// One row of the workload report.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// Record name (`workload_select`, `workload_session_browse`, ...).
    pub op: String,
    /// Size axis: successful requests (ops) or completed sessions (kinds).
    pub n: usize,
    /// Median latency in seconds (shared benchmark schema).
    pub median_s: f64,
    /// Mean latency in seconds (shared benchmark schema).
    pub mean_s: f64,
    /// Number of latency samples behind the distribution.
    pub samples: usize,
    /// 50th percentile, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile, milliseconds.
    pub p999_ms: f64,
    /// `OK` replies (ops) or completed sessions (kinds).
    pub ok: u64,
    /// Non-busy `ERR` replies (ops) or aborted sessions (kinds).
    pub errors: u64,
    /// Busy rejections attributed to this record.
    pub busy: u64,
    /// Successful-request throughput over the run, per second.
    pub qps: f64,
    /// The run's overall SLO verdict (same on every record).
    pub slo_pass: bool,
}

fn quant_ms(hist: &LatencyHistogram, q: f64) -> f64 {
    hist.quantile_us(q).map_or(0.0, |us| us / 1_000.0)
}

fn record_from_hist(
    op: String,
    hist: &LatencyHistogram,
    ok: u64,
    errors: u64,
    busy: u64,
    qps: f64,
    slo_pass: bool,
) -> WorkloadRecord {
    WorkloadRecord {
        op,
        n: ok as usize,
        median_s: quant_ms(hist, 0.5) / 1_000.0,
        mean_s: hist.mean_us().unwrap_or(0.0) / 1_000_000.0,
        samples: hist.count() as usize,
        p50_ms: quant_ms(hist, 0.5),
        p99_ms: quant_ms(hist, 0.99),
        p999_ms: quant_ms(hist, 0.999),
        ok,
        errors,
        busy,
        qps,
        slo_pass,
    }
}

/// Flatten a finished run into report records: one per exercised op, one
/// per session kind, and the merged `workload_total`.
pub fn build_records(outcome: &WorkloadOutcome, slo: &SloReport) -> Vec<WorkloadRecord> {
    let wall_s = outcome.wall.as_secs_f64().max(f64::EPSILON);
    let mut records = Vec::new();
    for op in &outcome.ops {
        if op.ok + op.errors + op.busy == 0 {
            continue; // an op no session happened to draw — nothing to report
        }
        records.push(record_from_hist(
            format!("workload_{}", op.op),
            &op.hist,
            op.ok,
            op.errors,
            op.busy,
            op.ok as f64 / wall_s,
            slo.pass,
        ));
    }
    for kind in &outcome.kinds {
        records.push(record_from_hist(
            format!("workload_session_{}", kind.kind.as_str()),
            &kind.hist,
            kind.completed,
            kind.aborted,
            0,
            kind.completed as f64 / wall_s,
            slo.pass,
        ));
    }
    records.push(record_from_hist(
        "workload_total".to_string(),
        &outcome.merged_hist(),
        outcome.total_ok(),
        outcome.total_errors(),
        outcome.total_busy(),
        outcome.qps(),
        slo.pass,
    ));
    records
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Write the records as a JSON array to `dir/name`. Hand-rolled (the
/// container has no serde), schema-compatible with the repo's other
/// `BENCH_*.json` files plus the workload extras.
pub fn write_json(dir: &Path, name: &str, records: &[WorkloadRecord]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let op = r.op.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(
            out,
            "  {{\"op\": \"{op}\", \"n\": {}, \"median_s\": {}, \"mean_s\": {}, \"samples\": {}, \
             \"p50_ms\": {}, \"p99_ms\": {}, \"p999_ms\": {}, \"ok\": {}, \"errors\": {}, \
             \"busy\": {}, \"qps\": {}, \"slo_pass\": {}}}",
            r.n,
            json_f64(r.median_s),
            json_f64(r.mean_s),
            r.samples,
            json_f64(r.p50_ms),
            json_f64(r.p99_ms),
            json_f64(r.p999_ms),
            r.ok,
            r.errors,
            r.busy,
            json_f64(r.qps),
            r.slo_pass,
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Render the human-readable run summary: per-record table, server-side
/// observations, reconciliation status and the SLO block (whose final
/// `SLO VERDICT:` line CI greps).
pub fn render_summary(outcome: &WorkloadOutcome, slo: &SloReport) -> String {
    let records = build_records(outcome, slo);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>8} {:>7} {:>6} {:>10} {:>10} {:>10} {:>9}",
        "record", "ok", "errors", "busy", "p50_ms", "p99_ms", "p999_ms", "qps"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>7} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>9.1}",
            r.op, r.ok, r.errors, r.busy, r.p50_ms, r.p99_ms, r.p999_ms, r.qps
        );
    }
    let _ = writeln!(
        out,
        "wall={:.3}s scrapes={} peak_inflight={}",
        outcome.wall.as_secs_f64(),
        outcome.scrapes,
        outcome.peak_inflight
    );
    match outcome.reconciled() {
        Ok(()) => {
            let _ = writeln!(
                out,
                "reconciliation: {} lines, client == server exactly",
                outcome.reconciliation.len()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "reconciliation FAILED: {e}");
        }
    }
    out.push_str(&slo.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WorkloadRecord> {
        let hist = LatencyHistogram::default();
        hist.record_us(100.0);
        hist.record_us(200.0);
        hist.record_us(400.0);
        vec![
            record_from_hist("workload_select".into(), &hist, 3, 0, 0, 30.0, true),
            record_from_hist("workload_total".into(), &hist, 3, 0, 0, 30.0, true),
        ]
    }

    #[test]
    fn records_carry_the_shared_schema_keys_and_extras() {
        let r = &sample_records()[0];
        assert_eq!(r.n, 3);
        assert_eq!(r.samples, 3);
        assert!(r.median_s > 0.0);
        assert!((r.median_s - r.p50_ms / 1_000.0).abs() < 1e-12);
        assert!(r.p99_ms >= r.p50_ms);
        assert!(r.p999_ms >= r.p99_ms);
        assert!(r.mean_s > 0.0);
    }

    #[test]
    fn json_has_required_keys_on_every_record() {
        let dir = std::env::temp_dir().join(format!("vdx_workload_report_{}", std::process::id()));
        let path = write_json(&dir, "BENCH_workload_test.json", &sample_records()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.trim_start().starts_with('['));
        assert!(body.trim_end().ends_with(']'));
        for key in [
            "\"op\"",
            "\"n\"",
            "\"median_s\"",
            "\"mean_s\"",
            "\"samples\"",
            "\"p99_ms\"",
            "\"qps\"",
            "\"slo_pass\"",
        ] {
            assert_eq!(
                body.matches(key).count(),
                2,
                "{key} must appear on both records"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
