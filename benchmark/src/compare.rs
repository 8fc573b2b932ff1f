//! Result files of whole-set runs, and the comparison of two of them.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::report::{median, quartiles, END_TO_END};
use crate::script::WORKLOADS;

/// Values of `metric` on `workload` over every run in a result file.
pub fn metric_values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Distance between the quartiles as a share of the median; 0 below two runs.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values),
        None => 0.0,
    }
}

/// How metric B stands against metric A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's run-to-run spread is wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// Judge B's values against A's for a metric with the given direction and
/// bound; also returns the share by which B's median is worse (negative
/// when it is better).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

/// Load a result file, refusing quick runs: their sizes are not the frozen
/// ones, so their numbers compare with nothing.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let results = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if results.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{path}: a --quick run (or not a result file)"));
    }
    Ok(results)
}

/// One row per end-to-end metric and workload: both medians, the relative
/// difference, the bound and the verdict. Returns the table and whether
/// every row is `within`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut table = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>6}  {}\n",
        "workload", "metric", "A median", "B median", "worse by", "bound", "verdict"
    );
    let mut all_within = true;
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let va = metric_values(a, workload, metric.name);
            let vb = metric_values(b, workload, metric.name);
            if va.is_empty() || vb.is_empty() {
                all_within = false;
                writeln!(table, "{workload:<16} {:<22} missing", metric.name).unwrap();
                continue;
            }
            let (verdict, worse_by) = judge(&va, &vb, metric.lower_is_better, metric.bound);
            all_within &= verdict == Verdict::Within;
            writeln!(
                table,
                "{workload:<16} {:<22} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%  {}",
                format!("{} [{}]", metric.name, metric.unit),
                median(&va),
                median(&vb),
                worse_by * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            )
            .unwrap();
        }
    }
    (table, all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.5];
        let noisy = [8.0, 12.0, 10.0, 14.0, 6.0];
        assert_eq!(judge(&steady, &steady, true, 0.1).0, Verdict::Within);
        assert_eq!(judge(&steady, &slower, true, 0.1).0, Verdict::Worse);
        // Higher is better: the larger numbers are an improvement.
        assert_eq!(judge(&steady, &slower, false, 0.1).0, Verdict::Within);
        assert_eq!(judge(&slower, &steady, false, 0.1).0, Verdict::Worse);
        assert_eq!(judge(&steady, &noisy, true, 0.1).0, Verdict::Unresolved);
        let (_, worse_by) = judge(&[10.0], &[12.0], true, 0.1);
        assert!((worse_by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn quick_results_are_refused() {
        let dir = crate::run::TempDir::new().unwrap();
        let path = dir.path().join("quick.json");
        std::fs::write(&path, "{\"quick\": true, \"runs\": []}").unwrap();
        assert!(load(path.to_str().unwrap()).is_err());
        std::fs::write(&path, "{\"quick\": false, \"runs\": []}").unwrap();
        assert!(load(path.to_str().unwrap()).is_ok());
    }
}
