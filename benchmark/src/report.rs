//! Metric definitions, the result of one run, and the small statistics the
//! benchmark reports with.

use crate::json::Value;

/// Measured seconds per run unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 8.0;

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them (a test keeps the
/// two in step).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "p99_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "stored_bytes_per_row",
        unit: "bytes",
        lower_is_better: true,
        bound: 0.02,
    },
];

/// The per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("server.event_loop.self_us", "us"),
    ("server.cluster.self_us", "us"),
    ("server.cluster.forwards_per_op", "count"),
    ("server.dispatch.self_us", "us"),
    ("server.protocol.parse_us", "us"),
    ("server.protocol.serialize_us", "us"),
    ("server.query_cache.hit_ratio", "ratio"),
    ("wire.reply_bytes_per_op", "bytes"),
    ("core.explorer.self_us", "us"),
    ("fastbit.compile.compile_us", "us"),
    ("fastbit.compile.plan_hit_ratio", "ratio"),
    ("fastbit.par.evaluate_us", "us"),
    ("fastbit.par.chunks_pruned_share", "ratio"),
    ("fastbit.index.range_enc_share", "ratio"),
    ("fastbit.exec.evaluate_us", "us"),
    ("datastore.store.load_us", "us"),
    ("datastore.cache.hit_ratio", "ratio"),
    ("datastore.cache.evictions", "count"),
    ("datastore.catalog.ingest_rows_per_s", "rows/s"),
    ("datastore.store.warm_s", "s"),
    ("lwfa.generate_s", "s"),
    ("trace.wire_mean_us", "us"),
    ("trace.wire_p50_us", "us"),
    ("trace.closure_ratio", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every reply matched the oracle and every workload-property check held.
    pub correct: bool,
    /// Requests sent whose reply was checked.
    pub attempted: u64,
    /// Requests answered `ERR` or with bytes the oracle does not give.
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: digest, sample counts, checks, shares.
    pub detail: Value,
}

impl Outcome {
    /// The contract's result object: exactly these four keys.
    pub fn result_line(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
        ])
    }

    /// `{name: {"value": v, "unit": u}}` for every metric, in order.
    pub fn metrics_value(&self) -> Value {
        Value::obj(self.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
            )
        }))
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    values
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of no values");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Negative when `j` was clamped up: the quartile extrapolates.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_match_their_definitions() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&values), Some((1.5, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = sorted(&values);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 99.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("p50_ms", 1.25, "ms")],
            detail: Value::Null,
        };
        assert_eq!(
            outcome.result_line().to_string(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
