//! Adversarial zone-map tests: ranges landing exactly on chunk min/max
//! boundaries, all-NaN chunks, and constant-value chunks must prune
//! correctly. Every case is checked two ways — against the sequential scan
//! oracle and as a prune-vs-scan differential (pruning enabled vs disabled
//! must be byte-identical) — mirroring the PR 1 `prev_toward` boundary bug
//! class at the chunk level.

use std::collections::HashMap;

use fastbit::par::{evaluate_chunked, ParExec, Zone, ZoneVerdict};
use fastbit::{
    testing::evaluate_with_strategy, BitmapIndex, ColumnProvider, ExecStrategy, QueryExpr,
    ValueRange,
};

struct MemProvider {
    columns: HashMap<String, Vec<f64>>,
    rows: usize,
}

impl MemProvider {
    fn one(name: &str, data: Vec<f64>) -> Self {
        let rows = data.len();
        Self {
            columns: HashMap::from([(name.to_string(), data)]),
            rows,
        }
    }
}

impl ColumnProvider for MemProvider {
    fn num_rows(&self) -> usize {
        self.rows
    }
    fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.get(name).map(|v| v.as_slice())
    }
    fn index(&self, _name: &str) -> Option<&BitmapIndex> {
        None
    }
}

/// Assert that `expr` evaluates identically with pruning on, pruning off,
/// and under the sequential scan oracle, for several chunk geometries.
fn assert_prune_scan_oracle_agree(p: &MemProvider, expr: &QueryExpr) {
    let oracle = evaluate_with_strategy(expr, p, ExecStrategy::ScanOnly).unwrap();
    for chunk_rows in [1usize, 7, 10, 64, p.rows.max(1)] {
        for threads in [1usize, 2, 8] {
            let pruned = evaluate_chunked(expr, p, &ParExec::new(threads, chunk_rows)).unwrap();
            let scanned = evaluate_chunked(
                expr,
                p,
                &ParExec::new(threads, chunk_rows).without_pruning(),
            )
            .unwrap();
            assert_eq!(
                pruned, scanned,
                "prune-vs-scan diverged: {expr}, chunk_rows {chunk_rows}, threads {threads}"
            );
            assert_eq!(
                pruned.to_rows(),
                oracle.to_rows(),
                "oracle diverged: {expr}, chunk_rows {chunk_rows}, threads {threads}"
            );
        }
    }
}

/// A column laid out in 10-row chunks with known per-chunk min/max, so a
/// chunk size of 10 puts query bounds exactly on zone boundaries.
fn chunk_aligned_column() -> Vec<f64> {
    let mut data = Vec::new();
    for chunk in 0..10 {
        let base = chunk as f64 * 10.0;
        for i in 0..10 {
            // Chunk values span exactly [base, base + 9].
            data.push(base + i as f64);
        }
    }
    data
}

#[test]
fn ranges_on_exact_chunk_boundaries_prune_correctly() {
    let p = MemProvider::one("x", chunk_aligned_column());
    // Bounds that coincide with chunk minima (multiples of 10) and maxima
    // (…9), in every inclusivity combination.
    for bound in [0.0, 9.0, 10.0, 19.0, 50.0, 59.0, 90.0, 99.0] {
        for expr in [
            QueryExpr::pred("x", ValueRange::gt(bound)),
            QueryExpr::pred("x", ValueRange::ge(bound)),
            QueryExpr::pred("x", ValueRange::lt(bound)),
            QueryExpr::pred("x", ValueRange::le(bound)),
            QueryExpr::pred("x", ValueRange::between(bound, bound + 10.0)),
            QueryExpr::pred("x", ValueRange::between_inclusive(bound, bound + 9.0)),
            QueryExpr::pred("x", ValueRange::between_inclusive(bound, bound)),
        ] {
            assert_prune_scan_oracle_agree(&p, &expr);
        }
    }
}

#[test]
fn zone_verdicts_on_exact_boundaries() {
    let zone = Zone::from_slice(&[10.0, 12.0, 19.0]);
    // min/max are hit exactly: inclusive bounds keep the chunk full,
    // exclusive bounds force a scan, just-outside bounds prune empty.
    assert_eq!(zone.classify(&ValueRange::ge(10.0)), ZoneVerdict::Full);
    assert_eq!(zone.classify(&ValueRange::gt(10.0)), ZoneVerdict::Scan);
    assert_eq!(zone.classify(&ValueRange::le(19.0)), ZoneVerdict::Full);
    assert_eq!(zone.classify(&ValueRange::lt(19.0)), ZoneVerdict::Scan);
    assert_eq!(zone.classify(&ValueRange::gt(19.0)), ZoneVerdict::Empty);
    assert_eq!(zone.classify(&ValueRange::ge(19.0)), ZoneVerdict::Scan);
    assert_eq!(zone.classify(&ValueRange::lt(10.0)), ZoneVerdict::Empty);
    assert_eq!(zone.classify(&ValueRange::le(10.0)), ZoneVerdict::Scan);
    assert_eq!(
        zone.classify(&ValueRange::between_inclusive(10.0, 19.0)),
        ZoneVerdict::Full
    );
    assert_eq!(
        zone.classify(&ValueRange::between(10.0, 19.0)),
        ZoneVerdict::Scan,
        "half-open upper bound excludes the zone max"
    );
}

#[test]
fn all_nan_chunks_prune_to_empty_and_invert_to_full() {
    // Chunks 2 and 5 (of 10-row chunks) are entirely NaN.
    let mut data = chunk_aligned_column();
    for v in &mut data[20..30] {
        *v = f64::NAN;
    }
    for v in &mut data[50..60] {
        *v = f64::NAN;
    }
    let p = MemProvider::one("x", data);
    for expr in [
        QueryExpr::pred("x", ValueRange::all()),
        QueryExpr::pred("x", ValueRange::gt(15.0)),
        QueryExpr::pred("x", ValueRange::gt(15.0)).not(),
        QueryExpr::pred("x", ValueRange::lt(55.0))
            .and(QueryExpr::pred("x", ValueRange::ge(25.0)).not()),
    ] {
        assert_prune_scan_oracle_agree(&p, &expr);
    }
    // The pruning actually fires: an aligned evaluation must prune the two
    // NaN chunks empty without scanning them.
    let exec = ParExec::new(1, 10);
    evaluate_chunked(&QueryExpr::pred("x", ValueRange::all()), &p, &exec).unwrap();
    let stats = exec.stats();
    assert_eq!(stats.chunks_pruned_empty, 2, "both all-NaN chunks pruned");
    assert_eq!(stats.chunks_pruned_full, 8, "clean chunks full-pruned");
    assert_eq!(stats.chunks_scanned, 0);
}

#[test]
fn mixed_nan_chunks_never_full_prune() {
    // One NaN inside an otherwise matching chunk: Full would wrongly select
    // the NaN row; the zone must force a scan.
    let mut data = vec![5.0; 40];
    data[17] = f64::NAN;
    let p = MemProvider::one("x", data);
    let expr = QueryExpr::pred("x", ValueRange::between_inclusive(5.0, 5.0));
    let exec = ParExec::new(2, 10);
    let got = evaluate_chunked(&expr, &p, &exec).unwrap();
    assert_eq!(got.count(), 39);
    assert!(!got.to_rows().contains(&17));
    let stats = exec.stats();
    assert_eq!(stats.chunks_pruned_full, 3);
    assert_eq!(stats.chunks_scanned, 1, "the NaN chunk was scanned");
    assert_prune_scan_oracle_agree(&p, &expr);
}

#[test]
fn constant_value_chunks_prune_on_either_side() {
    // A piecewise-constant column: each chunk has min == max.
    let data: Vec<f64> = (0..100).map(|i| (i / 10) as f64).collect();
    let p = MemProvider::one("x", data);
    for expr in [
        QueryExpr::pred("x", ValueRange::between_inclusive(3.0, 3.0)), // == one chunk value
        QueryExpr::pred("x", ValueRange::gt(3.0)),
        QueryExpr::pred("x", ValueRange::ge(3.0)),
        QueryExpr::pred("x", ValueRange::between(2.0, 7.0)),
        QueryExpr::pred("x", ValueRange::between_inclusive(2.5, 2.5)), // between values
    ] {
        assert_prune_scan_oracle_agree(&p, &expr);
    }
    // Constant chunks always resolve without scanning at aligned geometry.
    let exec = ParExec::new(1, 10);
    evaluate_chunked(&QueryExpr::pred("x", ValueRange::ge(3.0)), &p, &exec).unwrap();
    let stats = exec.stats();
    assert_eq!(stats.chunks_scanned, 0);
    assert_eq!(stats.chunks_pruned_empty + stats.chunks_pruned_full, 10);
}

#[test]
fn infinity_endpoints_behave_like_scan() {
    let mut data = chunk_aligned_column();
    data[5] = f64::INFINITY;
    data[95] = f64::NEG_INFINITY;
    let p = MemProvider::one("x", data);
    for expr in [
        QueryExpr::pred("x", ValueRange::gt(1e12)),  // only +inf
        QueryExpr::pred("x", ValueRange::lt(-1e12)), // only -inf
        QueryExpr::pred("x", ValueRange::all()),
        QueryExpr::pred("x", ValueRange::le(50.0)),
    ] {
        assert_prune_scan_oracle_agree(&p, &expr);
    }
}

#[test]
fn misaligned_chunk_sizes_keep_pruning_honest() {
    // Chunk sizes that do NOT divide the 10-row structure, so zones mix
    // values from adjacent plateaus; pruning decisions become conservative
    // but the answers must not move.
    let p = MemProvider::one("x", chunk_aligned_column());
    let expr = QueryExpr::pred("x", ValueRange::between_inclusive(30.0, 39.0));
    for chunk_rows in [3usize, 9, 11, 13, 17, 99, 101] {
        let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
        let got = evaluate_chunked(&expr, &p, &ParExec::new(4, chunk_rows)).unwrap();
        assert_eq!(got.to_rows(), oracle.to_rows(), "chunk_rows {chunk_rows}");
    }
}
