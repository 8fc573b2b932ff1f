//! Differential tests: index-accelerated query evaluation versus the
//! sequential-scan baseline (the paper's "Custom" engine).
//!
//! For randomized compound range queries the row set produced through the
//! bitmap indexes (including boundary-bin candidate checks) must be exactly
//! the row set produced by scanning the raw columns.

use fastbit::index::BitmapIndex;
use fastbit::query::{parse_query, ColumnProvider, ExecStrategy, QueryExpr, ValueRange};
use fastbit::testing::evaluate_with_strategy;
use histogram::Binning;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

struct MemProvider {
    columns: HashMap<String, Vec<f64>>,
    indexes: HashMap<String, BitmapIndex>,
    rows: usize,
}

impl ColumnProvider for MemProvider {
    fn num_rows(&self) -> usize {
        self.rows
    }
    fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.get(name).map(|v| v.as_slice())
    }
    fn index(&self, name: &str) -> Option<&BitmapIndex> {
        self.indexes.get(name)
    }
}

const COLUMNS: [&str; 3] = ["px", "x", "y"];

/// A provider with three indexed columns of different shapes: uniform,
/// heavy-tailed (mostly thermal background plus a beam-like tail) and signed.
fn provider(n: usize, bins: usize, seed: u64) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let px: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < 0.05 {
                rng.gen_range(5e10..1e11) // accelerated beam tail
            } else {
                rng.gen_range(0.0..1e10) // thermal background
            }
        })
        .collect();
    let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e-3)).collect();
    let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
    let mut columns = HashMap::new();
    let mut indexes = HashMap::new();
    for (name, data) in [("px", px), ("x", x), ("y", y)] {
        indexes.insert(
            name.to_string(),
            BitmapIndex::build(&data, &Binning::EqualWidth { bins }).unwrap(),
        );
        columns.insert(name.to_string(), data);
    }
    MemProvider {
        columns,
        indexes,
        rows: n,
    }
}

/// A random threshold inside the live range of `column`, sometimes snapped
/// exactly onto an index bin boundary to exercise the index-exact path.
fn random_threshold(p: &MemProvider, column: &str, rng: &mut StdRng) -> f64 {
    let edges = p.indexes[column].edges();
    if rng.gen_range(0..3u32) == 0 {
        let b = edges.boundaries();
        b[rng.gen_range(0..b.len())]
    } else {
        rng.gen_range(edges.lo()..edges.hi())
    }
}

fn random_range(p: &MemProvider, column: &str, rng: &mut StdRng) -> ValueRange {
    let a = random_threshold(p, column, rng);
    let b = random_threshold(p, column, rng);
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    match rng.gen_range(0..6u32) {
        0 => ValueRange::gt(a),
        1 => ValueRange::ge(a),
        2 => ValueRange::lt(a),
        3 => ValueRange::le(a),
        4 => ValueRange::between(lo, hi),
        _ => ValueRange::between_inclusive(lo, hi),
    }
}

/// A random query tree of up to `depth` levels of AND/OR/NOT over random
/// single-column range predicates.
fn random_query(p: &MemProvider, rng: &mut StdRng, depth: usize) -> QueryExpr {
    let col = COLUMNS[rng.gen_range(0..COLUMNS.len())];
    if depth == 0 || rng.gen_range(0..4u32) == 0 {
        return QueryExpr::pred(col, random_range(p, col, rng));
    }
    let left = random_query(p, rng, depth - 1);
    match rng.gen_range(0..3u32) {
        0 => left.and(random_query(p, rng, depth - 1)),
        1 => left.or(random_query(p, rng, depth - 1)),
        _ => left.not(),
    }
}

#[test]
fn random_compound_queries_index_matches_scan() {
    let p = provider(20_000, 128, 7);
    let mut rng = StdRng::seed_from_u64(1234);
    for case in 0..60 {
        let q = random_query(&p, &mut rng, 3);
        let indexed = evaluate_with_strategy(&q, &p, ExecStrategy::Auto).unwrap();
        let scanned = evaluate_with_strategy(&q, &p, ExecStrategy::ScanOnly).unwrap();
        assert_eq!(
            indexed.to_rows(),
            scanned.to_rows(),
            "case {case}: {q:?} (indexed {} vs scanned {} rows)",
            indexed.count(),
            scanned.count()
        );
    }
}

#[test]
fn boundary_bin_candidate_checks_are_exact() {
    // Thresholds strictly inside a bin force the boundary-bin candidate
    // check; thresholds exactly on a boundary must be answerable from the
    // index alone. Both must equal the scan on every count.
    let p = provider(15_000, 32, 9);
    let idx = &p.indexes["y"];
    let edges = idx.edges();
    for bin in [0, 7, 15, 31] {
        let (lo, hi) = edges.bin_range(bin);
        let mid = 0.5 * (lo + hi);
        for threshold in [lo, mid, hi] {
            for range in [
                ValueRange::gt(threshold),
                ValueRange::ge(threshold),
                ValueRange::lt(threshold),
                ValueRange::le(threshold),
            ] {
                let q = QueryExpr::pred("y", range.clone());
                let indexed = evaluate_with_strategy(&q, &p, ExecStrategy::Auto).unwrap();
                let scanned = evaluate_with_strategy(&q, &p, ExecStrategy::ScanOnly).unwrap();
                assert_eq!(
                    indexed.to_rows(),
                    scanned.to_rows(),
                    "bin {bin} threshold {threshold} range {range:?}"
                );
            }
        }
        // Boundary-aligned half-open ranges are exact in the index.
        assert!(
            idx.answers_exactly(&ValueRange::ge(lo)),
            "bin {bin}: >= lower boundary should be index-exact"
        );
    }
}

#[test]
fn direct_index_evaluate_matches_predicate_scan() {
    let p = provider(12_000, 64, 10);
    let mut rng = StdRng::seed_from_u64(77);
    for col in COLUMNS {
        let data = &p.columns[col];
        let idx = &p.indexes[col];
        for _ in 0..25 {
            let range = random_range(&p, col, &mut rng);
            let got = idx.evaluate(&range, data).unwrap();
            let expect: Vec<usize> = data
                .iter()
                .enumerate()
                .filter(|(_, &v)| range.contains(v))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got.to_rows(), expect, "{col} {range:?}");

            // The index-only split must be consistent: hits ⊆ truth, and
            // truth ⊆ hits ∪ candidates.
            let (hits, candidates) = idx.evaluate_index_only(&range).unwrap();
            let hit_rows = hits.to_rows();
            assert!(
                hit_rows.iter().all(|&r| range.contains(data[r])),
                "{col} {range:?}: index-only hit outside range"
            );
            let union = hits.or(&candidates).unwrap();
            let union_rows: std::collections::HashSet<usize> = union.iter_rows().collect();
            assert!(
                expect.iter().all(|r| union_rows.contains(r)),
                "{col} {range:?}: true row missing from hits ∪ candidates"
            );
        }
    }
}

#[test]
fn parsed_paper_queries_index_matches_scan() {
    let p = provider(20_000, 128, 11);
    // Paper-style compound strings, including the Figure 5 beam selection
    // shape (momentum threshold) and refinements.
    let queries = [
        "px > 5e10",
        "px > 5e10 && x > 2e-4",
        "px > 2e10 && px < 9e10",
        "y > -10 && y < 10 && px > 1e10",
        "px > 8e10 || y < -40",
        "!(y > 0) && px > 1e9",
    ];
    for q in queries {
        let expr = parse_query(q).unwrap();
        let indexed = evaluate_with_strategy(&expr, &p, ExecStrategy::Auto).unwrap();
        let scanned = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
        assert_eq!(indexed.to_rows(), scanned.to_rows(), "query {q}");
        assert!(
            indexed.count() > 0,
            "query {q} selected nothing — not a meaningful differential case"
        );
    }
}
