//! The NaN/±∞ bugfix sweep: every evaluation path — the row-by-row
//! `scan_query`, the tree-walk oracle of `fastbit::testing` and the compiled
//! bytecode kernels (each under scan-only and auto), and the chunked engine
//! — is checked against an independent row-by-row IEEE oracle on columns
//! that are *mostly* special values, with range bounds drawn from the
//! index's own bin edges, the data itself and ±∞, under all four
//! bound-inclusivity combinations.
//!
//! The oracle restates the query semantics from scratch (NaN never matches;
//! ±∞ compare like ordinary values) rather than calling
//! `ValueRange::contains`, so a sign-confusion or unbinned-value bug in any
//! layer — including `contains` itself — shows up as a differential.

use std::collections::HashMap;

use fastbit::compile;
use fastbit::par::{evaluate_chunked, ParExec};
use fastbit::{
    scan, testing::evaluate_with_strategy, BitmapIndex, ColumnProvider, ExecStrategy, Predicate,
    QueryExpr, ValueRange,
};
use histogram::Binning;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

/// The row-by-row IEEE oracle, independent of `ValueRange::contains`.
fn oracle_match(r: &ValueRange, v: f64) -> bool {
    if v.is_nan() {
        return false;
    }
    let lo_ok = match r.min {
        None => true,
        Some(lo) if r.min_inclusive => v >= lo,
        Some(lo) => v > lo,
    };
    let hi_ok = match r.max {
        None => true,
        Some(hi) if r.max_inclusive => v <= hi,
        Some(hi) => v < hi,
    };
    lo_ok && hi_ok
}

fn oracle_rows(expr: &QueryExpr, p: &MemProvider) -> Vec<usize> {
    fn matches(expr: &QueryExpr, p: &MemProvider, row: usize) -> bool {
        match expr {
            QueryExpr::Pred(pred) => oracle_match(&pred.range, p.columns[&pred.column][row]),
            QueryExpr::And(v) => v.iter().all(|e| matches(e, p, row)),
            QueryExpr::Or(v) => v.iter().any(|e| matches(e, p, row)),
            QueryExpr::Not(e) => !matches(e, p, row),
        }
    }
    (0..p.rows).filter(|&r| matches(expr, p, r)).collect()
}

const COLUMNS: [&str; 4] = ["nan_edge", "inf_runs", "all_special", "edgey"];

/// Columns that are mostly awkward: NaN exactly at chunk boundaries, long
/// ±∞ runs, a column of nothing but specials, and finite values sitting
/// exactly on the bin-edge lattice.
fn provider(n: usize, seed: u64) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    // NaN at every boundary the chunked configs use (1, 31, 4096, n) plus
    // random islands; everything else on a small lattice.
    let nan_edge: Vec<f64> = (0..n)
        .map(|i| {
            if i % 31 == 0 || i % 97 < 5 {
                f64::NAN
            } else {
                (rng.gen_range(-4..5) as f64) / 2.0
            }
        })
        .collect();
    // Long runs of +∞ and -∞ so whole chunks are a single special value.
    let inf_runs: Vec<f64> = (0..n)
        .map(|i| match (i / 64) % 4 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            _ => rng.gen_range(-1.0..1.0),
        })
        .collect();
    // Nothing but specials: NaN, +∞, -∞.
    let all_special: Vec<f64> = (0..n)
        .map(|i| match i % 3 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        })
        .collect();
    // Finite values exactly on the EqualWidth bin-edge lattice of [-2, 2].
    let edgey: Vec<f64> = (0..n)
        .map(|_| (rng.gen_range(-8..9) as f64) / 4.0)
        .collect();
    let mut columns = HashMap::new();
    let mut indexes = HashMap::new();
    for (name, data) in [
        ("nan_edge", nan_edge),
        ("inf_runs", inf_runs),
        ("all_special", all_special),
        ("edgey", edgey),
    ] {
        // A column with no finite value cannot be binned
        // (`Binning(EmptyData)`), so `all_special` stays unindexed and
        // exercises the pure-scan paths instead.
        if let Ok(index) = BitmapIndex::build(&data, &Binning::EqualWidth { bins: 16 }) {
            indexes.insert(name.to_string(), index);
        }
        columns.insert(name.to_string(), data);
    }
    MemProvider {
        columns,
        indexes,
        rows: n,
    }
}

/// A bound drawn from the column's bin edges, its own values, or ±∞.
fn pick_bound(rng: &mut StdRng, p: &MemProvider, column: &str) -> f64 {
    match rng.gen_range(0..4u32) {
        0 if p.indexes.contains_key(column) => {
            let edges = p.indexes[column].edges().boundaries();
            edges[rng.gen_range(0..edges.len())]
        }
        1 => {
            let values = &p.columns[column];
            let v = values[rng.gen_range(0..values.len())];
            if v.is_nan() {
                0.0
            } else {
                v
            }
        }
        2 => {
            if rng.gen_range(0.0..1.0) < 0.5 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        }
        _ => rng.gen_range(-3.0..3.0),
    }
}

/// A range under any of the four inclusivity combinations, or one-sided.
fn random_range(rng: &mut StdRng, p: &MemProvider, column: &str) -> ValueRange {
    let a = pick_bound(rng, p, column);
    match rng.gen_range(0..3u32) {
        0 => {
            // One-sided.
            match rng.gen_range(0..4u32) {
                0 => ValueRange::gt(a),
                1 => ValueRange::ge(a),
                2 => ValueRange::lt(a),
                _ => ValueRange::le(a),
            }
        }
        1 => {
            let b = pick_bound(rng, p, column);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            // All four inclusivity combinations, not just (] and [].
            ValueRange {
                min: Some(lo),
                min_inclusive: rng.gen_range(0.0..1.0) < 0.5,
                max: Some(hi),
                max_inclusive: rng.gen_range(0.0..1.0) < 0.5,
            }
        }
        _ => ValueRange::all(),
    }
}

fn random_expr(rng: &mut StdRng, p: &MemProvider, depth: usize) -> QueryExpr {
    if depth == 0 || rng.gen_range(0.0..1.0) < 0.4 {
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        return QueryExpr::Pred(Predicate::new(column, random_range(rng, p, column)));
    }
    match rng.gen_range(0..3u32) {
        0 => QueryExpr::And(
            (0..rng.gen_range(2..4usize))
                .map(|_| random_expr(rng, p, depth - 1))
                .collect(),
        ),
        1 => QueryExpr::Or(
            (0..rng.gen_range(2..4usize))
                .map(|_| random_expr(rng, p, depth - 1))
                .collect(),
        ),
        _ => random_expr(rng, p, depth - 1).not(),
    }
}

/// Every path must agree with the oracle's row set.
fn check_all_paths(expr: &QueryExpr, p: &MemProvider, tag: &str) {
    let expected = oracle_rows(expr, p);
    let paths: Vec<(&str, Vec<usize>)> = vec![
        ("scan_query", scan::scan_query(expr, p).unwrap().to_rows()),
        (
            "tree ScanOnly",
            evaluate_with_strategy(expr, p, ExecStrategy::ScanOnly)
                .unwrap()
                .to_rows(),
        ),
        (
            "tree Auto",
            evaluate_with_strategy(expr, p, ExecStrategy::Auto)
                .unwrap()
                .to_rows(),
        ),
        (
            "compiled ScanOnly",
            compile::evaluate(expr, p, ExecStrategy::ScanOnly)
                .unwrap()
                .to_rows(),
        ),
        (
            "compiled Auto",
            compile::evaluate(expr, p, ExecStrategy::Auto)
                .unwrap()
                .to_rows(),
        ),
    ];
    for (path, rows) in paths {
        assert_eq!(rows, expected, "{tag}: path {path} diverged on {expr}");
    }
    for chunk_rows in [31usize, 4096] {
        for threads in [1usize, 8] {
            let exec = ParExec::new(threads, chunk_rows);
            let rows = evaluate_chunked(expr, p, &exec).unwrap().to_rows();
            assert_eq!(
                rows, expected,
                "{tag}: chunked {chunk_rows}/{threads} diverged on {expr}"
            );
        }
    }
}

#[test]
fn fuzzed_special_value_queries_agree_on_every_path() {
    let n = 3000;
    let p = provider(n, 0x5EED);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for round in 0..60 {
        let expr = random_expr(&mut rng, &p, 2);
        check_all_paths(&expr, &p, &format!("round {round}"));
    }
}

#[test]
fn infinity_bounds_behave_like_ordinary_values() {
    let n = 1024;
    let p = provider(n, 7);
    // Hand-picked regressions: ±∞ as a bound under each inclusivity. With
    // an exclusive ∞ bound nothing ≥ ∞ matches; inclusive admits ∞ itself.
    let cases = [
        ValueRange::ge(f64::INFINITY),
        ValueRange::gt(f64::INFINITY),
        ValueRange::le(f64::NEG_INFINITY),
        ValueRange::lt(f64::NEG_INFINITY),
        ValueRange {
            min: Some(f64::NEG_INFINITY),
            min_inclusive: false,
            max: Some(f64::INFINITY),
            max_inclusive: false,
        },
        ValueRange {
            min: Some(f64::NEG_INFINITY),
            min_inclusive: true,
            max: Some(f64::INFINITY),
            max_inclusive: true,
        },
    ];
    for (i, range) in cases.into_iter().enumerate() {
        for column in COLUMNS {
            let expr = QueryExpr::Pred(Predicate::new(column, range.clone()));
            check_all_paths(&expr, &p, &format!("case {i} on {column}"));
        }
    }
}

#[test]
fn all_special_column_selects_only_matching_infinities() {
    let n = 600;
    let p = provider(n, 3);
    // On the NaN/±∞-only column: `>= -∞` selects exactly the non-NaN rows,
    // `> -∞ && < +∞` selects nothing, `>= +∞` exactly the +∞ rows.
    let col = "all_special";
    let values = &p.columns[col];
    let finite_or_inf: Vec<usize> = (0..n).filter(|&i| !values[i].is_nan()).collect();
    let pos_inf: Vec<usize> = (0..n).filter(|&i| values[i] == f64::INFINITY).collect();

    let ge_neg = QueryExpr::pred(col, ValueRange::ge(f64::NEG_INFINITY));
    let strict_finite = QueryExpr::pred(
        col,
        ValueRange {
            min: Some(f64::NEG_INFINITY),
            min_inclusive: false,
            max: Some(f64::INFINITY),
            max_inclusive: false,
        },
    );
    let ge_pos = QueryExpr::pred(col, ValueRange::ge(f64::INFINITY));

    check_all_paths(&ge_neg, &p, "ge -inf");
    check_all_paths(&strict_finite, &p, "strict finite");
    check_all_paths(&ge_pos, &p, "ge +inf");
    assert_eq!(oracle_rows(&ge_neg, &p), finite_or_inf);
    assert!(oracle_rows(&strict_finite, &p).is_empty());
    assert_eq!(oracle_rows(&ge_pos, &p), pos_inf);
}
