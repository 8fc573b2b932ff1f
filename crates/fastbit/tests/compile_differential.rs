//! Differential suite for the bytecode query compiler: for every seeded
//! random compound expression — over columns with NaN and ±∞ — the compiled
//! program must produce
//!
//! * the same row set as the row-by-row scan oracle,
//! * **bit-identical** WAH selection words to the tree-walk evaluator of
//!   the normalized expression (the form the program is compiled from),
//! * byte-identical chunked masks/selections across chunk sizes
//!   {1, 31, n} × thread counts {1, 8}, and
//! * identical conditional histogram counts.
//!
//! This is the pin behind the determinism invariant in ARCHITECTURE.md:
//! "compiled" means faster, never different.

use std::collections::HashMap;

use fastbit::compile::{self, Program};
use fastbit::par::{evaluate_chunk_masks_program, evaluate_chunked, ParExec};
use fastbit::{
    scan, testing::evaluate_with_strategy, BinSpec, BitmapIndex, ColumnProvider, ExecStrategy,
    HistogramEngine, Predicate, QueryExpr, ValueRange,
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

const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];

/// Smooth random data, heavy ties, NaN islands with ±∞ outliers, and a
/// monotone ramp that zone maps prune aggressively.
fn provider(n: usize, seed: u64, with_indexes: bool) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    let b: Vec<f64> = (0..n)
        .map(|_| (rng.gen_range(-5.0..5.0f64)).floor())
        .collect();
    let c: Vec<f64> = (0..n)
        .map(|i| {
            if i % 89 < 11 {
                f64::NAN
            } else if i % 239 == 0 {
                f64::INFINITY
            } else if i % 367 == 0 {
                f64::NEG_INFINITY
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    let d: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
    let mut columns = HashMap::new();
    let mut indexes = HashMap::new();
    for (name, data) in [("a", a), ("b", b), ("c", c), ("d", d)] {
        if with_indexes {
            indexes.insert(
                name.to_string(),
                BitmapIndex::build(&data, &Binning::EqualWidth { bins: 48 }).unwrap(),
            );
        }
        columns.insert(name.to_string(), data);
    }
    MemProvider {
        columns,
        indexes,
        rows: n,
    }
}

fn random_range(rng: &mut StdRng, values: &[f64]) -> ValueRange {
    let pick = |rng: &mut StdRng| -> f64 {
        if rng.gen_range(0.0..1.0) < 0.5 {
            let v = values[rng.gen_range(0..values.len())];
            if v.is_nan() {
                0.0
            } else {
                v
            }
        } else {
            rng.gen_range(-1200.0..1200.0)
        }
    };
    match rng.gen_range(0..5u32) {
        0 => ValueRange::gt(pick(rng)),
        1 => ValueRange::ge(pick(rng)),
        2 => ValueRange::lt(pick(rng)),
        3 => ValueRange::le(pick(rng)),
        _ => {
            let x = pick(rng);
            let y = pick(rng);
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            if rng.gen_range(0.0..1.0) < 0.5 {
                ValueRange::between(lo, hi)
            } else {
                ValueRange::between_inclusive(lo, hi)
            }
        }
    }
}

fn random_expr(rng: &mut StdRng, provider: &MemProvider, depth: usize) -> QueryExpr {
    if depth == 0 || rng.gen_range(0.0..1.0) < 0.35 {
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        let values = &provider.columns[column];
        return QueryExpr::Pred(Predicate::new(column, random_range(rng, values)));
    }
    match rng.gen_range(0..3u32) {
        0 => QueryExpr::And(
            (0..rng.gen_range(2..4usize))
                .map(|_| random_expr(rng, provider, depth - 1))
                .collect(),
        ),
        1 => QueryExpr::Or(
            (0..rng.gen_range(2..4usize))
                .map(|_| random_expr(rng, provider, depth - 1))
                .collect(),
        ),
        _ => random_expr(rng, provider, depth - 1).not(),
    }
}

#[test]
fn compiled_matches_scan_oracle_and_tree_walk_bit_for_bit() {
    let n = 3000;
    for (seed, with_indexes) in [(0xFACE_u64, false), (0xFEED, true)] {
        let p = provider(n, seed, with_indexes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        for round in 0..30 {
            let expr = random_expr(&mut rng, &p, 3);
            let oracle = scan::scan_query(&expr, &p).unwrap();
            let normalized = expr.normalized();
            for strategy in [ExecStrategy::ScanOnly, ExecStrategy::Auto] {
                let compiled = compile::evaluate(&expr, &p, strategy).unwrap();
                assert_eq!(
                    compiled.to_rows(),
                    oracle.to_rows(),
                    "round {round} rows, strategy {strategy:?}: {expr}"
                );
                // Bit-identity of the compressed words themselves, against
                // the tree-walk of the normalized expression the program
                // was compiled from.
                let tree = evaluate_with_strategy(&normalized, &p, strategy).unwrap();
                assert_eq!(
                    compiled.as_wah(),
                    tree.as_wah(),
                    "round {round} words, strategy {strategy:?}: {expr}"
                );
            }
        }
    }
}

#[test]
fn compiled_chunked_masks_are_byte_identical_across_configurations() {
    let n = 2500;
    for (seed, with_indexes) in [(0xA11CE_u64, false), (0xB0B, true)] {
        let p = provider(n, seed, with_indexes);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        for round in 0..15 {
            let expr = random_expr(&mut rng, &p, 3);
            let program = Program::compile(&expr);
            let oracle = scan::scan_query(&expr, &p).unwrap();
            for chunk_rows in [1usize, 31, n] {
                for threads in [1usize, 8] {
                    let exec = ParExec::new(threads, chunk_rows);
                    let masks = evaluate_chunk_masks_program(&program, &p, &exec).unwrap();
                    let selection = masks.to_selection();
                    assert_eq!(
                        selection.to_rows(),
                        oracle.to_rows(),
                        "round {round}, chunk_rows {chunk_rows}, threads {threads}: {expr}"
                    );
                    // The expression front-door produces the same bytes: it
                    // is the same compiled path.
                    let front = evaluate_chunked(&expr, &p, &exec).unwrap();
                    assert_eq!(
                        selection, front,
                        "round {round}, chunk_rows {chunk_rows}, threads {threads}: {expr}"
                    );
                }
            }
        }
    }
}

#[test]
fn compiled_conditional_histograms_match_bin_for_bin() {
    let n = 2000;
    let p = provider(n, 0xD00D, true);
    let engine = HistogramEngine::new(&p);
    let mut rng = StdRng::seed_from_u64(17);
    for round in 0..10 {
        let expr = random_expr(&mut rng, &p, 2);
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        let spec = BinSpec::Uniform(rng.gen_range(4..64usize));
        // The scan strategy is the histogram oracle: no index answers any
        // part of it.
        let oracle = engine.hist1d(column, &spec, Some(&expr), ExecStrategy::ScanOnly);
        let fast = engine.hist1d(column, &spec, Some(&expr), ExecStrategy::Auto);
        match (&oracle, &fast) {
            (Ok(o), Ok(f)) => assert_eq!(f, o, "round {round}, {column}: {expr}"),
            (Err(_), Err(_)) => {}
            (o, f) => panic!("oracle {o:?} vs compiled {f:?} disagree on fallibility"),
        }
        for threads in [1usize, 8] {
            let exec = ParExec::new(threads, 31);
            let par = engine.hist1d_par(column, &spec, Some(&expr), ExecStrategy::Auto, &exec);
            match (&oracle, &par) {
                (Ok(o), Ok(p)) => assert_eq!(p, o, "round {round}, {column}, par: {expr}"),
                (Err(_), Err(_)) => {}
                (o, p) => panic!("oracle {o:?} vs par {p:?} disagree on fallibility"),
            }
        }
    }
}
