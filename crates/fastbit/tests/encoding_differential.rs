//! Differential suite: equality vs range (cumulative) bitmap encoding.
//!
//! The tentpole guarantee of the dual-encoding index is that encoding
//! selection can never change an answer: for every query, the equality path
//! (OR one bitmap per spanned bin) and the range path (at most two
//! cumulative bitmaps combined with AND NOT) must produce **bit-identical
//! WAH selection words**, not merely the same row sets, through the
//! sequential evaluator (the engine that consults indexes). Seeded random
//! compound queries over columns with NaN/±∞ values, boundary-inclusive
//! ranges landing exactly on bin edges, and the scan baseline as the
//! independent oracle pin all of it.

use std::collections::HashMap;

use fastbit::{
    testing::evaluate_with_strategy, BitmapIndex, ColumnProvider, ExecStrategy, IndexEncoding,
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

const COLUMNS: [&str; 4] = ["a", "b", "c", "d"];

/// Columns exercising the awkward classes: smooth random data, heavy ties,
/// NaN islands with ±∞ outliers, and a clustered monotone ramp (the best
/// case for wide-range queries, the shape the range encoding exists for).
fn columns(n: usize, seed: u64) -> Vec<(&'static str, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    let b: Vec<f64> = (0..n)
        .map(|_| (rng.gen_range(-5.0..5.0f64)).floor())
        .collect();
    let c: Vec<f64> = (0..n)
        .map(|i| {
            if i % 97 < 7 {
                f64::NAN
            } else if i % 211 == 0 {
                f64::INFINITY
            } else if i % 251 == 0 {
                f64::NEG_INFINITY
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    let d: Vec<f64> = (0..n).map(|i| i as f64 / 7.0).collect();
    vec![("a", a), ("b", b), ("c", c), ("d", d)]
}

/// Build one provider with equality-only indexes and one whose indexes carry
/// both encodings, over the *same* edges and data.
fn provider_pair(n: usize, seed: u64) -> (MemProvider, MemProvider) {
    let cols = columns(n, seed);
    let mut equality_only = HashMap::new();
    let mut dual = HashMap::new();
    let mut map = HashMap::new();
    for (name, data) in cols {
        let binning = if name == "b" {
            Binning::EqualWeight { bins: 16 }
        } else {
            Binning::EqualWidth { bins: 48 }
        };
        let idx = BitmapIndex::build(&data, &binning).unwrap();
        dual.insert(name.to_string(), idx.clone().with_range_encoding().unwrap());
        equality_only.insert(name.to_string(), idx);
        map.insert(name.to_string(), data);
    }
    let rows = map["a"].len();
    (
        MemProvider {
            columns: map.clone(),
            indexes: equality_only,
            rows,
        },
        MemProvider {
            columns: map,
            indexes: dual,
            rows,
        },
    )
}

fn random_range(rng: &mut StdRng, lo: f64, hi: f64) -> ValueRange {
    let a = rng.gen_range(lo..hi);
    let b = rng.gen_range(lo..hi);
    let (min, max) = if a <= b { (a, b) } else { (b, a) };
    match rng.gen_range(0..6u32) {
        0 => ValueRange::gt(min),
        1 => ValueRange::ge(min),
        2 => ValueRange::lt(max),
        3 => ValueRange::le(max),
        4 => ValueRange::between(min, max),
        _ => ValueRange::between_inclusive(min, max),
    }
}

fn random_expr(rng: &mut StdRng, depth: usize) -> QueryExpr {
    let leaf = depth == 0 || rng.gen_range(0..3u32) == 0;
    if leaf {
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        let (lo, hi) = match column {
            "a" => (-1100.0, 1100.0),
            "b" => (-6.0, 6.0),
            "c" => (-1.2, 1.2),
            _ => (-10.0, 1500.0),
        };
        return QueryExpr::pred(column, random_range(rng, lo, hi));
    }
    match rng.gen_range(0..3u32) {
        0 => random_expr(rng, depth - 1).and(random_expr(rng, depth - 1)),
        1 => random_expr(rng, depth - 1).or(random_expr(rng, depth - 1)),
        _ => random_expr(rng, depth - 1).not(),
    }
}

/// Per-predicate: the two encodings, forced, must agree on WAH words with
/// each other and on rows with the scan baseline.
#[test]
fn forced_encodings_agree_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xE4C0);
    let (_, dual) = provider_pair(4_000, 41);
    for round in 0..400 {
        let column = COLUMNS[round % COLUMNS.len()];
        let (lo, hi) = match column {
            "a" => (-1100.0, 1100.0),
            "b" => (-6.0, 6.0),
            "c" => (-1.2, 1.2),
            _ => (-10.0, 1500.0),
        };
        let range = random_range(&mut rng, lo, hi);
        let idx = dual.index(column).unwrap();
        let data = dual.column(column).unwrap();
        let (eq_hits, eq_cand) = idx
            .evaluate_index_only_with(&range, IndexEncoding::Equality)
            .unwrap();
        let (rg_hits, rg_cand) = idx
            .evaluate_index_only_with(&range, IndexEncoding::Range)
            .unwrap();
        assert_eq!(
            eq_hits.as_wah(),
            rg_hits.as_wah(),
            "round {round}: hits words for {column} {range:?}"
        );
        assert_eq!(
            eq_cand.as_wah(),
            rg_cand.as_wah(),
            "round {round}: candidate words for {column} {range:?}"
        );
        let exact_eq = idx
            .evaluate_with(&range, data, IndexEncoding::Equality)
            .unwrap();
        let exact_rg = idx
            .evaluate_with(&range, data, IndexEncoding::Range)
            .unwrap();
        assert_eq!(exact_eq.as_wah(), exact_rg.as_wah(), "round {round}");
        let scan: Vec<usize> = data
            .iter()
            .enumerate()
            .filter(|(_, &v)| range.contains(v))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(exact_rg.to_rows(), scan, "round {round}: scan oracle");
    }
}

/// Whole-query level: an equality-only provider and a dual-encoding provider
/// (where the cost model freely picks the range encoding) must produce
/// bit-identical selections under the sequential engine, matching the scan
/// oracle. (Above one thread the evaluator's plan never consults indexes.)
#[test]
fn compound_queries_agree_across_encodings_engines_chunks_and_threads() {
    let n = 3_000;
    let (equality_only, dual) = provider_pair(n, 42);
    let mut rng = StdRng::seed_from_u64(0xE4C1);
    for round in 0..60 {
        let expr = random_expr(&mut rng, 3);
        let oracle = evaluate_with_strategy(&expr, &equality_only, ExecStrategy::ScanOnly).unwrap();

        // Sequential Auto on both providers: identical WAH words.
        let seq_eq = evaluate_with_strategy(&expr, &equality_only, ExecStrategy::Auto).unwrap();
        let seq_rg = evaluate_with_strategy(&expr, &dual, ExecStrategy::Auto).unwrap();
        assert_eq!(seq_eq.to_rows(), oracle.to_rows(), "round {round}: {expr}");
        assert_eq!(
            seq_eq.as_wah(),
            seq_rg.as_wah(),
            "round {round}: sequential words differ between encodings: {expr}"
        );
    }
}

/// Ranges whose endpoints land exactly on bin boundaries, in all four
/// inclusivity combinations — the case the paper's low-precision boundaries
/// exist for (answerable from the index alone, no candidate check).
#[test]
fn boundary_inclusive_ranges_agree() {
    let (_, dual) = provider_pair(2_500, 43);
    for column in COLUMNS {
        let idx = dual.index(column).unwrap();
        let data = dual.column(column).unwrap();
        let boundaries: Vec<f64> = idx.edges().boundaries().to_vec();
        for (i, &lo) in boundaries.iter().enumerate() {
            // A handful of upper boundaries per lower one keeps this dense
            // but fast; include the degenerate lo == hi case.
            for &hi in boundaries[i..].iter().step_by(7) {
                for range in [
                    ValueRange::between(lo, hi),
                    ValueRange::between_inclusive(lo, hi),
                    ValueRange {
                        min: Some(lo),
                        min_inclusive: false,
                        max: Some(hi),
                        max_inclusive: false,
                    },
                    ValueRange {
                        min: Some(lo),
                        min_inclusive: false,
                        max: Some(hi),
                        max_inclusive: true,
                    },
                ] {
                    let eq = idx
                        .evaluate_with(&range, data, IndexEncoding::Equality)
                        .unwrap();
                    let rg = idx
                        .evaluate_with(&range, data, IndexEncoding::Range)
                        .unwrap();
                    assert_eq!(eq.as_wah(), rg.as_wah(), "{column} {range:?}");
                    let expected = data.iter().filter(|&&v| range.contains(v)).count() as u64;
                    assert_eq!(rg.count(), expected, "{column} {range:?}");
                }
            }
        }
    }
}

/// The cost model must pick the range encoding for wide spans, the equality
/// encoding for narrow ones, and the auto path must record its choices.
#[test]
fn cost_model_selects_sensibly_and_counts() {
    let (_, dual) = provider_pair(5_000, 44);
    let idx = dual.index("d").unwrap(); // monotone ramp, 48 bins
    let data = dual.column("d").unwrap();
    let (lo, hi) = (idx.edges().lo(), idx.edges().hi());
    let width = hi - lo;
    let wide = ValueRange::gt(lo + width * 0.02);
    let narrow = ValueRange::between(lo + width * 0.50, lo + width * 0.52);
    assert_eq!(idx.choose_encoding(&wide), IndexEncoding::Range);
    assert_eq!(idx.choose_encoding(&narrow), IndexEncoding::Equality);

    let before = fastbit::encoding_stats();
    idx.evaluate(&wide, data).unwrap();
    idx.evaluate(&narrow, data).unwrap();
    let after = fastbit::encoding_stats();
    assert!(after.range_queries > before.range_queries);
    assert!(after.equality_queries > before.equality_queries);
}
