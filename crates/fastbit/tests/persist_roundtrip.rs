//! Round-trip property suite for the persist layer.
//!
//! Seeded random datasets and indexes — including NaN/±∞ columns, empty
//! columns and constant columns — are serialized through `fastbit::persist`
//! and reloaded, and the reloaded indexes must answer every query of a
//! seeded compound-query battery *byte-identically* to the originals
//! (identical row sets and identical WAH selection words), across both the
//! sequential evaluator and the chunked-parallel engine. This extends the
//! differential discipline of the PR 3 suites to bytes on disk: what was
//! persisted must be provably equivalent to what was in memory.

use std::collections::HashMap;

use fastbit::par::{evaluate_chunked, ParExec};
use fastbit::persist::{
    decode_id_index, decode_index, decode_zone_maps, encode_id_index, encode_index,
    encode_zone_maps,
};
use fastbit::{
    testing::evaluate_with_strategy, BinSpec, BitmapIndex, ColumnProvider, ExecStrategy,
    HistogramEngine, IdIndex, Predicate, QueryExpr, ValueRange, ZoneMaps,
};
use histogram::{BinEdges, Binning};
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

const COLUMNS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Columns exercising every awkward value class: smooth random data, heavy
/// ties, NaN islands with ±∞ outliers, a monotone ramp, and a constant
/// column (whose index needs explicit edges — data-derived ones degenerate).
fn provider(n: usize, seed: u64) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    let b: Vec<f64> = (0..n)
        .map(|_| (rng.gen_range(-5.0..5.0f64)).floor())
        .collect();
    let c: Vec<f64> = (0..n)
        .map(|i| {
            if i % 89 < 11 {
                f64::NAN
            } else if i % 193 == 0 {
                f64::INFINITY
            } else if i % 241 == 0 {
                f64::NEG_INFINITY
            } else {
                rng.gen_range(-1.0..1.0)
            }
        })
        .collect();
    let d: Vec<f64> = (0..n).map(|i| i as f64 / 10.0).collect();
    let e: Vec<f64> = vec![7.5; n];
    let mut columns = HashMap::new();
    let mut indexes = HashMap::new();
    for (name, data) in [("a", a), ("b", b), ("c", c), ("d", d)] {
        let binning = if name == "b" {
            Binning::EqualWeight { bins: 24 }
        } else {
            Binning::EqualWidth { bins: 32 }
        };
        indexes.insert(
            name.to_string(),
            BitmapIndex::build(&data, &binning).unwrap(),
        );
        columns.insert(name.to_string(), data);
    }
    let edges = BinEdges::uniform(0.0, 10.0, 8).unwrap();
    indexes.insert(
        "e".to_string(),
        BitmapIndex::build_with_edges(&e, edges).unwrap(),
    );
    columns.insert("e".to_string(), e);
    MemProvider {
        columns,
        indexes,
        rows: n,
    }
}

/// The same provider with every index pushed through encode → decode.
fn reloaded(p: &MemProvider) -> MemProvider {
    let mut indexes = HashMap::new();
    for (name, idx) in &p.indexes {
        let mut buf = Vec::new();
        encode_index(idx, &mut buf);
        indexes.insert(name.clone(), decode_index(&buf).unwrap());
    }
    MemProvider {
        columns: p.columns.clone(),
        indexes,
        rows: p.rows,
    }
}

fn random_range(rng: &mut StdRng, values: &[f64]) -> ValueRange {
    let pick = |rng: &mut StdRng| -> f64 {
        if !values.is_empty() && rng.gen_range(0.0..1.0) < 0.5 {
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
fn reloaded_indexes_are_structurally_identical() {
    let p = provider(2500, 0x5EED);
    let r = reloaded(&p);
    for name in COLUMNS {
        let original = &p.indexes[name];
        let back = &r.indexes[name];
        assert_eq!(back.num_rows(), original.num_rows(), "{name}");
        assert_eq!(
            back.edges().boundaries(),
            original.edges().boundaries(),
            "{name}: boundaries bit-exact"
        );
        assert_eq!(back.bin_counts(), original.bin_counts(), "{name}");
        assert_eq!(back.unbinned_rows(), original.unbinned_rows(), "{name}");
        assert_eq!(
            back.unbinned_matchable(),
            original.unbinned_matchable(),
            "{name}: candidate-check behaviour preserved"
        );
        for bin in 0..original.num_bins() {
            assert_eq!(
                back.bitmap(bin).as_words(),
                original.bitmap(bin).as_words(),
                "{name} bin {bin}: WAH words byte-identical (no recompression)"
            );
        }
    }
}

#[test]
fn compound_query_battery_is_byte_identical_after_reload() {
    let n = 3000;
    let p = provider(n, 0xC0FFEE);
    let r = reloaded(&p);
    let mut rng = StdRng::seed_from_u64(1234);
    for round in 0..60 {
        let expr = random_expr(&mut rng, &p, 3);
        let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
        let original = evaluate_with_strategy(&expr, &p, ExecStrategy::Auto).unwrap();
        let from_disk = evaluate_with_strategy(&expr, &r, ExecStrategy::Auto).unwrap();
        assert_eq!(
            from_disk.to_rows(),
            oracle.to_rows(),
            "round {round}: reloaded index vs scan oracle: {expr}"
        );
        assert_eq!(
            from_disk.as_wah().as_words(),
            original.as_wah().as_words(),
            "round {round}: WAH selection words byte-identical: {expr}"
        );
    }
}

/// Dual-encoding indexes pushed through the persist codecs — equality via
/// `encode_index`/`decode_index`, cumulative bitmaps via
/// `encode_range_bitmaps`/`decode_range_bitmaps` + attach — must come back
/// with bit-exact WAH words for both encodings and answer the compound
/// battery byte-identically under the cost-selected Auto path.
#[test]
fn range_encoded_indexes_survive_reload_byte_identically() {
    use fastbit::persist::{decode_range_bitmaps, encode_range_bitmaps};

    let n = 2500;
    let mut p = provider(n, 0xDA7A);
    for idx in p.indexes.values_mut() {
        idx.build_range_encoding().unwrap();
    }
    let mut reloaded_indexes = HashMap::new();
    for (name, idx) in &p.indexes {
        let mut buf = Vec::new();
        encode_index(idx, &mut buf);
        let mut back = decode_index(&buf).unwrap();
        let mut rbuf = Vec::new();
        encode_range_bitmaps(idx.range_bitmaps().unwrap(), &mut rbuf);
        back.attach_range_bitmaps(decode_range_bitmaps(&rbuf).unwrap())
            .unwrap();
        for (bin, (a, b)) in idx
            .range_bitmaps()
            .unwrap()
            .iter()
            .zip(back.range_bitmaps().unwrap())
            .enumerate()
        {
            assert_eq!(
                a.as_words(),
                b.as_words(),
                "{name} cumulative bin {bin}: WAH words byte-identical"
            );
        }
        reloaded_indexes.insert(name.clone(), back);
    }
    let r = MemProvider {
        columns: p.columns.clone(),
        indexes: reloaded_indexes,
        rows: p.rows,
    };
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..40 {
        let expr = random_expr(&mut rng, &p, 3);
        let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::ScanOnly).unwrap();
        let original = evaluate_with_strategy(&expr, &p, ExecStrategy::Auto).unwrap();
        let from_disk = evaluate_with_strategy(&expr, &r, ExecStrategy::Auto).unwrap();
        assert_eq!(
            from_disk.to_rows(),
            oracle.to_rows(),
            "round {round}: {expr}"
        );
        assert_eq!(
            from_disk.as_wah().as_words(),
            original.as_wah().as_words(),
            "round {round}: dual-encoding WAH selection words: {expr}"
        );
    }
}

#[test]
fn chunked_parallel_engine_agrees_on_reloaded_providers() {
    let n = 2000;
    let p = provider(n, 0xBEEF);
    let r = reloaded(&p);
    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..12 {
        let expr = random_expr(&mut rng, &p, 2);
        let oracle = evaluate_with_strategy(&expr, &p, ExecStrategy::Auto).unwrap();
        for threads in [1usize, 2, 8] {
            for chunk_rows in [1usize, 997, n] {
                let exec = ParExec::new(threads, chunk_rows);
                let chunked = evaluate_chunked(&expr, &r, &exec).unwrap();
                assert_eq!(
                    chunked.to_rows(),
                    oracle.to_rows(),
                    "round {round}, threads {threads}, chunk {chunk_rows}: {expr}"
                );
            }
        }
    }
}

#[test]
fn conditional_histograms_match_after_reload() {
    let n = 2200;
    let p = provider(n, 0xABBA);
    let r = reloaded(&p);
    let original = HistogramEngine::new(&p);
    let from_disk = HistogramEngine::new(&r);
    let mut rng = StdRng::seed_from_u64(5);
    for round in 0..10 {
        let expr = random_expr(&mut rng, &p, 2);
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        let spec = BinSpec::Uniform(rng.gen_range(4..64usize));
        let a = original.hist1d(column, &spec, Some(&expr), ExecStrategy::Auto);
        let b = from_disk.hist1d(column, &spec, Some(&expr), ExecStrategy::Auto);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "round {round}, {column}: {expr}"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("fallibility diverged after reload: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn empty_and_single_row_columns_roundtrip() {
    for n in [0usize, 1] {
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let edges = BinEdges::uniform(-1.0, 1.0, 4).unwrap();
        let idx = BitmapIndex::build_with_edges(&data, edges).unwrap();
        let mut buf = Vec::new();
        encode_index(&idx, &mut buf);
        let back = decode_index(&buf).unwrap();
        assert_eq!(back.num_rows(), n);
        assert_eq!(back.bin_counts(), idx.bin_counts());
        let got = back.evaluate(&ValueRange::all(), &data).unwrap();
        let want = idx.evaluate(&ValueRange::all(), &data).unwrap();
        assert_eq!(got.to_rows(), want.to_rows());
    }
}

#[test]
fn constant_and_all_nan_columns_roundtrip() {
    let constant = vec![42.0; 500];
    let edges = BinEdges::uniform(40.0, 44.0, 4).unwrap();
    let idx = BitmapIndex::build_with_edges(&constant, edges).unwrap();
    let mut buf = Vec::new();
    encode_index(&idx, &mut buf);
    let back = decode_index(&buf).unwrap();
    for range in [
        ValueRange::gt(41.0),
        ValueRange::le(42.0),
        ValueRange::between(43.0, 44.0),
    ] {
        assert_eq!(
            back.evaluate(&range, &constant).unwrap().to_rows(),
            idx.evaluate(&range, &constant).unwrap().to_rows(),
            "{range:?}"
        );
    }

    let all_nan = vec![f64::NAN; 200];
    let edges = BinEdges::uniform(0.0, 1.0, 2).unwrap();
    let idx = BitmapIndex::build_with_edges(&all_nan, edges).unwrap();
    let mut buf = Vec::new();
    encode_index(&idx, &mut buf);
    let back = decode_index(&buf).unwrap();
    assert_eq!(back.unbinned_rows().len(), 200);
    assert!(!back.unbinned_matchable(), "NaN-only stays non-matchable");
    assert!(back.answers_exactly(&ValueRange::all()));
    let got = back.evaluate(&ValueRange::all(), &all_nan).unwrap();
    assert!(got.is_none_selected());
}

#[test]
fn id_index_and_zone_maps_roundtrip_with_duplicates_and_ties() {
    let mut rng = StdRng::seed_from_u64(31);
    let ids: Vec<u64> = (0..4000).map(|_| rng.gen_range(0..500u64)).collect();
    let idx = IdIndex::build(&ids);
    let mut buf = Vec::new();
    encode_id_index(&idx, &mut buf);
    let back = decode_id_index(&buf).unwrap();
    assert_eq!(back.pairs(), idx.pairs());
    let query: Vec<u64> = (0..600).step_by(7).collect();
    assert_eq!(back.select(&query).to_rows(), idx.select(&query).to_rows());

    let p = provider(1700, 9);
    for name in COLUMNS {
        for chunk_rows in [1usize, 64, 5000] {
            let maps = ZoneMaps::build(&p.columns[name], chunk_rows);
            let mut buf = Vec::new();
            encode_zone_maps(&maps, &mut buf);
            let back = decode_zone_maps(&buf).unwrap();
            assert_eq!(back, maps, "{name} at {chunk_rows} rows/chunk");
        }
    }
}

#[test]
fn hostile_index_bytes_never_panic() {
    // Every prefix of a real encoding and seeded random mutations of it must
    // fail with a typed error (or decode to an index that still answers
    // queries without panicking) — never abort.
    let p = provider(300, 3);
    let mut buf = Vec::new();
    encode_index(&p.indexes["c"], &mut buf);
    for cut in 0..buf.len() {
        assert!(decode_index(&buf[..cut]).is_err(), "prefix of {cut} bytes");
    }
    let mut rng = StdRng::seed_from_u64(99);
    let data = &p.columns["c"];
    for _ in 0..400 {
        let mut hostile = buf.clone();
        for _ in 0..rng.gen_range(1..8usize) {
            let at = rng.gen_range(0..hostile.len());
            hostile[at] = rng.gen_range(0..256usize) as u8;
        }
        if let Ok(idx) = decode_index(&hostile) {
            // Structurally valid by luck: evaluation must still be safe.
            if idx.num_rows() == data.len() {
                let _ = idx.evaluate(&ValueRange::gt(0.0), data);
            }
            let _ = idx.evaluate_index_only(&ValueRange::all());
            let _ = idx.bin_counts();
        }
    }
}
