//! Differential tests: index-accelerated histograms versus brute-force
//! recomputation from the raw columns.
//!
//! Unconditional and conditional `hist1d`/`hist2d` counts from the FastBit
//! engine must match a from-scratch binning of the (selected) data, and
//! total counts must be conserved: every selected row lands in exactly one
//! bin or in the out-of-range tally.

use fastbit::hist::{BinSpec, HistogramEngine};
use fastbit::index::BitmapIndex;
use fastbit::query::{ColumnProvider, ExecStrategy, QueryExpr, ValueRange};
use histogram::{BinEdges, Binning};
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

fn provider(n: usize, bins: usize, seed: u64) -> MemProvider {
    let mut rng = StdRng::seed_from_u64(seed);
    let px: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e11)).collect();
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

/// Brute-force 1D binning: linear search of the edge array per value.
fn brute_hist1d(edges: &BinEdges, data: &[f64], keep: impl Fn(usize) -> bool) -> Vec<u64> {
    let b = edges.boundaries();
    let mut counts = vec![0u64; edges.num_bins()];
    for (row, &v) in data.iter().enumerate() {
        if !keep(row) {
            continue;
        }
        for i in 0..counts.len() {
            // Last bin is closed on the right, matching Hist1D::push.
            let hit = if i + 1 == counts.len() {
                v >= b[i] && v <= b[i + 1]
            } else {
                v >= b[i] && v < b[i + 1]
            };
            if hit {
                counts[i] += 1;
                break;
            }
        }
    }
    counts
}

#[test]
fn unconditional_hist1d_matches_bruteforce() {
    let n = 10_000;
    let p = provider(n, 64, 31);
    let engine = HistogramEngine::new(&p);
    for col in ["px", "x", "y"] {
        // Uniform(64) matches the index resolution, so the FastBit engine
        // answers this straight off the index bin counts.
        let fast = engine
            .hist1d(col, &BinSpec::Uniform(64), None, ExecStrategy::Auto)
            .unwrap();
        let custom = engine
            .hist1d(col, &BinSpec::Uniform(64), None, ExecStrategy::ScanOnly)
            .unwrap();
        let brute = brute_hist1d(fast.edges(), &p.columns[col], |_| true);
        assert_eq!(fast.counts(), brute.as_slice(), "{col}: FastBit vs brute");
        assert_eq!(custom.counts(), brute.as_slice(), "{col}: Custom vs brute");
        assert_eq!(
            fast.total() + fast.out_of_range(),
            n as u64,
            "{col}: every row binned or tallied out-of-range"
        );
    }
}

#[test]
fn conditional_hist1d_matches_bruteforce() {
    let n = 12_000;
    let p = provider(n, 64, 32);
    let engine = HistogramEngine::new(&p);
    let cond = QueryExpr::pred("px", ValueRange::gt(6e10))
        .and(QueryExpr::pred("y", ValueRange::between(-25.0, 25.0)));
    let keep: Vec<bool> = (0..n)
        .map(|r| {
            p.columns["px"][r] > 6e10
                && (-25.0..50.0).contains(&p.columns["y"][r])
                && p.columns["y"][r] < 25.0
        })
        .collect();
    let expected_rows = keep.iter().filter(|&&k| k).count() as u64;
    assert!(expected_rows > 0, "condition must select something");

    for eng in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
        let h = engine
            .hist1d("x", &BinSpec::Uniform(48), Some(&cond), eng)
            .unwrap();
        let brute = brute_hist1d(h.edges(), &p.columns["x"], |r| keep[r]);
        assert_eq!(h.counts(), brute.as_slice(), "engine {eng:?}");
        assert_eq!(
            h.total() + h.out_of_range(),
            expected_rows,
            "engine {eng:?}"
        );
    }
}

#[test]
fn unconditional_hist2d_matches_bruteforce() {
    let n = 8_000;
    let p = provider(n, 64, 33);
    let engine = HistogramEngine::new(&p);
    // Shared explicit edges so both engines and the brute force bin
    // identically.
    let x_edges = BinEdges::uniform(0.0, 1e-3, 32).unwrap();
    let px_edges = BinEdges::uniform(0.0, 1e11, 40).unwrap();
    let xspec = BinSpec::Edges(x_edges.clone());
    let pspec = BinSpec::Edges(px_edges.clone());

    let xs = &p.columns["x"];
    let pxs = &p.columns["px"];
    let bx = brute_hist1d(&x_edges, xs, |_| true); // marginal sanity
    let mut brute = vec![0u64; 32 * 40];
    for r in 0..n {
        let ix = (0..32).find(|&i| {
            let (lo, hi) = x_edges.bin_range(i);
            xs[r] >= lo && (xs[r] < hi || (i == 31 && xs[r] <= hi))
        });
        let iy = (0..40).find(|&i| {
            let (lo, hi) = px_edges.bin_range(i);
            pxs[r] >= lo && (pxs[r] < hi || (i == 39 && pxs[r] <= hi))
        });
        if let (Some(ix), Some(iy)) = (ix, iy) {
            brute[iy * 32 + ix] += 1;
        }
    }

    for eng in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
        let h = engine.hist2d("x", "px", &xspec, &pspec, None, eng).unwrap();
        assert_eq!(h.shape(), (32, 40), "engine {eng:?}");
        let got: Vec<u64> = (0..40)
            .flat_map(|iy| (0..32).map(move |ix| (ix, iy)))
            .map(|(ix, iy)| h.count(ix, iy))
            .collect();
        assert_eq!(got, brute, "engine {eng:?}: full 2D count grid");
        assert_eq!(h.total() + h.out_of_range(), n as u64, "engine {eng:?}");
        assert_eq!(
            h.marginal_x().counts(),
            bx.as_slice(),
            "engine {eng:?}: x marginal"
        );
    }
}

#[test]
fn conditional_hist2d_engines_agree_and_conserve_totals() {
    let n = 9_000;
    let p = provider(n, 128, 34);
    let engine = HistogramEngine::new(&p);
    let mut rng = StdRng::seed_from_u64(35);
    for case in 0..20 {
        let t = rng.gen_range(1e10..9e10);
        let cond = QueryExpr::pred("px", ValueRange::gt(t));
        let xspec = BinSpec::Edges(BinEdges::uniform(0.0, 1e-3, 24).unwrap());
        let yspec = BinSpec::Edges(BinEdges::uniform(-50.0, 50.0, 24).unwrap());
        let fast = engine
            .hist2d("x", "y", &xspec, &yspec, Some(&cond), ExecStrategy::Auto)
            .unwrap();
        let custom = engine
            .hist2d(
                "x",
                "y",
                &xspec,
                &yspec,
                Some(&cond),
                ExecStrategy::ScanOnly,
            )
            .unwrap();
        assert_eq!(fast.counts(), custom.counts(), "case {case} threshold {t}");
        let selected = p.columns["px"].iter().filter(|&&v| v > t).count() as u64;
        assert_eq!(fast.total() + fast.out_of_range(), selected, "case {case}");
        assert_eq!(
            custom.total() + custom.out_of_range(),
            selected,
            "case {case}"
        );
    }
}
