//! Golden snapshots of the deterministic plan printer
//! ([`fastbit::Program::explain`]): index-vs-scan routing, encoding
//! selection, zone-map prune guards and the fused op listing must render
//! exactly the same text on every run — the snapshot a reviewer reads is
//! the plan the engine executes.

use std::collections::HashMap;
use std::sync::Arc;

use fastbit::compile::{PlanMode, Program};
use fastbit::par::{ZoneMaps, DEFAULT_CHUNK_ROWS};
use fastbit::{parse_query, BitmapIndex, ColumnProvider, ExecStrategy};
use histogram::Binning;

struct MemProvider {
    columns: HashMap<String, Vec<f64>>,
    indexes: HashMap<String, BitmapIndex>,
    zones: HashMap<String, Arc<ZoneMaps>>,
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
    fn zone_maps(&self, name: &str, chunk_rows: usize) -> Option<Arc<ZoneMaps>> {
        if chunk_rows == DEFAULT_CHUNK_ROWS {
            self.zones.get(name).cloned()
        } else {
            None
        }
    }
}

/// Three columns with distinct plan routes: `idx` carries a bitmap index,
/// `zoned` carries precomputed zone maps (but no index), `plain` has
/// neither.
fn provider() -> MemProvider {
    let n = 8192;
    // Spans exactly [0, 100] so the 10-bin EqualWidth edges sit on
    // multiples of 10 and `[10 , 20)`-style queries align with bins.
    let idx: Vec<f64> = (0..n).map(|i| i as f64 * 100.0 / (n - 1) as f64).collect();
    let zoned: Vec<f64> = (0..n).map(|i| (i % 100) as f64 / 10.0).collect();
    let plain: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
    let mut indexes = HashMap::new();
    indexes.insert(
        "idx".to_string(),
        BitmapIndex::build(&idx, &Binning::EqualWidth { bins: 10 })
            .unwrap()
            .with_range_encoding()
            .unwrap(),
    );
    let mut zones = HashMap::new();
    zones.insert(
        "zoned".to_string(),
        Arc::new(ZoneMaps::build(&zoned, DEFAULT_CHUNK_ROWS)),
    );
    let columns = HashMap::from([
        ("idx".to_string(), idx),
        ("zoned".to_string(), zoned),
        ("plain".to_string(), plain),
    ]);
    MemProvider {
        columns,
        indexes,
        zones,
        rows: n,
    }
}

fn explain(query: &str, p: &MemProvider, mode: PlanMode) -> String {
    Program::compile(&parse_query(query).unwrap())
        .explain(p, mode)
        .unwrap()
}

#[test]
fn sequential_auto_routes_index_zones_and_plain_scan() {
    let p = provider();
    // `idx [10, 20)` aligns with the 10-wide bin lattice (exact index
    // answer); `idx > 15` does not (candidate check); the other columns
    // scan, with the prune guard only where zone maps exist.
    let got = explain(
        "idx [10, 20) && zoned > 5 && plain <= 3",
        &p,
        PlanMode::Sequential(ExecStrategy::Auto),
    );
    assert_eq!(
        got,
        "plan (idx [10 , 20) && plain <= 3 && zoned > 5)\n\
         mode: sequential(auto)\n\
         s0: idx [10 , 20) <- index (encoding=equality, exact)\n\
         s1: plain <= 3 <- scan\n\
         s2: zoned > 5 <- scan (zone-pruned)\n\
         \x20 r0 = load s0\n\
         \x20 r0 &= s1\n\
         \x20 r0 &= s2\n\
         root: r0\n"
    );
}

#[test]
fn candidate_checks_and_encodings_are_printed() {
    let p = provider();
    let got = explain("idx > 15", &p, PlanMode::Sequential(ExecStrategy::Auto));
    assert_eq!(
        got,
        "plan idx > 15\n\
         mode: sequential(auto)\n\
         s0: idx > 15 <- index (encoding=range, candidate-check)\n\
         root: s0\n"
    );
    // A single-bin range prefers the equality encoding (one bitmap beats
    // two cumulative operations), even though cumulative bitmaps exist.
    let got = explain(
        "idx [10, 20) || idx [30, 40)",
        &p,
        PlanMode::Sequential(ExecStrategy::Auto),
    );
    assert_eq!(
        got,
        "plan (idx [10 , 20) || idx [30 , 40))\n\
         mode: sequential(auto)\n\
         s0: idx [10 , 20) <- index (encoding=equality, exact)\n\
         s1: idx [30 , 40) <- index (encoding=equality, exact)\n\
         \x20 r0 = load s0\n\
         \x20 r0 |= s1\n\
         root: r0\n"
    );
}

#[test]
fn scan_only_ignores_the_index_but_keeps_prune_guards() {
    let p = provider();
    let got = explain(
        "idx [10, 20) && zoned > 5",
        &p,
        PlanMode::Sequential(ExecStrategy::ScanOnly),
    );
    assert_eq!(
        got,
        "plan (idx [10 , 20) && zoned > 5)\n\
         mode: sequential(scan-only)\n\
         s0: idx [10 , 20) <- scan\n\
         s1: zoned > 5 <- scan (zone-pruned)\n\
         \x20 r0 = load s0\n\
         \x20 r0 &= s1\n\
         root: r0\n"
    );
}

#[test]
fn chunked_modes_print_their_pruning_and_accel_flags() {
    let p = provider();
    let query = "idx [10, 20) && plain <= 3";
    let pruned = explain(query, &p, PlanMode::Chunked { pruning: true });
    assert_eq!(
        pruned,
        "plan (idx [10 , 20) && plain <= 3)\n\
         mode: chunked(pruning=on)\n\
         s0: idx [10 , 20) <- scan (zone-pruned)\n\
         s1: plain <= 3 <- scan (zone-pruned)\n\
         \x20 r0 = load s0\n\
         \x20 r0 &= s1\n\
         root: r0\n"
    );
    let plain = explain(query, &p, PlanMode::Chunked { pruning: false });
    assert_eq!(
        plain,
        "plan (idx [10 , 20) && plain <= 3)\n\
         mode: chunked(pruning=off)\n\
         s0: idx [10 , 20) <- scan\n\
         s1: plain <= 3 <- scan\n\
         \x20 r0 = load s0\n\
         \x20 r0 &= s1\n\
         root: r0\n"
    );
}

#[test]
fn negation_and_shared_slots_show_in_the_op_listing() {
    let p = provider();
    // `plain <= 3` appears twice but compiles to one slot; the negation is
    // a register op after the fused loads.
    let got = explain(
        "!(plain <= 3 && zoned > 5) || plain <= 3",
        &p,
        PlanMode::Sequential(ExecStrategy::ScanOnly),
    );
    assert_eq!(
        got,
        "plan (!((plain <= 3 && zoned > 5)) || plain <= 3)\n\
         mode: sequential(scan-only)\n\
         s0: plain <= 3 <- scan\n\
         s1: zoned > 5 <- scan (zone-pruned)\n\
         \x20 r0 = load s0\n\
         \x20 r0 &= s1\n\
         \x20 r0 = !r0\n\
         \x20 r0 |= s0\n\
         root: r0\n"
    );
}
