//! Row-at-a-time scans of the "Custom" sequential-scan baseline.
//!
//! The paper benchmarks FastBit against a standalone application that has no
//! index and therefore scans every data record. Its histograms are
//! [`crate::HistogramEngine`] under [`crate::ExecStrategy::ScanOnly`]; this
//! module holds the two scans that have no index-free counterpart there:
//!
//! * [`scan_query`] tests every row against a compound query, the
//!   row-at-a-time oracle the differential suites compare engines with;
//! * [`scan_id_search`] answers particle-identifier queries by walking the
//!   dataset once with an `O(log S)` binary search of the sorted search set
//!   per record (overall `O(N log S)`), the tracking baseline of Figures 13
//!   and 16.

use crate::error::Result;
use crate::query::{ColumnProvider, QueryExpr};
use crate::selection::Selection;
use crate::wah::WahBuilder;

/// Evaluate a compound range query by scanning every row.
pub fn scan_query(expr: &QueryExpr, provider: &impl ColumnProvider) -> Result<Selection> {
    let rows = provider.num_rows();
    let mut builder = WahBuilder::new();
    for row in 0..rows {
        builder.push_bit(expr.matches_row(provider, row)?);
    }
    Ok(Selection::from_wah(builder.finish()))
}

/// Locate the rows whose identifier appears in `search_set` by scanning the
/// whole identifier column; the search set is sorted once and each record
/// does an `O(log S)` membership test.
pub fn scan_id_search(ids: &[u64], search_set: &[u64]) -> Selection {
    let mut sorted: Vec<u64> = search_set.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut builder = WahBuilder::new();
    for &id in ids {
        builder.push_bit(sorted.binary_search(&id).is_ok());
    }
    Selection::from_wah(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{BitmapIndex, IdIndex};
    use crate::query::{QueryExpr, ValueRange};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashMap;

    struct MemProvider {
        columns: HashMap<String, Vec<f64>>,
        rows: usize,
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

    fn provider(n: usize) -> MemProvider {
        let mut rng = StdRng::seed_from_u64(7);
        let px: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e11)).collect();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut columns = HashMap::new();
        columns.insert("px".to_string(), px);
        columns.insert("x".to_string(), x);
        MemProvider { columns, rows: n }
    }

    #[test]
    fn scan_query_matches_index_query() {
        let p = provider(5000);
        let expr = QueryExpr::pred("px", ValueRange::gt(5e10))
            .and(QueryExpr::pred("x", ValueRange::lt(0.5)));
        let scanned = scan_query(&expr, &p).unwrap();
        // Independent reference evaluation.
        let expected: Vec<usize> = (0..p.rows)
            .filter(|&r| p.columns["px"][r] > 5e10 && p.columns["x"][r] < 0.5)
            .collect();
        assert_eq!(scanned.to_rows(), expected);
    }

    #[test]
    fn scan_id_search_matches_id_index() {
        let mut rng = StdRng::seed_from_u64(99);
        let ids: Vec<u64> = (0..20_000u64).map(|i| i * 3 + 1).collect();
        let search: Vec<u64> = (0..500).map(|_| rng.gen_range(0..60_000)).collect();
        let scanned = scan_id_search(&ids, &search);
        let indexed = IdIndex::build(&ids).select(&search);
        assert_eq!(scanned.to_rows(), indexed.to_rows());
    }

    #[test]
    fn scan_id_search_empty_set_selects_nothing() {
        let ids: Vec<u64> = (0..100).collect();
        assert!(scan_id_search(&ids, &[]).is_none_selected());
    }
}
