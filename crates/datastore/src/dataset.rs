//! The FastQuery-style dataset facade for one timestep: what a catalog
//! timestep file decodes to, and what [`crate::store::encode_segment`]
//! writes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fastbit::{
    BitmapIndex, ColumnProvider, ExecStrategy, HistogramEngine, IdIndex, QueryExpr, Selection,
    ZoneMaps,
};
use histogram::Binning;

use crate::error::{DataStoreError, Result};
use crate::lock;
use crate::table::ParticleTable;

/// One timestep's worth of particle data together with whatever indexes have
/// been built or loaded for it.
///
/// `Dataset` implements [`ColumnProvider`], so the fastbit query evaluator
/// and [`HistogramEngine`] can read columns and indexes from it directly;
/// this mirrors the implementation-neutral API of HDF5-FastQuery.
#[derive(Debug, Clone)]
pub struct Dataset {
    table: ParticleTable,
    indexes: HashMap<String, BitmapIndex>,
    id_index: Option<IdIndex>,
    step: usize,
    /// Lazily built per-column zone maps, keyed by `(column, chunk_rows)`,
    /// shared across clones (clones alias the same column values). Built on
    /// first chunked query and reused by every later one, so the chunked
    /// evaluator's pruning never pays a second scan.
    zone_maps: Arc<Mutex<ZoneMapCache>>,
}

/// Cached zone maps keyed by `(column name, chunk rows)`.
type ZoneMapCache = HashMap<(String, usize), Arc<ZoneMaps>>;

impl Dataset {
    /// Wrap an in-memory table as timestep `step`, with no indexes attached.
    pub fn from_table(table: ParticleTable, step: usize) -> Self {
        Self {
            table,
            indexes: HashMap::new(),
            id_index: None,
            step,
            zone_maps: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The timestep number this dataset belongs to.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Number of particles.
    pub fn num_particles(&self) -> usize {
        self.table.num_rows()
    }

    /// The underlying columnar table.
    pub fn table(&self) -> &ParticleTable {
        &self.table
    }

    /// Build bitmap indexes over every float column using `binning`
    /// (the one-time preprocessing step of the paper's Figure 1).
    pub fn build_indexes(&mut self, binning: &Binning) -> Result<()> {
        for column in self.table.columns() {
            if let Some(values) = column.data.as_float() {
                let idx = BitmapIndex::build(values, binning)?;
                self.indexes.insert(column.name.clone(), idx);
            }
        }
        Ok(())
    }

    /// Build (equality-encoded) bitmap indexes over every float column,
    /// skipping columns whose construction fails (empty or degenerate value
    /// ranges). Returns the number of indexes built. Used by the store's
    /// write-back of a timestep written without indexes, where one
    /// unindexable column must not abort serving the timestep;
    /// [`Catalog::load`](crate::Catalog::load) then adds the cumulative
    /// range encoding under the same materialization budget as ingest
    /// ([`Dataset::build_range_encodings_budgeted`]) before rewriting the
    /// file.
    pub fn build_indexes_lenient(&mut self, binning: &Binning) -> usize {
        let mut built = 0;
        for column in self.table.columns() {
            if let Some(values) = column.data.as_float() {
                if let Ok(idx) = BitmapIndex::build(values, binning) {
                    self.indexes.insert(column.name.clone(), idx);
                    built += 1;
                }
            }
        }
        built
    }

    /// Build the cumulative (range) encoding for every attached bitmap index
    /// that lacks it, from the equality bitmaps alone (no raw data needed).
    /// Returns how many indexes gained the encoding. Unbudgeted — callers
    /// that persist should prefer
    /// [`Dataset::build_range_encodings_budgeted`].
    pub fn build_range_encodings(&mut self) -> usize {
        let mut built = 0;
        for idx in self.indexes.values_mut() {
            if !idx.has_range_encoding() && idx.build_range_encoding().is_ok() {
                built += 1;
            }
        }
        built
    }

    /// [`Dataset::build_range_encodings`] under the per-index size budget of
    /// [`fastbit::BitmapIndex::build_range_encoding_budgeted`]: only indexes
    /// whose cumulative bitmaps stay within `max_ratio` times their equality
    /// bytes gain the encoding. Returns how many did. This is what ingest
    /// and the store's write-back use, so segment size — and therefore warm
    /// restart time — cannot blow up on scattered columns whose cumulative
    /// bitmaps barely compress.
    pub fn build_range_encodings_budgeted(&mut self, max_ratio: f64) -> usize {
        let mut built = 0;
        for idx in self.indexes.values_mut() {
            if !idx.has_range_encoding()
                && matches!(idx.build_range_encoding_budgeted(max_ratio), Ok(true))
            {
                built += 1;
            }
        }
        built
    }

    /// Compressed bitmap bytes of the attached indexes per encoding:
    /// `(equality, range)`. Reported by the server's `STATS` verb as
    /// `enc_equality_bytes` / `enc_range_bytes`, summed over the resident
    /// dataset cache.
    pub fn index_encoding_bytes(&self) -> (u64, u64) {
        let mut equality = 0u64;
        let mut range = 0u64;
        for idx in self.indexes.values() {
            let (e, r) = idx.encoding_size_bytes();
            equality += e as u64;
            range += r as u64;
        }
        (equality, range)
    }

    /// Attach bitmap indexes loaded from a segment file.
    pub fn attach_indexes(&mut self, indexes: Vec<(String, BitmapIndex)>) {
        for (name, idx) in indexes {
            self.indexes.insert(name, idx);
        }
    }

    /// Build the identifier index over the `id` column, enabling
    /// `ID IN (…)` particle-tracking queries.
    pub fn build_id_index(&mut self) -> Result<()> {
        let ids = self.table.id_column("id")?;
        self.id_index = Some(IdIndex::build(ids));
        Ok(())
    }

    /// Attach an identifier index loaded from a segment file.
    pub fn attach_id_index(&mut self, index: IdIndex) {
        self.id_index = Some(index);
    }

    /// The identifier index, if it has been built.
    pub fn id_index(&self) -> Option<&IdIndex> {
        self.id_index.as_ref()
    }

    /// Names of the columns with a bitmap index attached.
    pub fn indexed_columns(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.indexes.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// The attached bitmap indexes in name order, without draining them —
    /// the borrow the persistence layer serializes from.
    pub fn index_entries(&self) -> Vec<(&str, &BitmapIndex)> {
        let mut out: Vec<(&str, &BitmapIndex)> = self
            .indexes
            .iter()
            .map(|(n, idx)| (n.as_str(), idx))
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// Pre-populate the zone-map cache with a persisted map, keyed by its
    /// own chunk size. Later chunked queries at that chunk size reuse it
    /// instead of re-scanning the column.
    pub fn attach_zone_maps(&self, name: impl Into<String>, maps: Arc<ZoneMaps>) {
        let key = (name.into(), maps.chunk_rows().max(1));
        lock(&self.zone_maps).insert(key, maps);
    }

    /// Total size of the attached bitmap indexes in bytes.
    pub fn index_size_bytes(&self) -> usize {
        self.indexes.values().map(BitmapIndex::size_in_bytes).sum()
    }

    /// Approximate resident memory footprint of the dataset: raw column
    /// bytes plus every attached bitmap index, identifier index, and
    /// zone map built so far. This is the accounting unit of the
    /// [`crate::DatasetCache`] byte budget; zone maps built lazily *after* a
    /// dataset was admitted are not re-accounted there (they are bounded by
    /// `columns × size_of::<Zone>() × rows / chunk_rows`, a small fraction
    /// of the column bytes at practical chunk sizes).
    pub fn resident_size_bytes(&self) -> usize {
        self.table.byte_len()
            + self.index_size_bytes()
            + self.id_index.as_ref().map_or(0, IdIndex::size_in_bytes)
            + lock(&self.zone_maps)
                .values()
                .map(|z| z.size_in_bytes())
                .sum::<usize>()
    }

    /// Evaluate a compound Boolean range query with the compiled engine,
    /// using indexes when available.
    pub fn query(&self, expr: &QueryExpr) -> Result<Selection> {
        fastbit::compile::evaluate(expr, self, ExecStrategy::Auto).map_err(DataStoreError::from)
    }

    /// Evaluate a textual query such as `"px > 8.872e10 && y > 0"`.
    pub fn query_str(&self, text: &str) -> Result<Selection> {
        let expr = fastbit::parse_query(text)?;
        self.query(&expr)
    }

    /// Select the rows whose particle identifier appears in `ids`. Uses the
    /// identifier index when built, otherwise falls back to a scan.
    pub fn select_ids(&self, ids: &[u64]) -> Result<Selection> {
        match &self.id_index {
            Some(idx) => Ok(idx.select(ids)),
            None => {
                let column = self.table.id_column("id")?;
                Ok(fastbit::scan::scan_id_search(column, ids))
            }
        }
    }

    /// The particle identifiers of the selected rows.
    pub fn ids_of(&self, selection: &Selection) -> Result<Vec<u64>> {
        let ids = self.table.id_column("id")?;
        Ok(selection.gather_u64(ids))
    }

    /// Histogram computation facade bound to this dataset.
    pub fn hist_engine(&self) -> HistogramEngine<'_, Self> {
        HistogramEngine::new(self)
    }

    /// Extract the selected rows into a new (small) table for downstream
    /// processing — the data-subsetting path of the paper's pipeline.
    pub fn extract(&self, selection: &Selection) -> ParticleTable {
        self.table.gather_rows(&selection.to_rows())
    }
}

impl ColumnProvider for Dataset {
    fn num_rows(&self) -> usize {
        self.table.num_rows()
    }

    fn column(&self, name: &str) -> Option<&[f64]> {
        self.table.column(name).and_then(|c| c.data.as_float())
    }

    fn index(&self, name: &str) -> Option<&BitmapIndex> {
        self.indexes.get(name)
    }

    fn zone_maps(&self, name: &str, chunk_rows: usize) -> Option<Arc<ZoneMaps>> {
        let data = self.column(name)?;
        let mut cache = lock(&self.zone_maps);
        Some(Arc::clone(
            cache
                .entry((name.to_string(), chunk_rows.max(1)))
                .or_insert_with(|| Arc::new(ZoneMaps::build(data, chunk_rows))),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use fastbit::ValueRange;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(21);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e-3)).collect();
        let px: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e11)).collect();
        let id: Vec<u64> = (0..n as u64).collect();
        let table = ParticleTable::from_columns(vec![
            Column::float("x", x),
            Column::float("px", px),
            Column::id("id", id),
        ])
        .unwrap();
        Dataset::from_table(table, 7)
    }

    #[test]
    fn query_with_and_without_indexes_agrees() {
        let mut d = dataset(5000);
        let expr = fastbit::parse_query("px > 5e10 && x < 5e-4").unwrap();
        let unindexed = d.query(&expr).unwrap();
        d.build_indexes(&Binning::EqualWidth { bins: 64 }).unwrap();
        assert_eq!(d.indexed_columns(), vec!["px", "x"]);
        let indexed = d.query(&expr).unwrap();
        assert_eq!(unindexed.to_rows(), indexed.to_rows());
        assert!(d.index_size_bytes() > 0);
    }

    #[test]
    fn query_str_parses_and_evaluates() {
        let d = dataset(1000);
        let sel = d.query_str("px > 9.5e10").unwrap();
        let expected = d
            .column("px")
            .unwrap()
            .iter()
            .filter(|&&v| v > 9.5e10)
            .count();
        assert_eq!(sel.count() as usize, expected);
        assert!(d.query_str("px >").is_err());
    }

    #[test]
    fn id_selection_with_and_without_index() {
        let mut d = dataset(2000);
        let wanted = vec![5u64, 100, 1999, 4242];
        let scanned = d.select_ids(&wanted).unwrap();
        d.build_id_index().unwrap();
        let indexed = d.select_ids(&wanted).unwrap();
        assert_eq!(scanned.to_rows(), indexed.to_rows());
        assert_eq!(indexed.to_rows(), vec![5, 100, 1999]);
        assert_eq!(d.ids_of(&indexed).unwrap(), vec![5, 100, 1999]);
    }

    #[test]
    fn extract_builds_subset_table() {
        let d = dataset(100);
        let sel = d
            .query(&QueryExpr::pred("px", ValueRange::gt(5e10)))
            .unwrap();
        let sub = d.extract(&sel);
        assert_eq!(sub.num_rows() as u64, sel.count());
        assert!(sub.float_column("px").unwrap().iter().all(|&v| v > 5e10));
    }

    #[test]
    fn hist_engine_reads_through_provider() {
        let mut d = dataset(3000);
        d.build_indexes(&Binning::EqualWidth { bins: 32 }).unwrap();
        let h = d
            .hist_engine()
            .hist2d(
                "x",
                "px",
                &fastbit::hist::BinSpec::Uniform(32),
                &fastbit::hist::BinSpec::Uniform(32),
                None,
                fastbit::ExecStrategy::Auto,
            )
            .unwrap();
        assert_eq!(h.total(), 3000);
    }

    #[test]
    fn zone_maps_are_cached_and_chunked_queries_agree() {
        let d = dataset(5000);
        let a = d.zone_maps("px", 512).unwrap();
        let b = d.zone_maps("px", 512).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request served from the cache");
        assert_eq!(a.num_chunks(), 10);
        assert!(d.zone_maps("id", 512).is_none(), "id is not a float column");
        // A clone shares the cache.
        let c = d.clone().zone_maps("px", 512).unwrap();
        assert!(Arc::ptr_eq(&a, &c));

        let expr = fastbit::parse_query("px > 5e10 && x < 5e-4").unwrap();
        let sequential = d.query(&expr).unwrap();
        let exec = fastbit::ParExec::new(4, 512);
        let chunked = fastbit::par::evaluate_chunked(&expr, &d, &exec).unwrap();
        assert_eq!(chunked.to_rows(), sequential.to_rows());
        assert!(exec.stats().queries >= 1);
    }
}
