//! Catalogs: directories of timestep files.
//!
//! A catalog is the unit the parallel experiments distribute over "nodes":
//! each worker is statically assigned a strided subset of the timestep files
//! and processes them independently, exactly as the paper assigns one HDF5
//! file per Cray XT4 node. As the paper's HDF5-FastQuery file holds a
//! timestep's data and its FastBit indexes together, one
//! `timestep_NNNNN.vdx` file holds a timestep's columns, bitmap indexes and
//! identifier index: a [`crate::store`] segment, written and validated by
//! the store's codec, so every byte a catalog reads passes the segment
//! validator.

use std::path::{Path, PathBuf};

use fastbit::IdIndex;
use histogram::Binning;

use crate::dataset::Dataset;
use crate::error::{DataStoreError, Result};
use crate::store::{self, Store};
use crate::table::ParticleTable;

/// What a store read gave: its value, or `None` when the caller must fall
/// back to raw ingestion. A segment that exists but failed validation is
/// counted as a store miss (the fallback's save atomically replaces it).
fn from_store<T>(store: &Store, read: crate::store::StoreResult<Option<T>>) -> Option<T> {
    match read {
        Ok(Some(value)) => {
            obs::note("source", || "store".to_string());
            Some(value)
        }
        Ok(None) => None,
        Err(e) => {
            obs::note("segment_error", || e.kind().to_string());
            store.note_miss();
            None
        }
    }
}

/// One timestep known to a catalog.
#[derive(Debug, Clone)]
pub struct TimestepEntry {
    /// Timestep number.
    pub step: usize,
    /// Path of the timestep's segment file.
    pub path: PathBuf,
}

/// A directory of timestep files, ordered by timestep number.
#[derive(Debug)]
pub struct Catalog {
    dir: PathBuf,
    entries: Vec<TimestepEntry>,
    /// Optional persistent segment store consulted before raw ingestion.
    store: Option<Store>,
}

/// The name of timestep `step`'s file in a catalog directory.
fn file_name(step: usize) -> String {
    format!("timestep_{step:05}.vdx")
}

impl Catalog {
    /// Create (or reuse) an empty catalog directory.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            entries: Vec::new(),
            store: None,
        })
    }

    /// Open an existing catalog directory, discovering every timestep file.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let mut entries = Vec::new();
        for item in std::fs::read_dir(&dir)? {
            let path = item?.path();
            let step = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("timestep_"))
                .and_then(|s| s.strip_suffix(".vdx"))
                .and_then(|s| s.parse::<usize>().ok());
            if let Some(step) = step {
                entries.push(TimestepEntry { step, path });
            }
        }
        entries.sort_by_key(|e| e.step);
        Ok(Self {
            dir,
            entries,
            store: None,
        })
    }

    /// Open an existing catalog directory and attach a persistent segment
    /// store at `store_dir` (created if absent): full-column indexed loads
    /// check the store before ingesting raw data, and cold loads write their
    /// segment back so the next process start is warm.
    pub fn open_with_store(dir: impl Into<PathBuf>, store_dir: impl Into<PathBuf>) -> Result<Self> {
        let mut catalog = Self::open(dir)?;
        catalog.store = Some(Store::open(store_dir)?);
        Ok(catalog)
    }

    /// Attach a persistent segment store (replacing any previous one).
    pub fn attach_store(&mut self, store: Store) {
        self.store = Some(store);
    }

    /// The attached segment store, when one is configured.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Register the attached segment store's counters into a metrics
    /// registry as `vdx_store_*` collectors. No-op without a store.
    pub fn register_metrics(self: &std::sync::Arc<Self>, registry: &obs::Registry) {
        if self.store.is_none() {
            return;
        }
        for (name, help, pick) in [
            (
                "vdx_store_hits_total",
                "Store loads answered from a valid segment file.",
                0usize,
            ),
            (
                "vdx_store_misses_total",
                "Store loads that fell back to raw ingestion.",
                1,
            ),
            (
                "vdx_store_bytes_written_total",
                "Segment bytes written over the store lifetime.",
                2,
            ),
            (
                "vdx_store_indexes_built_total",
                "Bitmap indexes built because a cold load found none to reuse.",
                3,
            ),
        ] {
            let catalog = std::sync::Arc::clone(self);
            registry.counter_fn(name, help, &[], move || {
                let s = catalog.store().map(|s| s.stats()).unwrap_or_default();
                [s.hits, s.misses, s.bytes_written, s.indexes_built][pick]
            });
        }
    }

    /// Directory backing this catalog.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of timesteps.
    pub fn num_timesteps(&self) -> usize {
        self.entries.len()
    }

    /// The timestep numbers in ascending order.
    pub fn steps(&self) -> Vec<usize> {
        self.entries.iter().map(|e| e.step).collect()
    }

    /// All entries in ascending timestep order.
    pub fn entries(&self) -> &[TimestepEntry] {
        &self.entries
    }

    /// Metadata for one timestep.
    pub fn entry(&self, step: usize) -> Result<&TimestepEntry> {
        self.entries
            .iter()
            .find(|e| e.step == step)
            .ok_or(DataStoreError::UnknownTimestep(step))
    }

    /// Write a timestep's particle table (and, when `index_binning` is given,
    /// its bitmap indexes and identifier index) into the catalog as one
    /// segment file, written to a temp file and renamed into place. This is
    /// the "one-time preprocessing" stage of the paper's Figure 1.
    pub fn write_timestep(
        &mut self,
        step: usize,
        table: &ParticleTable,
        index_binning: Option<&Binning>,
    ) -> Result<()> {
        let mut dataset = Dataset::from_table(table.clone(), step);
        if let Some(binning) = index_binning {
            dataset.build_indexes(binning)?;
            // The identifier index enables ID IN (...) tracking queries.
            if table.id_column("id").is_ok() {
                dataset.build_id_index()?;
            }
        }
        let path = self.dir.join(file_name(step));
        store::write_atomically(&path, &store::encode_segment(&dataset))?;
        // The timestep changed: any persisted segment for this step is now
        // stale and must never be served again.
        if let Some(store) = &self.store {
            store.invalidate(step);
        }
        self.entries.retain(|e| e.step != step);
        self.entries.push(TimestepEntry { step, path });
        self.entries.sort_by_key(|e| e.step);
        Ok(())
    }

    /// Load one timestep as a [`Dataset`].
    ///
    /// * `projection` restricts the columns read from disk (pass `None` for
    ///   all columns); a named column the timestep lacks is
    ///   [`DataStoreError::UnknownColumn`].
    /// * `with_indexes` additionally loads those columns' bitmap indexes,
    ///   and the identifier index when `id` is read, when the file has them.
    ///
    /// With a [`Store`] attached, full-column indexed loads consult it
    /// first: a valid segment is returned directly (columns, indexes,
    /// identifier index and zone maps, zero rebuilt); on a miss — or a
    /// corrupt segment, which the atomic re-save below self-heals — the
    /// catalog file is ingested, any missing indexes are built with the
    /// store's binning, and the result is written back (temp-then-rename) so
    /// the next process start skips all of that work.
    pub fn load(
        &self,
        step: usize,
        projection: Option<&[&str]>,
        with_indexes: bool,
    ) -> Result<Dataset> {
        let _load = obs::span("load");
        obs::note("step", || step.to_string());
        let entry = self.entry(step)?;
        let store = match &self.store {
            Some(store) if projection.is_none() && with_indexes => store,
            _ => {
                obs::note("source", || "raw".to_string());
                return self.load_raw(entry, projection, with_indexes);
            }
        };
        if let Some(dataset) = from_store(store, store.load(step)) {
            return Ok(dataset);
        }
        self.ingest_and_persist(entry, store)
    }

    /// Load only timestep `step`'s identifier index — what an `ID IN (…)`
    /// count needs — reading no column when a valid segment holds the index.
    ///
    /// With a [`Store`] attached, the store segment's header, table, meta and
    /// id-index sections are read and validated ([`Store::load_id_index`]);
    /// when there is no segment, or it is invalid, this falls back to the
    /// full raw ingestion of [`Catalog::load`], which rewrites the segment.
    /// Without a store, the catalog file's id-index section is read the same
    /// way (or, lacking one, the identifier column, indexed on the fly).
    pub fn load_id_index(&self, step: usize) -> Result<IdIndex> {
        let _load = obs::span("load");
        obs::note("step", || step.to_string());
        obs::note("part", || "id_index".to_string());
        let entry = self.entry(step)?;
        let dataset = match &self.store {
            Some(store) => match from_store(store, store.load_id_index(step)) {
                Some(idx) => return Ok(idx),
                None => self.ingest_and_persist(entry, store)?,
            },
            None => {
                obs::note("source", || "raw".to_string());
                if let Some(idx) = store::read_segment_id_index(&entry.path, step)? {
                    return Ok(idx);
                }
                self.load_raw(entry, Some(&["id"]), false)?
            }
        };
        match dataset.id_index() {
            Some(idx) => Ok(idx.clone()),
            None => Ok(IdIndex::build(dataset.table().id_column("id")?)),
        }
    }

    /// The cold half of a store-backed load: ingest the catalog file, build
    /// whatever the segment should carry, and write it back.
    fn ingest_and_persist(&self, entry: &TimestepEntry, store: &Store) -> Result<Dataset> {
        obs::note("source", || "raw".to_string());
        let mut dataset = self.load_raw(entry, None, true)?;
        if dataset.indexed_columns().is_empty() {
            let built = dataset.build_indexes_lenient(store.binning());
            store.note_indexes_built(built as u64);
        }
        // Freshly built and catalog-loaded indexes are equality-only at this
        // point; derive the cumulative (range) encoding from their bitmaps —
        // where the materialization budget allows — before write-back, so
        // the persisted segment (format v2 when any column qualifies)
        // serves per-query encoding selection on every later session.
        dataset.build_range_encodings_budgeted(crate::store::STORE_RANGE_ENCODING_MAX_RATIO);
        if dataset.id_index().is_none() && dataset.table().id_column("id").is_ok() {
            dataset.build_id_index()?;
        }
        // Best-effort write-back: a full disk must not fail the query.
        store.save(&dataset).ok();
        Ok(dataset)
    }

    /// The raw (store-less) load path: the catalog file, read through the
    /// segment decoder.
    fn load_raw(
        &self,
        entry: &TimestepEntry,
        projection: Option<&[&str]>,
        with_indexes: bool,
    ) -> Result<Dataset> {
        let dataset = store::read_segment(&entry.path, entry.step, projection, with_indexes)?;
        for &name in projection.unwrap_or_default() {
            if dataset.table().column(name).is_none() {
                return Err(DataStoreError::UnknownColumn(name.to_string()));
            }
        }
        Ok(dataset)
    }

    /// Total on-disk size of the catalog in bytes (data plus indexes).
    pub fn total_size_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for e in &self.entries {
            total += std::fs::metadata(&e.path)?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn table(n: usize, seed: u64) -> ParticleTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let px: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e11)).collect();
        let id: Vec<u64> = (0..n as u64).collect();
        ParticleTable::from_columns(vec![
            Column::float("x", x),
            Column::float("px", px),
            Column::id("id", id),
        ])
        .unwrap()
    }

    fn temp_catalog_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vdx_catalog_test_{tag}_{}", std::process::id()))
    }

    #[test]
    fn write_open_and_load_roundtrip() {
        let dir = temp_catalog_dir("roundtrip");
        let mut cat = Catalog::create(&dir).unwrap();
        for step in [3usize, 1, 2] {
            cat.write_timestep(
                step,
                &table(200, step as u64),
                Some(&Binning::EqualWidth { bins: 16 }),
            )
            .unwrap();
        }
        assert_eq!(cat.steps(), vec![1, 2, 3]);

        // Re-open from disk and verify discovery.
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.steps(), vec![1, 2, 3]);
        assert_eq!(
            reopened.entry(2).unwrap().path,
            dir.join("timestep_00002.vdx")
        );
        assert!(reopened.entry(9).is_err());
        assert!(reopened.total_size_bytes().unwrap() > 0);

        let ds = reopened.load(2, None, true).unwrap();
        assert_eq!(ds.num_particles(), 200);
        assert_eq!(ds.step(), 2);
        assert_eq!(ds.indexed_columns(), vec!["px", "x"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn projection_load_restricts_columns_and_indexes() {
        let dir = temp_catalog_dir("projection");
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(0, &table(150, 5), Some(&Binning::EqualWidth { bins: 8 }))
            .unwrap();
        let ds = cat.load(0, Some(&["px"]), true).unwrap();
        assert_eq!(ds.table().column_names(), vec!["px"]);
        assert_eq!(ds.indexed_columns(), vec!["px"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_without_indexes_still_queries_by_scan() {
        let dir = temp_catalog_dir("noindex");
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(0, &table(300, 9), None).unwrap();
        let ds = cat.load(0, None, true).unwrap();
        assert!(ds.indexed_columns().is_empty());
        let sel = ds.query_str("px > 5e10").unwrap();
        let expected = table(300, 9)
            .float_column("px")
            .unwrap()
            .iter()
            .filter(|&&v| v > 5e10)
            .count();
        assert_eq!(sel.count() as usize, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_backed_loads_warm_up_across_reopens() {
        let dir = temp_catalog_dir("store_cold_warm");
        let store_dir = dir.join("store");
        // No indexes in the catalog file: the cold store load must build them.
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(0, &table(400, 3), None).unwrap();
        drop(cat);

        let cold = Catalog::open_with_store(&dir, &store_dir).unwrap();
        let ds = cold.load(0, None, true).unwrap();
        assert_eq!(
            ds.indexed_columns(),
            vec!["px", "x"],
            "cold load built them"
        );
        assert!(ds.id_index().is_some());
        let cold_rows = ds.query_str("px > 5e10").unwrap().to_rows();
        let stats = cold.store().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert!(stats.indexes_built >= 2 && stats.bytes_written > 0);

        // A second process start: the segment is there, nothing is rebuilt.
        let warm = Catalog::open_with_store(&dir, &store_dir).unwrap();
        let ds = warm.load(0, None, true).unwrap();
        assert_eq!(ds.indexed_columns(), vec!["px", "x"], "indexes reloaded");
        assert!(ds.id_index().is_some());
        assert_eq!(ds.query_str("px > 5e10").unwrap().to_rows(), cold_rows);
        let stats = warm.store().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!((stats.indexes_built, stats.bytes_written), (0, 0));

        // Projection and index-less loads bypass the store untouched.
        let proj = warm.load(0, Some(&["px"]), true).unwrap();
        assert_eq!(proj.table().column_names(), vec!["px"]);
        assert_eq!(warm.store().unwrap().stats().hits, 1);

        // A corrupt segment falls back to raw ingestion and self-heals.
        let segment = warm.store().unwrap().segment_path(0);
        let mut bytes = std::fs::read(&segment).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&segment, &bytes).unwrap();
        let healed = Catalog::open_with_store(&dir, &store_dir).unwrap();
        let ds = healed.load(0, None, true).unwrap();
        assert_eq!(ds.query_str("px > 5e10").unwrap().to_rows(), cold_rows);
        let stats = healed.store().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let reloaded = healed.load(0, None, true).unwrap();
        assert_eq!(
            reloaded.query_str("px > 5e10").unwrap().to_rows(),
            cold_rows
        );
        assert_eq!(healed.store().unwrap().stats().hits, 1, "rewritten segment");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_timestep_invalidates_its_store_segment() {
        let dir = temp_catalog_dir("store_invalidate");
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(0, &table(100, 1), None).unwrap();
        cat.attach_store(Store::open(dir.join("store")).unwrap());
        let first = cat.load(0, None, true).unwrap();
        assert!(cat.store().unwrap().contains(0), "segment written back");

        // Rewriting the raw timestep must drop the now-stale segment, so the
        // next load serves (and re-persists) the new data.
        cat.write_timestep(0, &table(250, 2), None).unwrap();
        assert!(!cat.store().unwrap().contains(0), "stale segment dropped");
        let second = cat.load(0, None, true).unwrap();
        assert_eq!(second.num_particles(), 250);
        assert_ne!(first.num_particles(), second.num_particles());
        assert!(cat.store().unwrap().contains(0), "fresh segment re-saved");
        assert_eq!(
            cat.load(0, None, true).unwrap().num_particles(),
            250,
            "the re-saved segment holds the rewritten data"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_timestep_replaces_the_entry() {
        let dir = temp_catalog_dir("rewrite");
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(4, &table(50, 1), None).unwrap();
        cat.write_timestep(4, &table(75, 2), None).unwrap();
        assert_eq!(cat.num_timesteps(), 1);
        assert_eq!(cat.load(4, None, false).unwrap().num_particles(), 75);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A table whose `x` is `values` and whose ids count from 0.
    fn x_table(values: Vec<f64>) -> ParticleTable {
        let id: Vec<u64> = (0..values.len() as u64).collect();
        ParticleTable::from_columns(vec![Column::float("x", values), Column::id("id", id)]).unwrap()
    }

    #[test]
    fn rewriting_without_indexes_removes_the_old_sidecars() {
        // One file per timestep: a rewrite without indexes leaves none of
        // the old ones to answer for the new rows.
        let dir = temp_catalog_dir("stale_sidecars");
        let mut cat = Catalog::create(&dir).unwrap();
        let ramp: Vec<f64> = (0..1000).map(f64::from).collect();
        cat.write_timestep(
            0,
            &x_table(ramp.clone()),
            Some(&Binning::EqualWidth { bins: 16 }),
        )
        .unwrap();
        // The same values in reverse row order, written without indexes.
        cat.write_timestep(0, &x_table(ramp.into_iter().rev().collect()), None)
            .unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec!["timestep_00000.vdx"]);

        let reopened = Catalog::open(&dir).unwrap();
        let ds = reopened.load(0, None, true).unwrap();
        assert!(ds.indexed_columns().is_empty() && ds.id_index().is_none());
        let rows = ds.query_str("x < 100").unwrap().to_rows();
        assert_eq!(rows, (900..1000).collect::<Vec<usize>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_sidecar_of_another_row_count_is_rejected() {
        let dir = temp_catalog_dir("foreign_sidecars");
        let mut cat = Catalog::create(&dir).unwrap();
        let binning = Binning::EqualWidth { bins: 16 };
        cat.write_timestep(0, &table(1000, 1), Some(&binning))
            .unwrap();
        cat.write_timestep(1, &table(500, 2), Some(&binning))
            .unwrap();
        // Step 1's file dropped in over step 0's from outside: its meta
        // records step 1, so no load of step 0 serves its 500 rows.
        std::fs::copy(&cat.entry(1).unwrap().path, &cat.entry(0).unwrap().path).unwrap();
        let reopened = Catalog::open(&dir).unwrap();
        let is_misplaced = |e: &DataStoreError| {
            matches!(e, DataStoreError::Store(crate::StoreError::Corrupt(m))
                if m == "segment for step 0 holds step 1")
        };
        for projection in [None, Some(&["px"][..])] {
            for with_indexes in [true, false] {
                let err = reopened.load(0, projection, with_indexes).unwrap_err();
                assert!(is_misplaced(&err), "{err}");
            }
        }
        let err = reopened.load_id_index(0).unwrap_err();
        assert!(is_misplaced(&err), "{err}");
        assert_eq!(reopened.load(1, None, true).unwrap().num_particles(), 500);
        std::fs::remove_dir_all(&dir).ok();
    }
}
