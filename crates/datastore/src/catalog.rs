//! Catalogs: directories of timestep files.
//!
//! A catalog is the unit the parallel experiments distribute over "nodes":
//! each worker is statically assigned a strided subset of the timestep files
//! and processes them independently, exactly as the paper assigns one HDF5
//! file per Cray XT4 node. As the paper's HDF5-FastQuery file holds a
//! timestep's data and its FastBit indexes together, one
//! `timestep_NNNNN.vdx` file holds a timestep's columns, bitmap indexes
//! (both encodings, the range one under the store's budget), identifier
//! index and zone maps: a [`crate::store`] segment, written and validated by
//! the store's codec, so every byte a catalog reads passes the segment
//! validator. The file is the only copy of its timestep: a corrupt one is a
//! typed error, never healed and never answered with rows.
//!
//! An attached [`Store`] is the write-back policy: a full indexed load of a
//! file written without indexes builds them, and the file is rewritten in
//! place, so the next process start serves it as is.

use std::path::{Path, PathBuf};

use fastbit::IdIndex;
use histogram::Binning;

use crate::dataset::Dataset;
use crate::error::{DataStoreError, Result};
use crate::store::{self, Store, STORE_RANGE_ENCODING_MAX_RATIO};
use crate::table::ParticleTable;

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
    /// Optional write-back policy for full indexed loads.
    store: Option<Store>,
}

/// The name of timestep `step`'s file in a catalog directory.
fn file_name(step: usize) -> String {
    format!("timestep_{step:05}.vdx")
}

/// The step whose file is named `name`: only [`file_name`]'s own spelling
/// counts, so `timestep_1.vdx` or `timestep_+1.vdx` is no second step 1.
fn step_of(name: &str) -> Option<usize> {
    let step = name
        .strip_prefix("timestep_")?
        .strip_suffix(".vdx")?
        .parse()
        .ok()?;
    (file_name(step) == name).then_some(step)
}

/// Whether `name` is a temp file a crashed timestep write left behind
/// (`timestep_NNNNN.vdx.<pid>.<n>.tmp`, see [`store::write_atomically`]).
fn is_torn_write(name: &str) -> bool {
    name.starts_with("timestep_") && name.contains(".vdx.") && name.ends_with(".tmp")
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

    /// Open an existing catalog directory, discovering every timestep file
    /// and sweeping the temp files a crashed write left behind: temp files
    /// are never read, so a torn write costs at most a rewrite.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let mut entries = Vec::new();
        for item in std::fs::read_dir(&dir)? {
            let path = item?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if is_torn_write(name) {
                std::fs::remove_file(&path).ok();
            } else if let Some(step) = step_of(name) {
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

    /// Open an existing catalog directory with a [`Store`] attached: a full
    /// indexed load of a timestep written without indexes builds them and
    /// rewrites its file, so the next process start serves it as is.
    /// `store_dir` is neither created nor read (see [`Store::open`]).
    pub fn open_with_store(dir: impl Into<PathBuf>, store_dir: impl Into<PathBuf>) -> Result<Self> {
        let mut catalog = Self::open(dir)?;
        catalog.store = Some(Store::open(store_dir)?);
        Ok(catalog)
    }

    /// Attach a write-back policy (replacing any previous one).
    pub fn attach_store(&mut self, store: Store) {
        self.store = Some(store);
    }

    /// The attached write-back policy, when one is configured.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Register the attached store's counters into a metrics registry as
    /// `vdx_store_*` collectors. No-op without a store.
    pub fn register_metrics(self: &std::sync::Arc<Self>, registry: &obs::Registry) {
        if self.store.is_none() {
            return;
        }
        for (name, help, pick) in [
            (
                "vdx_store_hits_total",
                "Full loads served from the timestep file as it was.",
                0usize,
            ),
            (
                "vdx_store_misses_total",
                "Full loads that built indexes and rewrote the timestep file.",
                1,
            ),
            (
                "vdx_store_bytes_written_total",
                "Timestep file bytes rewritten over the store lifetime.",
                2,
            ),
            (
                "vdx_store_indexes_built_total",
                "Bitmap indexes built because a full load found none in the file.",
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

    /// Write a timestep's particle table into the catalog as one segment
    /// file, written to a temp file and renamed into place. With
    /// `index_binning`, the file also holds the columns' bitmap indexes —
    /// with the range encoding where [`STORE_RANGE_ENCODING_MAX_RATIO`]
    /// allows — and the identifier index: the whole segment a full load
    /// serves. This is the "one-time preprocessing" stage of the paper's
    /// Figure 1.
    pub fn write_timestep(
        &mut self,
        step: usize,
        table: &ParticleTable,
        index_binning: Option<&Binning>,
    ) -> Result<()> {
        let mut dataset = Dataset::from_table(table.clone(), step);
        if let Some(binning) = index_binning {
            dataset.build_indexes(binning)?;
            dataset.build_range_encodings_budgeted(STORE_RANGE_ENCODING_MAX_RATIO);
            // The identifier index enables ID IN (...) tracking queries.
            if table.id_column("id").is_ok() {
                dataset.build_id_index()?;
            }
        }
        let path = self.dir.join(file_name(step));
        store::write_atomically(&path, &store::encode_segment(&dataset), false)?;
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
    /// With a [`Store`] attached, a full indexed load of a file that holds
    /// no bitmap index builds what it lacks — indexes with the store's
    /// binning, their budgeted range encodings and the identifier index —
    /// and rewrites the file (synced temp, then rename), a store miss; any other
    /// full indexed load is a hit and writes nothing. A file that fails
    /// validation is [`DataStoreError::Store`], store or not.
    pub fn load(
        &self,
        step: usize,
        projection: Option<&[&str]>,
        with_indexes: bool,
    ) -> Result<Dataset> {
        let _load = obs::span("load");
        obs::note("step", || step.to_string());
        let entry = self.entry(step)?;
        match &self.store {
            Some(store) if projection.is_none() && with_indexes => load_full(entry, store),
            _ => read(entry, projection, with_indexes),
        }
    }

    /// Load only timestep `step`'s identifier index — what an `ID IN (…)`
    /// count needs — reading the header, the section table, meta and the
    /// id-index section of its file and no column. A file without one falls
    /// back to [`Catalog::load`]'s full load with a store attached (which
    /// builds and writes the index back) and to the identifier column,
    /// indexed on the fly, without one. With a store attached, an index
    /// read from the file counts as a hit.
    pub fn load_id_index(&self, step: usize) -> Result<IdIndex> {
        let _load = obs::span("load");
        obs::note("step", || step.to_string());
        obs::note("part", || "id_index".to_string());
        let entry = self.entry(step)?;
        let found = store::read_segment_id_index(&entry.path, step);
        if let Some(idx) = noting_segment_error(found)? {
            if let Some(store) = &self.store {
                store.note_hit();
            }
            return Ok(idx);
        }
        let dataset = match &self.store {
            Some(store) => load_full(entry, store)?,
            None => read(entry, Some(&["id"]), false)?,
        };
        match dataset.id_index() {
            Some(idx) => Ok(idx.clone()),
            None => Ok(IdIndex::build(dataset.table().id_column("id")?)),
        }
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

/// A full indexed load with a store attached: the file as it is when it
/// holds a bitmap index, else the file completed and written back.
fn load_full(entry: &TimestepEntry, store: &Store) -> Result<Dataset> {
    let mut dataset = read(entry, None, true)?;
    if !dataset.indexed_columns().is_empty() {
        store.note_hit();
        return Ok(dataset);
    }
    let built = dataset.build_indexes_lenient(store.binning());
    dataset.build_range_encodings_budgeted(STORE_RANGE_ENCODING_MAX_RATIO);
    let builds_id_index = dataset.id_index().is_none() && dataset.table().id_column("id").is_ok();
    if builds_id_index {
        dataset.build_id_index()?;
    }
    if built == 0 && !builds_id_index {
        store.note_hit();
        return Ok(dataset);
    }
    // Best-effort write-back: a full disk must not fail the query. Durable,
    // because it replaces the only copy of the timestep.
    let bytes = store::encode_segment(&dataset);
    let written = store::write_atomically(&entry.path, &bytes, true).is_ok();
    store.note_write_back(built as u64, if written { bytes.len() as u64 } else { 0 });
    Ok(dataset)
}

/// A segment read's result, noting a failed validation's kind on the open
/// `load` span as `segment_error=<kind>`.
fn noting_segment_error<T>(read: store::StoreResult<T>) -> Result<T> {
    read.map_err(|e| {
        obs::note("segment_error", || e.kind().to_string());
        e.into()
    })
}

/// Read `entry`'s file through the segment decoder, decoding only what
/// `projection` and `with_indexes` select.
fn read(entry: &TimestepEntry, projection: Option<&[&str]>, with_indexes: bool) -> Result<Dataset> {
    let dataset = noting_segment_error(store::read_segment(
        &entry.path,
        entry.step,
        projection,
        with_indexes,
    ))?;
    for &name in projection.unwrap_or_default() {
        if dataset.table().column(name).is_none() {
            return Err(DataStoreError::UnknownColumn(name.to_string()));
        }
    }
    Ok(dataset)
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

        // A second process start: the file holds it all, nothing is rebuilt.
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

        // One copy per timestep: the store made no directory of its own.
        assert!(!store_dir.exists());

        // The file is the only copy, so a corrupt one is a typed error:
        // never healed, never answered with rows, never counted.
        let path = warm.entry(0).unwrap().path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let broken = Catalog::open_with_store(&dir, &store_dir).unwrap();
        for _ in 0..2 {
            let err = broken.load(0, None, true).unwrap_err();
            assert!(matches!(err, DataStoreError::Store(_)), "{err}");
        }
        assert_eq!(
            broken.store().unwrap().stats(),
            crate::StoreStats::default()
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "not rewritten");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewriting_a_timestep_replaces_its_written_back_file() {
        let dir = temp_catalog_dir("store_rewrite");
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(0, &table(100, 1), None).unwrap();
        cat.attach_store(Store::open(dir.join("store")).unwrap());
        let first = cat.load(0, None, true).unwrap();
        assert_eq!(cat.store().unwrap().stats().misses, 1, "written back");

        // Rewriting the timestep replaces the one file, so nothing stale is
        // left to serve: the next load builds (and writes back) the new data.
        cat.write_timestep(0, &table(250, 2), None).unwrap();
        let second = cat.load(0, None, true).unwrap();
        assert_eq!(second.num_particles(), 250);
        assert_ne!(first.num_particles(), second.num_particles());
        assert_eq!(cat.store().unwrap().stats().misses, 2, "written back");
        assert_eq!(
            cat.load(0, None, true).unwrap().num_particles(),
            250,
            "the written-back file holds the rewritten data"
        );
        assert_eq!(cat.store().unwrap().stats().hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_the_canonical_file_name_is_a_timestep() {
        let dir = temp_catalog_dir("stray_names");
        let mut cat = Catalog::create(&dir).unwrap();
        cat.write_timestep(1, &table(50, 1), None).unwrap();
        let path = cat.entry(1).unwrap().path.clone();
        for stray in ["timestep_1.vdx", "timestep_+1.vdx"] {
            std::fs::copy(&path, dir.join(stray)).unwrap();
        }
        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.steps(), vec![1]);
        assert_eq!(reopened.entry(1).unwrap().path, path);
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
