//! A sharded, byte-budgeted LRU cache of loaded [`Dataset`]s.
//!
//! The paper's premise is that the one-time WAH preprocessing makes repeated
//! interactive queries cheap — but only if the process answering them keeps
//! hot timesteps (columns *and* attached indexes) resident instead of
//! re-reading timestep files on every request. `DatasetCache` is that
//! serving-side layer: datasets are shared out as `Arc<Dataset>` so many
//! worker threads can evaluate queries against one resident copy, and the
//! total footprint is bounded by a configurable byte budget with per-shard
//! LRU eviction.
//!
//! Sharding: timestep `s` lives in shard `s % shards`, each shard owning an
//! equal slice of the byte budget behind its own mutex, so concurrent
//! requests for different timesteps rarely contend. Cold loads are
//! single-flight per step: the first requester marks the step in-flight and
//! reads from disk *without* holding the shard lock (hits for other resident
//! steps of the shard proceed concurrently), while later requesters of the
//! same step wait on the shard's condvar for that one read. Room is made
//! *before* a new entry is accounted, so the resident-byte counter — and
//! therefore its peak watermark — can never exceed the configured budget,
//! not even transiently.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};

use crate::catalog::Catalog;
use crate::dataset::Dataset;
use crate::error::Result;
use crate::lock;

/// Configuration of a [`DatasetCache`].
#[derive(Debug, Clone)]
pub struct DatasetCacheConfig {
    /// Total byte budget across all shards. The cache never holds more than
    /// this many resident bytes; a dataset larger than its shard's slice of
    /// the budget is served but not retained.
    pub max_bytes: usize,
    /// Number of independent LRU shards (at least 1).
    pub shards: usize,
}

impl Default for DatasetCacheConfig {
    fn default() -> Self {
        Self {
            // Enough for a handful of paper-scale timesteps; servers override.
            max_bytes: 256 << 20,
            shards: 8,
        }
    }
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetCacheStats {
    /// Lookups answered from a resident dataset.
    pub hits: u64,
    /// Lookups that had to load from disk.
    pub misses: u64,
    /// Datasets evicted to respect the byte budget (including datasets too
    /// large to retain at all).
    pub evictions: u64,
    /// Bytes currently resident across all shards.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the cache's lifetime.
    pub peak_resident_bytes: u64,
}

impl DatasetCacheStats {
    /// Fraction of lookups answered without touching disk (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    dataset: Arc<Dataset>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<usize, Entry>,
    bytes: usize,
    /// Steps currently being loaded from disk by some thread.
    loading: HashSet<usize>,
    /// Weak handles to recently loaded datasets that are no longer (or were
    /// never) retained under the budget but may still be alive in callers.
    /// Serving such a dataset costs no disk read and no budget — the memory
    /// exists regardless — and spares concurrent requesters of an oversized
    /// step from serializing into repeated full loads.
    recent: HashMap<usize, Weak<Dataset>>,
}

/// One shard's lock plus the condvar that announces finished loads.
///
/// Loaders wait on `loaded` with the guard [`lock`] returns, ignoring poison
/// the same way.
#[derive(Debug, Default)]
struct ShardState {
    shard: Mutex<Shard>,
    loaded: Condvar,
}

/// Sharded LRU cache of fully loaded (columns + indexes) timestep datasets.
#[derive(Debug)]
pub struct DatasetCache {
    shards: Vec<ShardState>,
    budget_per_shard: usize,
    max_bytes: usize,
    /// Monotonic logical clock driving LRU ordering.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident: AtomicU64,
    peak: AtomicU64,
}

impl DatasetCache {
    /// Create a cache with `config`'s budget and shard count.
    pub fn new(config: DatasetCacheConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| ShardState::default()).collect(),
            budget_per_shard: config.max_bytes / shards,
            max_bytes: config.max_bytes,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// The configured total byte budget.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Number of datasets currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(&s.shard).entries.len())
            .sum()
    }

    /// Whether no dataset is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether timestep `step` is currently resident (does not touch LRU
    /// order or the hit/miss counters).
    pub fn contains(&self, step: usize) -> bool {
        lock(&self.shard(step).shard).entries.contains_key(&step)
    }

    /// Drop every resident dataset.
    pub fn clear(&self) {
        for state in &self.shards {
            let mut shard = lock(&state.shard);
            let freed: usize = shard.entries.values().map(|e| e.bytes).sum();
            let entries = std::mem::take(&mut shard.entries);
            shard.recent.clear();
            shard.bytes = 0;
            self.resident.fetch_sub(freed as u64, Ordering::Relaxed);
            // As in `get_or_load`: the datasets are freed after the lock.
            drop(shard);
            drop(entries);
        }
    }

    /// Fetch timestep `step` of `catalog`, loading it (with every column and
    /// all its indexes) on a miss. The returned `Arc` stays valid even if
    /// the entry is evicted while in use.
    ///
    /// Concurrency: one thread per step performs the disk read (without the
    /// shard lock held); concurrent requesters of the same step wait for it
    /// and are counted as hits, while hits for other resident steps of the
    /// shard are never blocked by the load.
    pub fn get_or_load(&self, catalog: &Catalog, step: usize) -> Result<Arc<Dataset>> {
        let _cache = obs::span("dataset_cache");
        obs::note("step", || step.to_string());
        let state = self.shard(step);
        let mut shard = lock(&state.shard);
        loop {
            if let Some(entry) = shard.entries.get_mut(&step) {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::count("hit", 1);
                return Ok(Arc::clone(&entry.dataset));
            }
            if let Some(dataset) = shard.recent.get(&step).and_then(Weak::upgrade) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::count("hit", 1);
                return Ok(dataset);
            }
            if !shard.loading.contains(&step) {
                break;
            }
            shard = state
                .loaded
                .wait(shard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // This thread owns the load for `step`.
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::count("hit", 0);
        shard.loading.insert(step);
        drop(shard);
        let loaded = catalog.load(step, None, true).map(Arc::new);
        let mut shard = lock(&state.shard);
        shard.loading.remove(&step);
        let evicted = match &loaded {
            Ok(dataset) => {
                let evicted = self.admit(&mut shard, step, dataset);
                shard.recent.retain(|_, w| w.strong_count() > 0);
                shard.recent.insert(step, Arc::downgrade(dataset));
                evicted
            }
            Err(_) => Vec::new(),
        };
        drop(shard);
        state.loaded.notify_all();
        // Freeing a dataset is thousands of deallocations: the last reference
        // to an evicted one must not go while the shard is locked.
        drop(evicted);
        loaded
    }

    /// Timestep `step` if it is resident (or still alive in a caller since
    /// a recent load), without loading or admitting anything: one hit or
    /// one miss is counted either way, and a step another thread is still
    /// loading is a miss rather than a wait. For callers that can answer
    /// from less than a whole dataset when `step` is cold.
    pub fn get_resident(&self, step: usize) -> Option<Arc<Dataset>> {
        let _cache = obs::span("dataset_cache");
        obs::note("step", || step.to_string());
        let mut shard = lock(&self.shard(step).shard);
        let found = match shard.entries.get_mut(&step) {
            Some(entry) => {
                entry.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.dataset))
            }
            None => shard.recent.get(&step).and_then(Weak::upgrade),
        };
        drop(shard);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        obs::count("hit", u64::from(found.is_some()));
        found
    }

    /// Insert a freshly loaded dataset, evicting LRU entries *first* so the
    /// shard (and hence the whole cache) never holds more than its budget
    /// slice — the resident counter and its peak watermark cannot overshoot
    /// even transiently. A dataset larger than the slice itself is served
    /// but not retained (counted as an eviction). Returns the evicted
    /// datasets for the caller to drop once the shard lock is released.
    #[must_use = "evicted datasets are dropped outside the shard lock"]
    fn admit(&self, shard: &mut Shard, step: usize, dataset: &Arc<Dataset>) -> Vec<Arc<Dataset>> {
        let bytes = dataset.resident_size_bytes();
        let mut evicted = Vec::new();
        while shard.bytes + bytes > self.budget_per_shard && !shard.entries.is_empty() {
            evicted.push(self.evict_lru(shard));
        }
        if shard.bytes + bytes > self.budget_per_shard {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return evicted;
        }
        shard.entries.insert(
            step,
            Entry {
                dataset: Arc::clone(dataset),
                bytes,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
        shard.bytes += bytes;
        let resident = self.resident.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.peak.fetch_max(resident, Ordering::Relaxed);
        evicted
    }

    /// Compressed bitmap-index bytes per encoding — `(equality, range)` —
    /// summed over every resident dataset. The server reports these as
    /// `enc_equality_bytes` / `enc_range_bytes` so operators can see what
    /// the dual encoding costs in resident memory against what the
    /// `enc_*_queries` counters say it buys.
    pub fn encoding_bytes(&self) -> (u64, u64) {
        let mut equality = 0u64;
        let mut range = 0u64;
        for state in &self.shards {
            let shard = lock(&state.shard);
            for entry in shard.entries.values() {
                let (e, r) = entry.dataset.index_encoding_bytes();
                equality += e;
                range += r;
            }
        }
        (equality, range)
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> DatasetCacheStats {
        DatasetCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak.load(Ordering::Relaxed),
        }
    }

    /// Register this cache's effectiveness counters into a metrics registry
    /// as `vdx_dataset_cache_*` collectors.
    pub fn register_metrics(self: &Arc<Self>, registry: &obs::Registry) {
        for (event, pick) in [("hit", 0usize), ("miss", 1), ("eviction", 2)] {
            let cache = Arc::clone(self);
            registry.counter_fn(
                "vdx_dataset_cache_events_total",
                "Dataset cache lookups and evictions by outcome.",
                &[("event", event)],
                move || {
                    let s = cache.stats();
                    [s.hits, s.misses, s.evictions][pick]
                },
            );
        }
        let cache = Arc::clone(self);
        registry.gauge_fn(
            "vdx_dataset_cache_resident_bytes",
            "Bytes currently resident across all cache shards.",
            &[],
            move || cache.stats().resident_bytes as f64,
        );
        let cache = Arc::clone(self);
        registry.gauge_fn(
            "vdx_dataset_cache_peak_resident_bytes",
            "High-water mark of resident bytes over the cache lifetime.",
            &[],
            move || cache.stats().peak_resident_bytes as f64,
        );
        let cache = Arc::clone(self);
        registry.gauge_fn(
            "vdx_dataset_cache_budget_bytes",
            "Configured total byte budget of the dataset cache.",
            &[],
            move || cache.max_bytes() as f64,
        );
        let cache = Arc::clone(self);
        registry.gauge_fn(
            "vdx_dataset_cache_len",
            "Datasets currently resident in the cache.",
            &[],
            move || cache.len() as f64,
        );
    }

    fn shard(&self, step: usize) -> &ShardState {
        &self.shards[step % self.shards.len()]
    }

    /// Evict the least-recently-used entry of a non-empty shard and hand its
    /// dataset back, still alive.
    fn evict_lru(&self, shard: &mut Shard) -> Arc<Dataset> {
        let oldest = shard
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(&step, _)| step)
            .expect("non-empty shard");
        let evicted = shard.entries.remove(&oldest).expect("present");
        shard.bytes -= evicted.bytes;
        self.resident
            .fetch_sub(evicted.bytes as u64, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        evicted.dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::ParticleTable;
    use histogram::Binning;
    use std::path::PathBuf;

    fn table(n: usize, salt: u64) -> ParticleTable {
        let x: Vec<f64> = (0..n).map(|i| (i as u64 ^ salt) as f64).collect();
        let id: Vec<u64> = (0..n as u64).collect();
        ParticleTable::from_columns(vec![Column::float("x", x), Column::id("id", id)]).unwrap()
    }

    fn catalog(tag: &str, steps: usize, rows: usize) -> (Catalog, PathBuf) {
        let dir = std::env::temp_dir().join(format!("vdx_dscache_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cat = Catalog::create(&dir).unwrap();
        for step in 0..steps {
            cat.write_timestep(
                step,
                &table(rows, step as u64),
                Some(&Binning::EqualWidth { bins: 8 }),
            )
            .unwrap();
        }
        (cat, dir)
    }

    fn one_dataset_bytes(cat: &Catalog) -> usize {
        cat.load(0, None, true).unwrap().resident_size_bytes()
    }

    #[test]
    fn hits_after_first_load_and_shared_arcs() {
        let (cat, dir) = catalog("hits", 4, 200);
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: 64 << 20,
            shards: 2,
        });
        let a = cache.get_or_load(&cat, 1).unwrap();
        let b = cache.get_or_load(&cat, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit returns the resident dataset");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.resident_bytes > 0);
        assert_eq!(s.hit_rate(), 0.5);
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_is_enforced_with_lru_eviction() {
        let (cat, dir) = catalog("budget", 6, 500);
        let unit = one_dataset_bytes(&cat);
        // One shard, room for two datasets.
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: unit * 2 + unit / 2,
            shards: 1,
        });
        cache.get_or_load(&cat, 0).unwrap();
        cache.get_or_load(&cat, 1).unwrap();
        assert_eq!(cache.len(), 2);
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_load(&cat, 0).unwrap();
        cache.get_or_load(&cat, 2).unwrap();
        assert!(cache.contains(0), "recently used survives");
        assert!(!cache.contains(1), "LRU entry evicted");
        assert!(cache.contains(2));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= cache.max_bytes() as u64);
        assert!(s.peak_resident_bytes <= cache.max_bytes() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_dataset_is_served_but_not_retained() {
        let (cat, dir) = catalog("oversized", 2, 400);
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: 1024, // far below one dataset
            shards: 1,
        });
        let ds = cache.get_or_load(&cat, 0).unwrap();
        assert_eq!(ds.num_particles(), 400);
        assert_eq!(cache.len(), 0, "dataset larger than budget not cached");
        let s = cache.stats();
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.evictions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn still_referenced_datasets_are_served_without_reload() {
        let (cat, dir) = catalog("alive", 2, 400);
        // Budget far below one dataset: nothing is ever retained.
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: 1024,
            shards: 1,
        });
        let first = cache.get_or_load(&cat, 0).unwrap();
        // While a caller still holds the Arc, the next request is served
        // from the weak handle — no second disk load, counted as a hit.
        let second = cache.get_or_load(&cat, 0).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, 0, "never retained under the budget");
        // Once every strong reference is gone, the step must be reloaded.
        drop(first);
        drop(second);
        cache.get_or_load(&cat, 0).unwrap();
        assert_eq!(cache.stats().misses, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_share_the_cache() {
        let (cat, dir) = catalog("concurrent", 4, 300);
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: 64 << 20,
            shards: 4,
        });
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let cat = &cat;
                scope.spawn(move || {
                    for i in 0..32 {
                        let step = (t + i) % 4;
                        let ds = cache.get_or_load(cat, step).unwrap();
                        assert_eq!(ds.step(), step);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 32);
        assert!(s.hits > 0);
        // Single-flight loading: the in-flight marker guarantees each of the
        // four steps is read from disk exactly once.
        assert_eq!(s.misses, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clear_releases_all_bytes() {
        let (cat, dir) = catalog("clear", 3, 200);
        let cache = DatasetCache::new(DatasetCacheConfig::default());
        for step in 0..3 {
            cache.get_or_load(&cat, step).unwrap();
        }
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().resident_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
