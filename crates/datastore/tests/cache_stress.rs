//! Concurrency stress test for `DatasetCache`: many threads hammer
//! load/evict under a tiny byte budget while chunked parallel queries run
//! against the datasets they get back. Asserts the run completes (no
//! deadlock), the budget is never exceeded — not even transiently (peak
//! watermark) — and the hit/miss accounting adds up exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datastore::{Catalog, Column, DatasetCache, DatasetCacheConfig, ParticleTable};
use fastbit::par::{evaluate_chunked, ParExec};
use histogram::Binning;

fn stress_catalog(tag: &str, steps: usize) -> (Arc<Catalog>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("vdx_cache_stress_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let rows = 400usize;
    for step in 0..steps {
        let px: Vec<f64> = (0..rows)
            .map(|i| ((i * 37 + step * 11) % 1000) as f64 - 200.0)
            .collect();
        let y: Vec<f64> = (0..rows)
            .map(|i| (i as f64) - (rows as f64) / 2.0)
            .collect();
        let id: Vec<u64> = (0..rows as u64).collect();
        let table = ParticleTable::from_columns(vec![
            Column::float("px", px),
            Column::float("y", y),
            Column::id("id", id),
        ])
        .unwrap();
        catalog
            .write_timestep(step, &table, Some(&Binning::EqualWidth { bins: 16 }))
            .unwrap();
    }
    (Arc::new(catalog), dir)
}

#[test]
fn loads_and_evictions_under_tiny_budget_stay_consistent() {
    const THREADS: usize = 8;
    const ITERS: usize = 60;
    let steps = 6usize;
    let (catalog, dir) = stress_catalog("tiny_budget", steps);

    // Budget roomy enough for about two datasets: every other load evicts.
    let unit = catalog.load(0, None, true).unwrap().resident_size_bytes();
    let cache = Arc::new(DatasetCache::new(DatasetCacheConfig {
        max_bytes: unit * 2 + unit / 3,
        shards: 2,
    }));

    let total_hits = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let catalog = Arc::clone(&catalog);
            let total_hits = &total_hits;
            scope.spawn(move || {
                let exec = ParExec::new(2, 64);
                let expr = fastbit::parse_query("px > 0 && y > -1e9").unwrap();
                for i in 0..ITERS {
                    let step = (t * 7 + i * 3) % steps;
                    let ds = cache.get_or_load(&catalog, step).unwrap();
                    assert_eq!(ds.step(), step);
                    // Run a chunked parallel query against the dataset while
                    // other threads keep loading/evicting around it; the Arc
                    // keeps it valid even if it gets evicted mid-query.
                    if i % 5 == 0 {
                        let sel = evaluate_chunked(&expr, &*ds, &exec).unwrap();
                        let oracle = ds.query(&expr).unwrap();
                        assert_eq!(sel.to_rows(), oracle.to_rows());
                        total_hits.fetch_add(sel.count(), Ordering::Relaxed);
                    }
                    // Interleave budget-respecting bookkeeping reads.
                    let s = cache.stats();
                    assert!(s.resident_bytes <= cache.max_bytes() as u64);
                }
            });
        }
    });

    let s = cache.stats();
    // Every lookup is accounted exactly once, as a hit or a miss.
    assert_eq!(
        s.hits + s.misses,
        (THREADS * ITERS) as u64,
        "hit/miss accounting adds up"
    );
    assert!(s.misses >= steps as u64, "each step loaded at least once");
    assert!(s.hits > 0, "concurrent readers shared resident datasets");
    assert!(s.evictions > 0, "tiny budget forced evictions");
    assert!(
        s.peak_resident_bytes <= cache.max_bytes() as u64,
        "peak {} exceeded budget {}",
        s.peak_resident_bytes,
        cache.max_bytes()
    );
    assert!(s.resident_bytes <= cache.max_bytes() as u64);
    assert!(total_hits.load(Ordering::Relaxed) > 0, "queries found rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_budget_thrash_never_deadlocks() {
    // Budget below a single dataset: nothing is ever retained, every load
    // takes the single-flight path, and waiters must always be woken.
    const THREADS: usize = 6;
    const ITERS: usize = 25;
    let steps = 3usize;
    let (catalog, dir) = stress_catalog("oversized", steps);
    let cache = Arc::new(DatasetCache::new(DatasetCacheConfig {
        max_bytes: 1024,
        shards: 1,
    }));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let catalog = Arc::clone(&catalog);
            scope.spawn(move || {
                for i in 0..ITERS {
                    let step = (t + i) % steps;
                    let ds = cache.get_or_load(&catalog, step).unwrap();
                    assert_eq!(ds.step(), step);
                }
            });
        }
    });
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, (THREADS * ITERS) as u64);
    assert_eq!(s.resident_bytes, 0, "nothing retained under a 1 KiB budget");
    assert!(s.peak_resident_bytes <= cache.max_bytes() as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// Rows per requested id at `step`, the way a counts-only TRACK finds them:
/// from a resident dataset's identifier index when the cache holds one,
/// else from the identifier index alone, without admitting anything.
fn count_ids(cache: &DatasetCache, catalog: &Catalog, step: usize, ids: &[u64]) -> Vec<usize> {
    let count = |idx: &fastbit::IdIndex| ids.iter().map(|&id| idx.rows_for(id).count()).collect();
    match cache.get_resident(step) {
        Some(dataset) => count(dataset.id_index().expect("indexed catalog")),
        None => count(&catalog.load_id_index(step).unwrap()),
    }
}

#[test]
fn counts_only_track_ticks_one_lookup_per_step_and_admits_nothing() {
    let steps = 6usize;
    let (catalog, dir) = stress_catalog("counts_only", steps);
    let mut with_store = Catalog::open(&dir).unwrap();
    with_store.attach_store(datastore::Store::open(dir.join("store")).unwrap());
    let ids = [0u64, 7, 399, 400, 7, 1_000_000];
    for catalog in [catalog, Arc::new(with_store)] {
        let unit = catalog.load(0, None, true).unwrap().resident_size_bytes();
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: unit * 2 + unit / 3,
            shards: 1,
        });
        cache.get_or_load(&catalog, 3).unwrap();
        let (before, len) = (cache.stats(), cache.len());
        for round in 0..3 {
            for step in 0..steps {
                let full = catalog.load(step, None, true).unwrap();
                let expected: Vec<usize> = ids
                    .iter()
                    .map(|&id| full.select_ids(&[id]).unwrap().count() as usize)
                    .collect();
                assert_eq!(count_ids(&cache, &catalog, step, &ids), expected);
            }
            let after = cache.stats();
            let rounds = round as u64 + 1;
            assert_eq!(after.hits, before.hits + rounds, "step 3 is resident");
            assert_eq!(after.misses, before.misses + rounds * (steps as u64 - 1));
            assert_eq!(cache.len(), len, "nothing admitted");
            assert_eq!(after.resident_bytes, before.resident_bytes);
            assert_eq!(after.evictions, before.evictions, "nothing evicted");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counts_only_lookups_racing_a_single_flight_load_neither_block_nor_double_count() {
    const ITERS: usize = 40;
    let (catalog, dir) = stress_catalog("counts_race", 2);
    for budget in [1024, 64 << 20] {
        let cache = DatasetCache::new(DatasetCacheConfig {
            max_bytes: budget,
            shards: 1,
        });
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..ITERS {
                        assert_eq!(cache.get_or_load(&catalog, 1).unwrap().step(), 1);
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..ITERS {
                    assert_eq!(count_ids(&cache, &catalog, 1, &[5, 6, 5]), [1, 1, 1]);
                }
            });
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 3 * ITERS as u64, "budget {budget}");
        let retained = usize::from(budget > 1024);
        assert_eq!(cache.len(), retained, "only get_or_load admits");
        assert!(s.peak_resident_bytes <= budget as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}
