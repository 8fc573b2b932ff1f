//! A server's `TRACK` counts matches from identifier indexes alone; this
//! suite pins that its reply bytes equal `protocol::track_reply` of a full
//! tracking run over the same catalog, whatever the dataset cache holds and
//! wherever the identifier indexes come from. The full run is
//! `pipeline::Tracker` reading projected columns straight from the raw
//! files, so the oracle shares neither the dataset cache nor the store
//! with the server.
//!
//! Id sets (seeded): the ids of a SELECT, a subset with duplicates in
//! shuffled order, present ids mixed with ids absent from every step, and a
//! set that matches nothing. Cache states: every step resident after
//! `WARM`, a cold one-step budget over a store whose files were written
//! without indexes (so the first full loads write them back), no store at
//! all (the catalog files' id-index sections), and one timestep file whose
//! id-index section is corrupt, which is an error reply and never healed;
//! an explorer running `ExecStrategy::ScanOnly` over a dataset cache tracks
//! to the same bytes. A hand-built catalog whose tables repeat an id pins
//! that every matching row is counted.

use std::path::PathBuf;
use std::sync::Arc;

use datastore::store::{crc32, HEADER_LEN, TABLE_ENTRY_LEN};
use datastore::{Catalog, Column, DatasetCache, DatasetCacheConfig, ParticleTable, Store};
use fastbit::ExecStrategy;
use histogram::Binning;
use rand::{rngs::StdRng, Rng, SeedableRng};
use vdx_core::pipeline::Tracker;
use vdx_core::{DataExplorer, ExplorerConfig};
use vdx_server::protocol;
use vdx_server::testkit::tiny_catalog;
use vdx_server::{Server, ServerConfig, ServerHandle};

const TIMESTEPS: usize = 6;

/// The generated catalog, optionally with a store attached.
fn catalog(tag: &str, with_store: bool) -> (Arc<Catalog>, PathBuf) {
    let (catalog, dir) = tiny_catalog(tag, 500, TIMESTEPS, 16);
    if !with_store {
        return (catalog, dir);
    }
    let mut catalog = Arc::into_inner(catalog).expect("not yet shared");
    catalog.attach_store(Store::open(dir.join("store")).unwrap());
    (Arc::new(catalog), dir)
}

/// The generated catalog rewritten without indexes, with a store attached:
/// the first full load of each step builds them and writes its file back.
fn unindexed_catalog_with_store(tag: &str) -> (Arc<Catalog>, PathBuf) {
    let (catalog, dir) = tiny_catalog(tag, 500, TIMESTEPS, 16);
    let mut catalog = Arc::into_inner(catalog).expect("not yet shared");
    for step in catalog.steps() {
        let table = catalog.load(step, None, false).unwrap().table().clone();
        catalog.write_timestep(step, &table, None).unwrap();
    }
    catalog.attach_store(
        Store::open(dir.join("store"))
            .unwrap()
            .with_binning(Binning::EqualWidth { bins: 16 }),
    );
    (Arc::new(catalog), dir)
}

/// A server over `catalog`, driven through `handle_line` (no socket).
fn server(catalog: &Arc<Catalog>, config: ServerConfig) -> ServerHandle {
    Server::bind(Arc::clone(catalog), "127.0.0.1:0", config)
        .unwrap()
        .handle()
}

/// A dataset-cache budget that holds about one generated step.
fn one_step_budget() -> ServerConfig {
    ServerConfig {
        dataset_cache: DatasetCacheConfig {
            max_bytes: 160 << 10,
            shards: 1,
        },
        ..Default::default()
    }
}

/// The expected reply: a full tracking run with no dataset cache (projected
/// loads from the raw files, never the store).
fn expected(catalog: &Arc<Catalog>, ids: &[u64]) -> String {
    let tracking = Tracker::new(ExecStrategy::Auto)
        .track(catalog, ids, 2)
        .unwrap();
    protocol::track_reply(&tracking)
}

fn track_line(ids: &[u64]) -> String {
    let csv: Vec<String> = ids.iter().map(u64::to_string).collect();
    format!("TRACK\t{}", csv.join(","))
}

fn reply(handle: &ServerHandle, line: &str) -> String {
    let (reply, _) = handle.state().handle_line(line);
    assert!(reply.starts_with("OK\t"), "{line:?} -> {reply}");
    reply
}

/// The seeded id sets, the first taken from a SELECT through `handle`.
fn id_sets(handle: &ServerHandle, seed: u64) -> Vec<Vec<u64>> {
    let last = TIMESTEPS - 1;
    let select = reply(handle, &format!("SELECT\t{last}\tpx > 0"));
    let selected: Vec<u64> = select
        .split('\t')
        .nth(3)
        .unwrap()
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect();
    assert!(selected.len() > 10, "the SELECT must pick a beam");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut duplicated: Vec<u64> = (0..40)
        .map(|_| selected[rng.gen_range(0..selected.len())])
        .collect();
    duplicated.extend_from_within(..10);
    duplicated.reverse();
    let absent = |rng: &mut StdRng| 1_000_000_000 + rng.gen_range(0..1_000_000u64);
    let mut mixed: Vec<u64> = (0..30).map(|_| rng.gen_range(0..1500)).collect();
    mixed.extend((0..10).map(|_| absent(&mut rng)));
    let nothing: Vec<u64> = (0..12).map(|_| absent(&mut rng)).collect();
    vec![selected, duplicated, mixed, nothing]
}

/// Every id set's TRACK reply equals the full tracking run's.
fn assert_tracks_match(catalog: &Arc<Catalog>, handle: &ServerHandle, seed: u64) {
    for (i, ids) in id_sets(handle, seed).iter().enumerate() {
        let got = reply(handle, &track_line(ids));
        assert_eq!(got, expected(catalog, ids), "id set {i}");
    }
}

#[test]
fn every_step_resident_after_warm() {
    let (catalog, dir) = catalog("track_counts_warm", true);
    let handle = server(&catalog, ServerConfig::default());
    assert_eq!(
        reply(&handle, "WARM"),
        format!("OK\tWARM\t{TIMESTEPS}\t{TIMESTEPS}")
    );
    let cache = handle.state().dataset_cache();
    let (before, len) = (cache.stats(), cache.len());
    let store_before = catalog.store().unwrap().stats();
    assert_tracks_match(&catalog, &handle, 1);
    let after = cache.stats();
    assert_eq!(after.misses, before.misses, "every step was resident");
    assert!(after.hits >= before.hits + 4 * TIMESTEPS as u64);
    assert_eq!(cache.len(), len);
    assert_eq!(catalog.store().unwrap().stats(), store_before);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_one_step_budget_over_a_store() {
    let (catalog, dir) = unindexed_catalog_with_store("track_counts_cold");
    let handle = server(&catalog, one_step_budget());
    // The SELECT leaves its step resident; everything else is cold.
    let sets = id_sets(&handle, 2);
    let cache = handle.state().dataset_cache();
    let (len, resident) = (cache.len(), cache.stats().resident_bytes);
    assert_eq!(len, 1);
    for (i, ids) in sets.iter().enumerate() {
        let got = reply(&handle, &track_line(ids));
        assert_eq!(got, expected(&catalog, ids), "id set {i}");
    }
    assert_eq!(cache.len(), len, "TRACK admits nothing");
    assert_eq!(cache.stats().resident_bytes, resident);
    let store = catalog.store().unwrap().stats();
    // The SELECT's cold load wrote its step's file back; the first TRACK
    // found no id index in the others, so it wrote them back too, and
    // every later TRACK read their id indexes.
    assert_eq!(store.misses, TIMESTEPS as u64);
    assert!(store.hits >= 3 * (TIMESTEPS as u64 - 1), "{store:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_store_reads_the_sidecars() {
    let (catalog, dir) = catalog("track_counts_sidecar", false);
    assert!(catalog.entries().iter().all(|e| {
        let bytes = std::fs::read(&e.path).unwrap();
        datastore::store::decode_segment_id_index(&bytes).is_ok()
    }));
    let handle = server(&catalog, one_step_budget());
    assert_tracks_match(&catalog, &handle, 3);
    assert_eq!(handle.state().dataset_cache().len(), 1, "the SELECT's step");
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte range of the first section of `kind` in a segment.
fn section(bytes: &[u8], kind: u32) -> std::ops::Range<usize> {
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| &bytes[HEADER_LEN + i * TABLE_ENTRY_LEN..][..TABLE_ENTRY_LEN])
        .find(|e| u32::from_le_bytes(e[0..4].try_into().unwrap()) == kind)
        .map(|e| {
            let offset = u64::from_le_bytes(e[4..12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(e[12..20].try_into().unwrap()) as usize;
            offset..offset + len
        })
        .expect("section present")
}

#[test]
fn a_corrupt_id_index_section_is_an_error_and_never_healed() {
    let (catalog, dir) = catalog("track_counts_corrupt", true);
    // Corrupt step 2's id-index section (kind 4) in place: the file is the
    // only copy of the timestep, so there is nothing to fall back to.
    let path = catalog.entry(2).unwrap().path.clone();
    let pristine = std::fs::read(&path).unwrap();
    let ids = section(&pristine, 4);
    let mut corrupt = pristine.clone();
    corrupt[ids.start + ids.len() / 2] ^= 0x5A;
    assert_ne!(crc32(&corrupt[ids.clone()]), crc32(&pristine[ids]));
    std::fs::write(&path, &corrupt).unwrap();

    let handle = server(&catalog, one_step_budget());
    let tracked: Vec<u64> = (0..400).step_by(3).collect();
    let store = catalog.store().unwrap();
    let before = store.stats();
    for _ in 0..2 {
        let (got, _) = handle.state().handle_line(&track_line(&tracked));
        assert!(got.starts_with("ERR\t"), "{got}");
    }
    assert_eq!(store.stats().misses, before.misses, "nothing written back");
    assert_eq!(store.stats().bytes_written, 0);
    assert_eq!(std::fs::read(&path).unwrap(), corrupt, "never healed");
    assert_eq!(handle.state().dataset_cache().len(), 0, "nothing admitted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_custom_engine_tracks_by_scanning() {
    let (catalog, dir) = catalog("track_counts_custom", true);
    let sets = id_sets(&server(&catalog, one_step_budget()), 4);
    // The server always runs `FastBit`; the scanning baseline is an explorer
    // setting, here with a dataset cache attached as the server has one.
    let explorer = DataExplorer::from_catalog(
        Arc::clone(&catalog),
        ExplorerConfig {
            engine: ExecStrategy::ScanOnly,
            ..Default::default()
        },
    )
    .with_dataset_cache(Arc::new(DatasetCache::new(one_step_budget().dataset_cache)));
    for (i, ids) in sets.iter().enumerate() {
        let got = protocol::track_counts_reply(&explorer.track_counts(ids).unwrap());
        assert_eq!(got, expected(&catalog, ids), "id set {i}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_row_of_a_repeated_id_is_counted() {
    let dir = std::env::temp_dir().join(format!("vdx_track_dup_rows_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    for step in 0..3usize {
        // Id 7 sits on two rows of every step; id 9 only exists from step 1.
        let ids: Vec<u64> = vec![
            1,
            7,
            3,
            7,
            5,
            20 + step as u64,
            if step > 0 { 9 } else { 11 },
        ];
        let n = ids.len();
        let value = |k: usize| (0..n).map(|r| (r * k + step) as f64).collect::<Vec<_>>();
        let mut columns: Vec<Column> = ["x", "y", "z", "px", "py", "pz"]
            .iter()
            .zip(1..)
            .map(|(name, k)| Column::float(*name, value(k)))
            .collect();
        columns.push(Column::id("id", ids));
        let table = ParticleTable::from_columns(columns).unwrap();
        catalog
            .write_timestep(step, &table, Some(&Binning::EqualWidth { bins: 4 }))
            .unwrap();
    }
    let wanted = [7u64, 9, 1, 7, 404];
    for with_store in [false, true] {
        let mut catalog = Catalog::open(&dir).unwrap();
        if with_store {
            catalog.attach_store(Store::open(dir.join("store")).unwrap());
        }
        let catalog = Arc::new(catalog);
        let handle = server(&catalog, ServerConfig::default());
        let got = reply(&handle, &track_line(&wanted));
        assert_eq!(got, "OK\tTRACK\t3\t11\t1:3,7:6,9:2", "store {with_store}");
        assert_eq!(got, expected(&catalog, &wanted));
    }
    std::fs::remove_dir_all(&dir).ok();
}
