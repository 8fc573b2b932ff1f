//! The acceptance test of the serving layer: many concurrent clients, mixed
//! operations, and three verifiable properties:
//!
//! (a) every server reply is byte-identical to the reply assembled from
//!     direct [`vdx_core::DataExplorer`] calls on the same catalog;
//! (b) the `DatasetCache` shows a non-zero hit rate and its resident bytes
//!     never exceed the configured budget (checked via the peak watermark);
//! (c) a repeated identical query is answered from the `QueryCache` without
//!     re-evaluating the index (the `evaluations` counter stays flat).

use std::path::PathBuf;

use datastore::DatasetCacheConfig;
use lwfa::SimConfig;
use vdx_core::{DataExplorer, ExplorerConfig};
use vdx_server::{parse_stats, protocol, testkit, Client, Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vdx_server_it_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

struct Fixture {
    explorer: DataExplorer,
    dir: PathBuf,
    last: usize,
    /// A `px` threshold that selects a non-empty beam at `last`.
    beam_threshold: f64,
}

fn fixture(tag: &str) -> Fixture {
    let dir = temp_dir(tag);
    let mut sim = SimConfig::tiny();
    sim.particles_per_step = 600;
    sim.num_timesteps = 16;
    let explorer = DataExplorer::generate(
        &dir,
        sim.clone(),
        ExplorerConfig {
            index_binning: histogram::Binning::EqualWidth { bins: 32 },
            ..Default::default()
        },
    )
    .unwrap();
    let last = *explorer.steps().last().unwrap();
    Fixture {
        explorer,
        dir,
        last,
        beam_threshold: lwfa::physics::suggested_beam_threshold(&sim, last),
    }
}

/// The mixed workload: every entry is `(request line, expected reply)`, the
/// expectation computed through the public `DataExplorer` API plus the
/// protocol's shared formatting helpers.
fn scripted_workload(fx: &Fixture) -> Vec<(String, String)> {
    let ex = &fx.explorer;
    let last = fx.last;
    let mut out = Vec::new();

    let thr = fx.beam_threshold;
    // Selections at several steps and thresholds (some empty — also exact).
    let beam_query = format!("px > {thr}");
    for (step, query) in [
        (last, beam_query.as_str()),
        (last, "px > 0 && y > 0"),
        (last - 1, "px > 5e8 || y < 0"),
        (last - 2, "x > 0"),
        (last, "px > 1e30"),
    ] {
        let beam = ex.select(step, query).unwrap();
        out.push((
            format!("SELECT\t{step}\t{query}"),
            protocol::ids_reply("SELECT", &beam.ids),
        ));
    }

    // Histograms, conditional and not.
    for (step, column, bins, condition) in [
        (last, "px", 32, None),
        (last, "x", 16, Some(beam_query.as_str())),
        (last - 1, "y", 24, None),
    ] {
        let hist = ex.histogram1d(step, column, bins, condition).unwrap();
        let mut line = format!("HIST\t{step}\t{column}\t{bins}");
        if let Some(c) = condition {
            line.push('\t');
            line.push_str(c);
        }
        out.push((line, protocol::hist_reply(&hist)));
    }

    // Refine the beam from the last step at an earlier one.
    let beam = ex.select(last, &beam_query).unwrap();
    assert!(!beam.ids.is_empty(), "fixture beam must be non-empty");
    let refined = ex.refine(&beam, last - 1, "y > -1e9").unwrap();
    let ids_csv = beam
        .ids
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    out.push((
        format!("REFINE\t{}\t{ids_csv}\ty > -1e9", last - 1),
        protocol::ids_reply("REFINE", &refined.ids),
    ));

    // Track a small id set across the catalog.
    let tracked: Vec<u64> = beam.ids.iter().copied().take(6).collect();
    let tracking = ex.track(&tracked).unwrap();
    let tracked_csv = tracked
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    out.push((
        format!("TRACK\t{tracked_csv}"),
        protocol::track_reply(&tracking),
    ));

    // Catalog info.
    out.push(("INFO".to_string(), protocol::info_reply(&ex.steps())));
    out
}

/// The whole acceptance scenario: every property, byte-identically.
#[test]
fn concurrent_clients_get_exact_results_and_caches_behave_async() {
    let fx = fixture("concurrent_async");
    let workload = scripted_workload(&fx);

    // The workload touches three distinct steps; two land in the same shard.
    // A budget of ~2.5 datasets (1.25 per shard) means those two must evict
    // each other while the lone-shard step stays resident, so both the
    // hit-rate and the eviction paths are exercised under the byte ceiling.
    let unit = fx
        .explorer
        .catalog()
        .load(fx.last, None, true)
        .unwrap()
        .resident_size_bytes();
    let budget = unit * 2 + unit / 2;
    let server = Server::bind(
        fx.explorer.catalog_arc(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            dataset_cache: DatasetCacheConfig {
                max_bytes: budget,
                shards: 2,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let (handle, join) = server.spawn();
    let addr = handle.addr();

    // (a) 10 concurrent clients replay rotations of the workload; every
    // reply must match the DataExplorer-derived expectation byte-for-byte.
    // (The fan-out — connect, run, polite QUIT — is the shared testkit
    // helper the bench workload driver reuses too.)
    testkit::drive_clients(addr, 10, |offset, client| {
        for i in 0..workload.len() {
            let (request, expected) = &workload[(i + offset) % workload.len()];
            let reply = client.request(request).unwrap();
            assert_eq!(
                &reply, expected,
                "client {offset}: reply for {request:?} diverged"
            );
        }
    });

    // Every in-flight request has drained with its client, so the gauge is
    // back to zero (handle_line pairs inc/dec even on the error path).
    assert_eq!(
        handle.state().metrics().inflight().get(),
        0,
        "inflight_requests gauge did not return to zero after the workload"
    );

    // (b) dataset cache: hits occurred, and the resident footprint never
    // exceeded the budget at any point (peak watermark).
    let ds = handle.state().dataset_cache().stats();
    assert!(ds.hits > 0, "dataset cache saw no hits: {ds:?}");
    assert!(ds.hit_rate() > 0.0);
    assert!(
        ds.peak_resident_bytes <= budget as u64,
        "peak {} exceeded budget {budget}",
        ds.peak_resident_bytes
    );
    assert!(ds.resident_bytes <= budget as u64);
    assert!(
        ds.evictions > 0,
        "two same-shard hot steps cannot both fit a 1.25-dataset shard budget"
    );

    // (c) a repeated identical query is served from the query cache without
    // another index evaluation.
    let mut client = Client::connect(addr).unwrap();
    let fresh = format!("SELECT\t{}\tpx > 2.5e9 && y > 0", fx.last);
    let first = client.request(&fresh).unwrap();
    assert!(first.starts_with("OK\tSELECT\t"));
    let evals_after_first = handle.state().metrics().evaluations();
    let qc_hits_before = handle.state().query_cache().stats().hits;
    let second = client.request(&fresh).unwrap();
    assert_eq!(first, second, "memoized reply must be byte-identical");
    assert_eq!(
        handle.state().metrics().evaluations(),
        evals_after_first,
        "repeat was answered without re-evaluating the index"
    );
    assert!(handle.state().query_cache().stats().hits > qc_hits_before);

    // The same counters are visible through the wire protocol.
    let stats = parse_stats(&client.request("STATS").unwrap());
    assert!(stats["ds_hits"].parse::<u64>().unwrap() > 0);
    assert!(
        stats["ds_peak_resident_bytes"].parse::<u64>().unwrap()
            <= stats["ds_budget_bytes"].parse::<u64>().unwrap()
    );
    assert!(stats["qc_hits"].parse::<u64>().unwrap() > 0);
    assert!(stats["select_count"].parse::<u64>().unwrap() >= 10);

    // Clean shutdown drains the workers.
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK\tBYE");
    drop(client);
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&fx.dir).ok();
}

#[test]
fn server_rejects_bad_requests_without_dying() {
    let fx = fixture("badreq");
    let server = Server::bind(
        fx.explorer.catalog_arc(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let (handle, join) = server.spawn();
    let mut client = Client::connect(handle.addr()).unwrap();
    for bad in [
        "FROB",
        "SELECT\tnope\tpx > 1",
        "SELECT\t0\tpx >",
        "SELECT\t999\tpx > 1",
        "HIST\t0\tnot_a_column\t16",
        "TRACK\tx,y",
    ] {
        let reply = client.request(bad).unwrap();
        assert!(reply.starts_with("ERR\t"), "{bad:?} → {reply:?}");
    }
    // The connection (and server) still work afterwards.
    assert_eq!(client.request("PING").unwrap(), "OK\tPONG");
    assert_eq!(client.request("SHUTDOWN").unwrap(), "OK\tBYE");
    drop(client);
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&fx.dir).ok();
}
