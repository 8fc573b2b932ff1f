//! Traces are useful only if they are *right*: a cold `SELECT` must walk
//! every pipeline stage with plausible timings, and replaying the same
//! request against the same warm state must produce the same span skeleton
//! ([`obs::Trace::structure`]) every time — timings vary, structure never.

use std::path::PathBuf;
use std::sync::Arc;

use datastore::{Catalog, Store};
use histogram::Binning;
use lwfa::{SimConfig, Simulation};
use vdx_server::{Server, ServerConfig};

fn fixture(tag: &str) -> (Arc<Catalog>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("vdx_trace_snap_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let mut config = SimConfig::tiny();
    config.particles_per_step = 400;
    config.num_timesteps = 3;
    Simulation::new(config)
        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 16 }))
        .unwrap();
    (Arc::new(catalog), dir)
}

#[test]
fn cold_select_trace_times_every_stage() {
    let (catalog, dir) = fixture("stages");
    let server = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle();
    let state = handle.state();

    let (reply, _) = state.handle_line("SELECT\t0\tpx > 0 && y > -1e30");
    assert!(reply.starts_with("OK\tSELECT\t"), "{reply}");

    let trace = state.tracer().last().expect("cold SELECT was sampled");
    assert_eq!(trace.verb, "SELECT");
    for stage in [
        "request",
        "parse",
        "query_cache",
        "plan",
        "dataset_cache",
        "evaluate",
        "serialize",
    ] {
        assert!(
            trace.span(stage).is_some(),
            "stage '{stage}' missing from cold SELECT trace: {}",
            trace.render_line()
        );
    }
    // The root span is the request and covers everything beneath it.
    assert_eq!(trace.spans[0].name, "request");
    assert!(trace.total_us > 0, "a real request takes measurable time");
    let request_us = trace.spans[0].elapsed_us;
    assert!(request_us > 0);
    assert!(request_us <= trace.total_us);
    for span in &trace.spans[1..] {
        assert!(
            span.elapsed_us <= request_us,
            "child span '{}' ({}us) outlived the request ({request_us}us)",
            span.name,
            span.elapsed_us
        );
    }
    // Evaluation dominates a cold request far more often than not, but the
    // portable claim is just: it did real, timed work over 400 rows.
    let evaluate = trace.span("evaluate").unwrap();
    assert!(
        evaluate.elapsed_us > 0,
        "evaluate did index/scan work over 400 rows: {}",
        trace.render_line()
    );
    // The cold query-cache probe recorded its miss.
    let qc = trace.span("query_cache").unwrap();
    assert_eq!(qc.counts, vec![("hit", 0)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// The `evaluate` span names every slot it binds, with its predicate and
/// its source, at every thread count: one thread answers both slots from
/// the bitmap indexes, two threads scan zone-pruned chunks.
#[test]
fn evaluate_names_each_slots_predicate_and_source_at_one_thread_and_at_two() {
    let (catalog, dir) = fixture("slots");
    let query = "px > 0 && y > -1e30";
    let program = fastbit::Program::compile(&fastbit::parse_query(query).unwrap());
    let preds: Vec<String> = program.slots().iter().map(|p| p.to_string()).collect();
    assert_eq!(preds.len(), 2);
    for (threads, source) in [(1, "index"), (2, "scan+prune")] {
        let config = ServerConfig {
            threads,
            ..Default::default()
        };
        let server = Server::bind(Arc::clone(&catalog), "127.0.0.1:0", config).unwrap();
        let handle = server.handle();
        let state = handle.state();
        let (reply, _) = state.handle_line(&format!("SELECT\t0\t{query}"));
        assert!(reply.starts_with("OK\tSELECT\t"), "{reply}");

        let trace = state.tracer().last().unwrap();
        let line = trace.render_line();
        let at = trace
            .spans
            .iter()
            .position(|s| s.name == "evaluate")
            .unwrap_or_else(|| panic!("threads {threads}: no evaluate span: {line}"));
        let depth = trace.spans[at].depth;
        let slots: Vec<_> = trace.spans[at + 1..]
            .iter()
            .take_while(|s| s.depth > depth)
            .filter(|s| s.name == "slot" && s.depth == depth + 1)
            .collect();
        assert_eq!(slots.len(), preds.len(), "threads {threads}: {line}");
        for (slot, pred) in slots.iter().zip(&preds) {
            assert!(
                slot.notes.contains(&("pred", pred.clone()))
                    && slot.notes.contains(&("source", source.to_string())),
                "threads {threads}, {pred}: {line}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_replays_share_one_deterministic_structure() {
    let (catalog, dir) = fixture("replay");
    let server = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle();
    let state = handle.state();

    let request = "HIST\t1\tpx\t16\ty > 0";
    // Replay 1 is the cold outlier: it misses every cache and flips the
    // plan/query-cache state. Replays 2.. hit the query cache identically.
    let mut structures = Vec::new();
    let mut replies = Vec::new();
    for _ in 0..4 {
        let (reply, _) = state.handle_line(request);
        assert!(reply.starts_with("OK\tHIST\t"), "{reply}");
        replies.push(reply);
        structures.push(state.tracer().last().unwrap().structure());
    }
    assert!(replies.windows(2).all(|w| w[0] == w[1]));
    assert_ne!(
        structures[0], structures[1],
        "the cold replay must differ (it evaluated; the warm ones memo-hit)"
    );
    assert_eq!(
        structures[1], structures[2],
        "warm replays must share one span skeleton"
    );
    assert_eq!(structures[2], structures[3]);
    assert!(
        structures[1].contains("query_cache _ hit=1"),
        "warm skeleton records the memo hit: {}",
        structures[1]
    );
    assert!(
        !structures[1].contains("evaluate"),
        "a memo hit must not evaluate: {}",
        structures[1]
    );

    // Every sampled request landed in the ring and is retrievable by id.
    let last = state.tracer().last().unwrap();
    let by_id = state.tracer().get(last.id).unwrap();
    assert_eq!(by_id.structure(), last.structure());
    std::fs::remove_dir_all(&dir).ok();
}

/// Over async TCP a warm replay is answered by the event loop's reactor
/// (no worker hand-off), and its trace says so with `reactor=1` on the
/// `request` span — otherwise the skeleton is exactly the one the worker
/// path records for the same memo hit.
#[test]
fn warm_replay_over_async_tcp_is_answered_on_the_reactor() {
    let (catalog, dir) = fixture("reactor");
    let (handle, join) = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default())
        .unwrap()
        .spawn();
    let state = handle.state();
    let request = "HIST\t1\tpx\t16\ty > 0";
    let (cold, _) = state.handle_line(request);
    let (_, _) = state.handle_line(request);
    let worker_skeleton = state.tracer().last().unwrap().structure();
    assert!(!worker_skeleton.contains("reactor"), "{worker_skeleton}");

    let mut client = vdx_server::Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        assert_eq!(client.request(request).unwrap(), cold);
        // The trace is recorded before the reply is written.
        let trace = state.tracer().last().unwrap();
        assert_eq!(
            trace.structure(),
            worker_skeleton.replacen("request _", "request _ reactor=1", 1)
        );
        assert_eq!(trace.verb, "HIST");
    }
    assert_eq!(state.conn_metrics().reactor_replies(), 3);
    drop(client);
    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_load_trace_splits_read_verify_decode_and_names_a_corrupt_segment() {
    let (catalog, dir) = fixture("store_load");
    let mut catalog = Arc::into_inner(catalog).expect("sole owner");
    catalog.attach_store(Store::open(dir.join("store")).unwrap());
    let catalog = Arc::new(catalog);
    let server = Server::bind(catalog.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle();
    let state = handle.state();
    let select = |query: &str| {
        state.dataset_cache().clear();
        let (reply, _) = state.handle_line(&format!("SELECT\t2\t{query}"));
        (reply, state.tracer().last().expect("sampled"))
    };

    // Every load reads the timestep's one file, and says where its time
    // went and how many bytes it moved.
    let path = catalog.entry(2).unwrap().path.clone();
    let file_len = std::fs::metadata(&path).unwrap().len();
    for query in ["px > 0", "px > 1"] {
        let (reply, trace) = select(query);
        assert!(reply.starts_with("OK\tSELECT\t"), "{reply}");
        let load = trace.span("load").expect("load span");
        assert_eq!(
            load.notes,
            vec![("step", "2".to_string()), ("bytes", file_len.to_string())]
        );
        let at = trace.spans.iter().position(|s| s.name == "load").unwrap();
        let children: Vec<_> = trace.spans[at + 1..at + 4]
            .iter()
            .map(|s| (s.name, s.depth))
            .collect();
        let depth = load.depth + 1;
        assert_eq!(
            children,
            vec![("read", depth), ("verify", depth), ("decode", depth)],
            "{}",
            trace.render_line()
        );
        let stages: u64 = trace.spans[at + 1..at + 4]
            .iter()
            .map(|s| s.elapsed_us)
            .sum();
        assert!(
            stages <= load.elapsed_us,
            "the stages partition the load: {}",
            trace.render_line()
        );
    }
    let stats = catalog.store().unwrap().stats();
    assert_eq!((stats.hits, stats.misses, stats.bytes_written), (2, 0, 0));

    // The file is the only copy: a corrupt one is an error reply whose load
    // names it, never healed and never answered with rows.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    for query in ["px > 2", "px > 3"] {
        let (reply, trace) = select(query);
        assert!(reply.starts_with("ERR\t"), "{reply}");
        let load = trace.span("load").expect("failed load span");
        assert_eq!(
            load.notes,
            vec![
                ("step", "2".to_string()),
                ("bytes", file_len.to_string()),
                ("segment_error", "checksum_mismatch".to_string()),
            ],
            "{}",
            trace.render_line()
        );
    }
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "not rewritten");
    assert_eq!(catalog.store().unwrap().stats(), stats, "nothing counted");
    std::fs::remove_dir_all(&dir).ok();
}
