//! The workload harness's second guarantee: the SLO gate actually gates,
//! and client-side counts reconcile with the server's own counters exactly.
//!
//! A healthy server must pass (`SLO VERDICT: PASS`, zero errors, zero busy
//! rejections, every session kind completing); a deliberately starved
//! server (`queue_depth = 1`, one worker) must be caught — busy rejections
//! counted on both sides, the same number on each, and the verdict FAIL.

use std::time::Duration;

use vdx_bench::workload::{self, SessionMix, SessionSpace, SloSet, WorkloadConfig};
use vdx_server::testkit;
use vdx_server::{parse_stats, Client, ConnConfig, RouterConfig, ServerConfig};

fn config(
    sessions: usize,
    arrival_rps: f64,
    think: Duration,
    seed: u64,
    steps: usize,
) -> WorkloadConfig {
    WorkloadConfig {
        sessions,
        arrival_rps,
        mix: SessionMix::default(),
        think,
        seed,
        space: SessionSpace::for_steps((0..steps).collect()),
    }
}

#[test]
fn healthy_server_passes_the_gate_and_reconciles_exactly() {
    let server = testkit::spawn_tiny_server(
        "slo_healthy",
        400,
        3,
        16,
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
    );

    let cfg = config(12, 200.0, Duration::from_millis(1), 7, 3);
    let outcome = workload::run(server.addr(), &cfg).expect("healthy run");

    // Exact client/server agreement on every op's success and error count,
    // the busy total, and the STATS↔METRICS cross-check.
    outcome.reconciled().expect("counts must reconcile");
    assert!(outcome.total_ok() > 0);
    assert_eq!(
        outcome.total_errors(),
        0,
        "sessions only send valid requests"
    );
    assert_eq!(outcome.total_busy(), 0, "healthy queue must not reject");
    for kind in &outcome.kinds {
        assert!(
            kind.completed > 0,
            "kind {:?} never completed a session",
            kind.kind
        );
        assert_eq!(kind.aborted, 0);
        assert_eq!(kind.hist.count(), kind.completed);
    }

    let report = workload::evaluate(&SloSet::errors_only(), &outcome);
    assert!(report.pass);
    assert!(report.render().contains("SLO VERDICT: PASS"));

    // The server agrees over the wire that nothing was rejected.
    let mut client = Client::connect(server.addr()).unwrap();
    let stats = parse_stats(&client.request("STATS").unwrap());
    assert_eq!(stats["busy_rejections"].parse::<u64>().unwrap(), 0);
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    drop(client);
    server.shutdown_and_clean();
}

/// The harness against a sharded cluster: the router's client-facing
/// accounting must reconcile exactly (one count per session op, however
/// many backend requests the scatter-gather layer absorbed), and a healthy
/// 3-shard topology passes the same gate a single server does.
#[test]
fn sharded_cluster_passes_the_gate_and_reconciles_exactly() {
    let cluster = testkit::spawn_cluster(
        "slo_cluster",
        400,
        3,
        16,
        3,
        2,
        ServerConfig {
            workers: 4,
            ..Default::default()
        },
        RouterConfig {
            conn: ConnConfig {
                workers: 4,
                ..Default::default()
            },
            health_interval_ms: 0,
            ..Default::default()
        },
    );

    let cfg = config(12, 200.0, Duration::from_millis(1), 7, 3);
    let outcome = workload::run(cluster.addr(), &cfg).expect("cluster run");

    // The identity that makes cluster reconciliation meaningful: the
    // router counted exactly the client-facing ops, not its own backend
    // traffic — which was strictly larger than the forwarded op count
    // because TRACK fans out to all 3 groups.
    outcome.reconciled().expect("cluster counts must reconcile");
    assert!(outcome.total_ok() > 0);
    assert_eq!(outcome.total_errors(), 0);
    assert_eq!(outcome.total_busy(), 0);
    let state = cluster.router.state();
    // Exact backend-request identity: per-step verbs forward once, TRACK
    // and INFO fan out to all 3 groups, PING is answered at the router.
    let op_ok = |name: &str| -> u64 {
        outcome
            .ops
            .iter()
            .find(|o| o.op == name)
            .map(|o| o.ok)
            .unwrap_or(0)
    };
    let expected_forwards =
        op_ok("select") + op_ok("refine") + op_ok("hist") + 3 * (op_ok("track") + op_ok("info"));
    assert_eq!(
        state.forwards(),
        expected_forwards,
        "router backend-request accounting diverged from the session mix"
    );
    assert_eq!(
        state.fanouts(),
        op_ok("track") + op_ok("info"),
        "tracker sessions fan out"
    );
    assert!(state.fanouts() > 0);
    assert_eq!(state.failovers(), 0);

    let report = workload::evaluate(&SloSet::errors_only(), &outcome);
    assert!(report.pass);
    assert!(report.render().contains("SLO VERDICT: PASS"));

    // Cluster STATS agree over the wire.
    let mut client = Client::connect(cluster.addr()).unwrap();
    let stats = parse_stats(&client.request("STATS").unwrap());
    assert_eq!(stats["busy_rejections"].parse::<u64>().unwrap(), 0);
    assert_eq!(stats["cluster_degraded"].parse::<u64>().unwrap(), 0);
    assert_eq!(stats["cluster_groups"].parse::<u64>().unwrap(), 3);
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    drop(client);
    cluster.shutdown_and_clean();
}

#[test]
fn starved_server_fails_the_gate_with_busy_counted_on_both_sides() {
    // One worker and a one-slot admission queue: a burst of simultaneous
    // sessions cannot all fit, so some must see `ERR busy`.
    let server = testkit::spawn_tiny_server(
        "slo_starved",
        300,
        2,
        8,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        },
    );

    // Escalate the burst until at least one rejection lands (the scheduler
    // could in principle serialize a small burst perfectly).
    let mut overloaded = None;
    for attempt in 0u32..4 {
        let sessions = 16usize << attempt;
        let cfg = config(sessions, 1e6, Duration::ZERO, 11 + u64::from(attempt), 2);
        let outcome = workload::run(server.addr(), &cfg).expect("overload run");
        // Reconciliation must stay exact even while the server rejects.
        outcome
            .reconciled()
            .expect("counts must reconcile under overload");
        if outcome.total_busy() > 0 {
            overloaded = Some(outcome);
            break;
        }
    }
    let outcome =
        overloaded.expect("a 16..128-session burst against a one-slot queue never saw ERR busy");

    // Both sides counted the same rejections (the reconciliation line pairs
    // the server's busy_rejections delta with the client-observed total).
    let busy = outcome
        .reconciliation
        .iter()
        .find(|r| r.name == "busy_rejections")
        .unwrap();
    assert!(busy.server > 0);
    assert_eq!(busy.server, busy.client);
    assert!(outcome.total_busy() <= busy.client);

    // Rejected sessions aborted rather than completing.
    assert!(outcome.kinds.iter().map(|k| k.aborted).sum::<u64>() > 0);

    // And the gate fires: busy > max_busy (0) ⇒ FAIL verdict.
    let report = workload::evaluate(&SloSet::errors_only(), &outcome);
    assert!(!report.pass);
    let rendered = report.render();
    assert!(rendered.contains("SLO VERDICT: FAIL"), "{rendered}");
    assert!(rendered.contains("VIOLATED"), "{rendered}");

    server.shutdown_and_clean();
}
