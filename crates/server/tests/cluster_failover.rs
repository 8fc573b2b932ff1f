//! Failover and degraded-mode contract of the sharded cluster.
//!
//! Replica groups exist so one backend death is invisible: the router
//! retries the surviving replica and the client sees the exact same bytes,
//! with the failover counted in `STATS`. Only when a *whole* group is down
//! does the client see the typed `ERR shard unavailable …` reply — never a
//! hang, never a panic, never wrong bytes. `REBALANCE` swaps the shard map
//! without a restart. This suite pins all of that, including a
//! kill-mid-workload run asserting zero wrong bytes under concurrency.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vdx_server::cluster::ShardMap;
use vdx_server::testkit::{spawn_cluster, TestCluster};
use vdx_server::{parse_stats, Client, ConnConfig, RouterConfig, ServerConfig};

const PARTICLES: usize = 300;
const TIMESTEPS: usize = 6;

fn backend_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..Default::default()
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        conn: ConnConfig {
            workers: 4,
            ..Default::default()
        },
        // Short backend deadline so a whole-group outage resolves to the
        // typed error quickly, and no prober so health transitions are
        // driven deterministically by request outcomes.
        backend_timeout_ms: 1_000,
        health_interval_ms: 0,
        ..Default::default()
    }
}

/// A fixed script covering forwarded, fanned-out, and merged verbs; with
/// round-robin partitioning over 3 groups, steps {0,3} live on group 0,
/// {1,4} on group 1, {2,5} on group 2.
fn script() -> Vec<String> {
    let mut lines = vec!["INFO".to_string(), "TRACK\t1,2,3,4,5".to_string()];
    for step in 0..TIMESTEPS {
        lines.push(format!("SELECT\t{step}\tpx > 0"));
        lines.push(format!("HIST\t{step}\tpx\t8"));
    }
    lines
}

fn canonical(cluster: &TestCluster) -> HashMap<String, String> {
    let mut client = Client::connect(cluster.addr()).expect("connect router");
    let replies = script()
        .into_iter()
        .map(|line| {
            let reply = client.request(&line).expect("scripted request");
            assert!(reply.starts_with("OK\t"), "{line:?} -> {reply}");
            (line, reply)
        })
        .collect();
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    replies
}

fn stat(stats: &HashMap<String, String>, key: &str) -> u64 {
    stats
        .get(key)
        .unwrap_or_else(|| panic!("STATS is missing {key}"))
        .parse()
        .unwrap_or_else(|_| panic!("STATS {key} is not a number"))
}

#[test]
fn killed_replica_fails_over_with_identical_bytes() {
    let mut cluster = spawn_cluster(
        "cfail_replica",
        PARTICLES,
        TIMESTEPS,
        8,
        3,
        2,
        backend_config(),
        router_config(),
    );
    let want = canonical(&cluster);
    assert_eq!(cluster.router.state().failovers(), 0);

    cluster.kill_replica(0, 0);
    cluster.kill_replica(2, 1);

    let mut client = Client::connect(cluster.addr()).expect("connect router");
    for (line, expected) in &want {
        let reply = client.request(line).expect("post-kill request");
        assert_eq!(&reply, expected, "wrong bytes after replica kill: {line:?}");
    }
    let stats = parse_stats(&client.request("STATS").unwrap());
    assert!(
        stat(&stats, "cluster_failovers") >= 1,
        "failover not counted: {stats:?}"
    );
    assert_eq!(stat(&stats, "cluster_degraded"), 1, "degraded flag not set");
    assert_eq!(stat(&stats, "cluster_replicas"), 6);
    // Group 0's dead replica was discovered by a failed request; group 2's
    // keeps its last-known healthy flag until something contacts it.
    assert!(stat(&stats, "cluster_replicas_healthy") <= 5);
    assert_eq!(stat(&stats, "cluster_shard_unavailable"), 0);
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    cluster.shutdown_and_clean();
}

#[test]
fn whole_group_down_is_a_typed_error_and_other_shards_survive() {
    let mut cluster = spawn_cluster(
        "cfail_group",
        PARTICLES,
        TIMESTEPS,
        8,
        3,
        1,
        backend_config(),
        router_config(),
    );
    let want = canonical(&cluster);
    cluster.kill_group(1); // owns steps 1 and 4

    let mut client = Client::connect(cluster.addr()).expect("connect router");
    let started = Instant::now();
    for (line, expected) in &want {
        let reply = client.request(line).expect("post-outage request");
        let dead_step = line.ends_with("\t1") || line.contains("\t1\t") || line.contains("\t4\t");
        let fanned = line.starts_with("TRACK") || line == "INFO";
        if dead_step || fanned {
            assert!(
                reply.starts_with("ERR\tshard unavailable (group 1"),
                "expected a typed shard-unavailable error for {line:?}, got {reply:?}"
            );
        } else {
            assert_eq!(&reply, expected, "surviving shard changed bytes: {line:?}");
        }
    }
    // Bounded failure: every dead-group request resolved within the backend
    // deadline budget, no hang (generous bound: the whole script).
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "dead-group requests did not resolve in bounded time"
    );
    let stats = parse_stats(&client.request("STATS").unwrap());
    assert!(stat(&stats, "cluster_shard_unavailable") >= 1);
    assert_eq!(stat(&stats, "cluster_degraded"), 1);
    // The per-op accounting sees those as errors, not successes.
    assert!(stat(&stats, "select_errors") >= 1);
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    cluster.shutdown_and_clean();
}

#[test]
fn rebalance_reloads_the_shard_map_and_reroutes() {
    let cluster = spawn_cluster(
        "cfail_rebalance",
        PARTICLES,
        4,
        8,
        2,
        1,
        backend_config(),
        router_config(),
    );
    let mut client = Client::connect(cluster.addr()).expect("connect router");

    // Reload of the unchanged map succeeds and is counted.
    assert_eq!(client.request("REBALANCE").unwrap(), "OK\tREBALANCE\t2\t4");
    assert_eq!(cluster.router.state().rebalances(), 1);

    // Swap the two group tables (steps and replicas move together, so
    // routing stays correct) and reload: step 1 — previously group 1 —
    // must now be forwarded as group 0.
    let map = ShardMap::load(&cluster.map_path).expect("load map");
    let swapped = ShardMap {
        groups: vec![map.groups[1].clone(), map.groups[0].clone()],
    };
    std::fs::write(&cluster.map_path, swapped.render()).expect("rewrite map");
    assert_eq!(client.request("REBALANCE").unwrap(), "OK\tREBALANCE\t2\t4");

    let stats = parse_stats(&client.request("STATS").unwrap());
    let shard0_before = stat(&stats, "shard0_forwards");
    let reply = client.request("SELECT\t1\tpx > 0").unwrap();
    assert!(reply.starts_with("OK\tSELECT\t"), "{reply}");
    let stats = parse_stats(&client.request("STATS").unwrap());
    assert_eq!(
        stat(&stats, "shard0_forwards"),
        shard0_before + 1,
        "step 1 did not reroute to the swapped group 0"
    );
    assert_eq!(stat(&stats, "cluster_rebalances"), 2);

    // A broken map file is a typed error and leaves the topology serving.
    std::fs::write(&cluster.map_path, "[[group]]\nsteps = [0]\nreplicas = []").unwrap();
    let reply = client.request("REBALANCE").unwrap();
    assert!(reply.starts_with("ERR\t"), "broken map accepted: {reply}");
    assert!(
        client
            .request("SELECT\t0\tpx > 0")
            .unwrap()
            .starts_with("OK\tSELECT\t"),
        "router stopped serving after a rejected reload"
    );
    assert_eq!(cluster.router.state().rebalances(), 2);

    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    cluster.shutdown_and_clean();
}

#[test]
fn rebalance_on_a_plain_server_is_a_typed_error() {
    let server =
        vdx_server::testkit::spawn_tiny_server("cfail_not_router", 100, 2, 8, backend_config());
    let mut client = Client::connect(server.addr()).expect("connect backend");
    assert_eq!(
        client.request("REBALANCE").unwrap(),
        "ERR\tnot a router (REBALANCE reloads a cluster shard map)"
    );
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    server.shutdown_and_clean();
}

/// `PING` is the request lifecycle's own verb, so a router answers it on its
/// reactor like a single server does, without forwarding anything; a
/// `SELECT` still goes through a router worker to the owning backend.
#[test]
fn router_answers_ping_on_its_reactor_without_a_forward() {
    let cluster = spawn_cluster(
        "cfail_ping",
        PARTICLES,
        4,
        8,
        2,
        1,
        backend_config(),
        router_config(),
    );
    let mut client = Client::connect(cluster.addr()).expect("connect router");
    let mut stats = || parse_stats(&client.request("STATS").unwrap());
    let delta = |before: &HashMap<String, String>, after: &HashMap<String, String>, key| {
        stat(after, key) - stat(before, key)
    };

    let before = stats();
    assert_eq!(cluster.router.state().handle_line("PING").0, "OK\tPONG");
    let in_process = stats();
    assert_eq!(delta(&before, &in_process, "reactor_replies"), 0);
    assert_eq!(delta(&before, &in_process, "ping_count"), 1);

    let mut over_tcp = Client::connect(cluster.addr()).expect("connect router");
    assert_eq!(over_tcp.request("PING").unwrap(), "OK\tPONG");
    let after_ping = stats();
    assert_eq!(delta(&in_process, &after_ping, "reactor_replies"), 1);
    assert_eq!(delta(&in_process, &after_ping, "ping_count"), 1);
    assert_eq!(delta(&in_process, &after_ping, "cluster_forwards"), 0);

    let reply = over_tcp.request("SELECT\t1\tpx > 0").unwrap();
    assert!(reply.starts_with("OK\tSELECT\t"), "{reply}");
    let after_select = stats();
    assert_eq!(delta(&after_ping, &after_select, "reactor_replies"), 0);
    assert_eq!(delta(&after_ping, &after_select, "cluster_forwards"), 1);
    assert_eq!(delta(&after_ping, &after_select, "select_count"), 1);

    assert_eq!(over_tcp.request("QUIT").unwrap(), "OK\tBYE");
    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    cluster.shutdown_and_clean();
}

/// Kill a replica while concurrent clients replay the scripted workload:
/// with a surviving replica in every group there is exactly one acceptable
/// reply per request — the canonical bytes. Zero wrong bytes, no hangs,
/// no dropped connections.
#[test]
fn mid_workload_replica_kill_yields_zero_wrong_bytes() {
    let mut cluster = spawn_cluster(
        "cfail_midworkload",
        PARTICLES,
        TIMESTEPS,
        8,
        3,
        2,
        backend_config(),
        router_config(),
    );
    let want = canonical(&cluster);
    let lines = script();
    let addr = cluster.addr();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let stop = &stop;
                let want = &want;
                let lines = &lines;
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).unwrap_or_else(|e| panic!("client {i}: {e}"));
                    let mut rounds = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        for line in lines {
                            let reply = client
                                .request(line)
                                .unwrap_or_else(|e| panic!("client {i} transport: {e}"));
                            assert_eq!(
                                &reply, &want[line],
                                "client {i} saw wrong bytes mid-failover: {line:?}"
                            );
                        }
                        rounds += 1;
                    }
                    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
                    rounds
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(150));
        cluster.kill_replica(0, 0);
        std::thread::sleep(Duration::from_millis(150));
        cluster.kill_replica(1, 1);
        std::thread::sleep(Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);

        let rounds: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(rounds > 0, "workload never completed a round");
    });

    let state = cluster.router.state();
    assert!(
        state.failovers() >= 1,
        "no failover counted despite two replica kills under load"
    );
    assert_eq!(state.shard_unavailable(), 0, "a whole group went dark");
    assert!(state.degraded(), "degraded flag not raised");
    cluster.shutdown_and_clean();
}
