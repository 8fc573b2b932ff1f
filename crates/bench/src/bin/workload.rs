//! `vdx-workload`: the production workload harness (see `docs/WORKLOAD.md`).
//!
//! Drives a mixed population of browse / drill-down / tracker sessions
//! against a `vdx-server` — either one it self-hosts over a generated
//! catalog (the default) or an external one via `--addr` — then checks the
//! declared SLOs, reconciles client counts against the server's own
//! STATS/METRICS, and writes `BENCH_workload_mixed.json`.
//!
//! Usage:
//! ```text
//! cargo run --release -p vdx-bench --bin vdx-workload -- \
//!     [--addr HOST:PORT | --particles N --timesteps N --workers N \
//!      --queue-depth N] \
//!     [--shards N [--replicas R]] \
//!     [--sessions N] [--arrival-rps F] [--think-ms F] [--seed N] \
//!     [--mix B:D:T] [--out DIR] [--json NAME]
//! ```
//!
//! With `--shards N` the harness self-hosts a sharded cluster instead of a
//! single server: N replica groups of R backends each behind a `vdx-router`
//! coordinator (see `docs/CLUSTER.md`), and the sessions drive the router.
//! Reconciliation still balances exactly against the *router's* STATS and
//! METRICS — the router counts one client-facing request per session op
//! regardless of how many backend requests the scatter-gather layer
//! absorbed, so the same client==server identity holds on a cluster.
//!
//! Exit status: `0` all SLOs pass and counts reconcile; `1` an SLO was
//! violated; `2` client/server counts diverged, the run itself failed, or
//! the command line named an unknown flag or an unparsable value (checked
//! before anything is generated). A self-hosted catalog is generated into
//! a fresh temporary directory that is removed before the process exits.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vdx_bench::catalog_workload;
use vdx_bench::workload::{
    self, SessionMix, SessionSpace, SloSet, WorkloadConfig, WorkloadOutcome,
};
use vdx_server::testkit::spawn_cluster;
use vdx_server::{Client, ConnConfig, RouterConfig, Server, ServerConfig};

struct Args {
    addr: Option<SocketAddr>,
    particles: usize,
    timesteps: usize,
    workers: usize,
    queue_depth: usize,
    shards: usize,
    replicas: usize,
    sessions: usize,
    arrival_rps: f64,
    think_ms: f64,
    seed: u64,
    mix: SessionMix,
    out: PathBuf,
    json: String,
}

const USAGE: &str = "[--addr HOST:PORT] [--particles N] [--timesteps N] [--workers N] \
     [--queue-depth N] [--shards N] [--replicas R] [--sessions N] [--arrival-rps F] \
     [--think-ms F] [--seed N] [--mix B:D:T] [--out DIR] [--json NAME]";

fn parse_args() -> Args {
    vdx_bench::cli("vdx-workload", USAGE, |flags| {
        let mix = match flags.list("--mix", ':', vec![])?[..] {
            [] => SessionMix::default(),
            [browse, drill_down, tracker] => SessionMix {
                browse,
                drill_down,
                tracker,
            },
            _ => return Err("--mix wants BROWSE:DRILL:TRACKER weights".to_string()),
        };
        let addr = match flags.value("--addr") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("--addr expects HOST:PORT, got `{v}`"))?,
            ),
        };
        Ok(Args {
            addr,
            particles: flags.num("--particles", 8_000)?,
            timesteps: flags.num("--timesteps", 6)?,
            workers: flags.num("--workers", 4)?,
            queue_depth: flags.num("--queue-depth", 1024)?,
            shards: flags.num("--shards", 0)?,
            replicas: flags.num("--replicas", 1)?,
            sessions: flags.num("--sessions", 40)?,
            arrival_rps: flags.num("--arrival-rps", 40.0)?,
            think_ms: flags.num("--think-ms", 4.0)?,
            seed: flags.num("--seed", 42)?,
            mix,
            out: PathBuf::from(flags.value("--out").unwrap_or("experiments")),
            json: flags
                .value("--json")
                .unwrap_or("BENCH_workload_mixed.json")
                .to_string(),
        })
    })
}

/// Ask the server which timesteps it serves (`INFO` reply field 3).
fn discover_steps(addr: SocketAddr) -> Vec<usize> {
    let mut client = Client::connect(addr).expect("connect for INFO");
    let reply = client.request("INFO").expect("INFO round trip");
    let _ = client.request("QUIT");
    let steps: Vec<usize> = reply
        .split('\t')
        .nth(3)
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.parse().ok())
        .collect();
    assert!(!steps.is_empty(), "server reported no timesteps: {reply:?}");
    steps
}

fn main() {
    let args = parse_args();

    // Self-host unless pointed at an external server.
    let mut hosted = None;
    let mut hosted_cluster = None;
    let addr = match (args.addr, args.shards) {
        (Some(addr), _) => addr,
        (None, 0) => {
            let (catalog, dir) = catalog_workload("workload", args.particles, args.timesteps);
            let server = Server::bind(
                Arc::new(catalog),
                "127.0.0.1:0",
                ServerConfig {
                    workers: args.workers,
                    queue_depth: args.queue_depth,
                    ..Default::default()
                },
            )
            .expect("bind workload server");
            let (handle, join) = server.spawn();
            let addr = handle.addr();
            hosted = Some((handle, join, dir));
            addr
        }
        (None, shards) => {
            // Cluster topology: N shard groups of R replicas behind a
            // router; the sessions (and the reconciliation) talk only to
            // the router.
            let cluster = spawn_cluster(
                "workload_cluster",
                args.particles,
                args.timesteps,
                32,
                shards,
                args.replicas.max(1),
                ServerConfig {
                    workers: 4,
                    ..Default::default()
                },
                RouterConfig {
                    conn: ConnConfig {
                        workers: args.workers,
                        queue_depth: args.queue_depth,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            let addr = cluster.addr();
            hosted_cluster = Some(cluster);
            addr
        }
    };

    let config = WorkloadConfig {
        sessions: args.sessions,
        arrival_rps: args.arrival_rps,
        mix: args.mix,
        think: Duration::from_secs_f64(args.think_ms / 1_000.0),
        seed: args.seed,
        space: SessionSpace::for_steps(discover_steps(addr)),
    };
    let topology = match (args.addr, args.shards) {
        (Some(_), _) => "external".to_string(),
        (None, 0) => "single".to_string(),
        (None, shards) => format!("{shards}x{} cluster", args.replicas.max(1)),
    };
    println!(
        "# vdx-workload: {} sessions @ {}/s (mix {}:{}:{}), think {}ms, seed {}, topology {topology}, addr {addr}",
        config.sessions,
        config.arrival_rps,
        config.mix.browse,
        config.mix.drill_down,
        config.mix.tracker,
        args.think_ms,
        config.seed,
    );

    let code = match workload::run(addr, &config) {
        Ok(outcome) => report(&args, &outcome),
        Err(e) => {
            eprintln!("workload run failed: {e}");
            2
        }
    };

    // The generated catalog's directory goes with the server.
    if let Some((handle, join, _dir)) = hosted {
        handle.shutdown();
        join.join().expect("server run loop").expect("server exit");
    }
    if let Some(cluster) = hosted_cluster {
        println!(
            "# cluster: forwards={} fanouts={} failovers={} shard_unavailable={}",
            cluster.router.state().forwards(),
            cluster.router.state().fanouts(),
            cluster.router.state().failovers(),
            cluster.router.state().shard_unavailable(),
        );
        cluster.shutdown_and_clean();
    }
    std::process::exit(code);
}

/// Write the JSON records and print the summary, then return the exit
/// status: 2 if the counts did not reconcile, 1 if an SLO failed, else 0.
fn report(args: &Args, outcome: &WorkloadOutcome) -> i32 {
    let slo = workload::evaluate(&SloSet::ci_default(), outcome);
    let records = workload::report::build_records(outcome, &slo);
    let json =
        workload::report::write_json(&args.out, &args.json, &records).expect("write workload JSON");
    print!("{}", workload::report::render_summary(outcome, &slo));
    println!("# wrote {}", json.display());
    if let Err(e) = outcome.reconciled() {
        eprintln!("reconciliation failed: {e}");
        2
    } else if slo.pass {
        0
    } else {
        1
    }
}
