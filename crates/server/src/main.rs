//! The `vdx-server` binary: serve a catalog, drive a running server from the
//! command line, run the CI smoke session, or load-test hot vs cold caches.
//!
//! ```text
//! vdx-server serve --dir DIR [--addr 127.0.0.1:7878] [--workers N]
//!                  [--cache-mb MB] [--query-cache N] [--nodes N] [--threads N]
//!                  [--chunk-rows N] [--index-accel] [--store-dir DIR]
//!                  [--trace-sample N] [--slow-ms MS] [--max-line-bytes N]
//!                  [--idle-timeout-ms MS] [--write-timeout-ms MS]
//!                  [--max-pipeline N] [--queue-depth N]
//! vdx-server route --shard-map FILE.toml [--addr 127.0.0.1:7879]
//!                  [--workers N] [--backend-timeout-ms MS]
//!                  [--backend-inflight N] [--health-interval-ms MS]
//!                  [--trace-sample N] [--slow-ms MS] [--max-line-bytes N]
//!                  [--idle-timeout-ms MS] [--write-timeout-ms MS]
//!                  [--max-pipeline N] [--queue-depth N]
//! vdx-server query --addr HOST:PORT <verb> [field ...]
//! vdx-server smoke [--dir DIR] [--store-dir DIR]
//! vdx-server bench [--clients N] [--rounds N] [--particles N] [--timesteps N]
//! ```
//!
//! Every subcommand but `query` checks its flags before it opens anything:
//! a flag its usage line does not list, or a number-valued flag (`N`, `MS`,
//! `MB`) whose value does not parse, prints the usage text and exits 1.
//!
//! The server multiplexes every socket on one reactor thread and dispatches
//! request lines to the worker pool — a connection holds a buffer, not a
//! thread. The connection-hardening knobs (`--max-line-bytes`,
//! `--idle-timeout-ms`, `--write-timeout-ms`, `--max-pipeline`,
//! `--queue-depth`) are documented in docs/PROTOCOL.md.
//!
//! `--store-dir` attaches the persistent `vdx` segment store: loads check
//! the store before ingesting raw data, cold loads write their segment back,
//! and the `SAVE`/`WARM` protocol verbs (plus the `store_*` `STATS` fields)
//! drive and observe it. `smoke --dir --store-dir` reuses the catalog across
//! invocations, so a second run exercises a warm start.
//!
//! `--trace-sample N` records every Nth request as a per-stage span trace
//! (`1` — the default — traces everything, `0` disables tracing) and
//! `--slow-ms MS` sets the slow-query threshold; the `TRACE`, `SLOWLOG` and
//! `METRICS` verbs expose the recorder and the metrics registry.
//!
//! `route` serves the same wire protocol as `serve`, but as a scatter-gather
//! coordinator over backend `vdx-server` processes: `--shard-map` names a
//! TOML file assigning timesteps to replica groups (format in
//! docs/CLUSTER.md), per-step verbs forward to the owning group, `TRACK`/
//! `INFO`/`SAVE`/`WARM` fan out and merge exactly, and replica failures fail
//! over within the group. `REBALANCE` re-reads the map file without a
//! restart.
//!
//! `query` joins its trailing arguments with tabs, so a shell session looks
//! like `vdx-server query --addr 127.0.0.1:7878 SELECT 19 "px > 1e10"`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use datastore::{Catalog, DatasetCacheConfig};
use histogram::Binning;
use lwfa::{SimConfig, Simulation};
use vdx_server::{Client, ConnConfig, Router, RouterConfig, Server, ServerConfig};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Each subcommand's usage line. [`check_flags`] derives the flags a
/// subcommand accepts, and which of them take a number, from it, so the two
/// cannot drift.
const USAGE: [(&str, &str); 5] = [
    ("serve", "--dir DIR [--addr A] [--workers N] [--cache-mb MB] [--query-cache N] [--nodes N] [--threads N] [--chunk-rows N] [--index-accel] [--store-dir DIR] [--trace-sample N] [--slow-ms MS] [--max-line-bytes N] [--idle-timeout-ms MS] [--write-timeout-ms MS] [--max-pipeline N] [--queue-depth N]"),
    ("route", "--shard-map FILE.toml [--addr A] [--workers N] [--backend-timeout-ms MS] [--backend-inflight N] [--health-interval-ms MS] [--trace-sample N] [--slow-ms MS] [--max-line-bytes N] [--idle-timeout-ms MS] [--write-timeout-ms MS] [--max-pipeline N] [--queue-depth N]"),
    ("query", "--addr HOST:PORT <verb> [field ...]"),
    ("smoke", "[--dir DIR] [--store-dir DIR]"),
    ("bench", "[--clients N] [--rounds N] [--particles N] [--timesteps N]"),
];

fn print_usage() {
    eprintln!("usage: vdx-server <serve|route|query|smoke|bench> [options]");
    for (name, line) in USAGE {
        eprintln!("  {name} {line}");
    }
}

/// Reject any argument `usage` does not list as a flag, a flag missing its
/// value, and a number-valued flag whose value does not parse.
fn check_flags(usage: &str, args: &[String]) -> Result<(), String> {
    let spec: Vec<&str> = usage
        .split_whitespace()
        .map(|t| t.trim_matches(|c| c == '[' || c == ']'))
        .collect();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let at = spec
            .iter()
            .position(|t| t.starts_with("--") && t == arg)
            .ok_or_else(|| format!("unknown argument {arg}"))?;
        let Some(meta) = spec.get(at + 1).filter(|m| !m.starts_with("--")) else {
            continue;
        };
        let value = args
            .next()
            .ok_or_else(|| format!("{arg} requires a value ({meta})"))?;
        if ["N", "MS", "MB"].contains(meta) && value.parse::<u64>().is_err() {
            return Err(format!("{arg} expects a number, got `{value}`"));
        }
    }
    Ok(())
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The transport flags `serve` and `route` share.
fn conn_config(args: &[String]) -> ConnConfig {
    let defaults = ConnConfig::default();
    ConnConfig {
        workers: parsed_flag(args, "--workers", defaults.workers),
        max_line_bytes: parsed_flag(args, "--max-line-bytes", defaults.max_line_bytes),
        idle_timeout_ms: parsed_flag(args, "--idle-timeout-ms", defaults.idle_timeout_ms),
        write_timeout_ms: parsed_flag(args, "--write-timeout-ms", defaults.write_timeout_ms),
        max_pipeline: parsed_flag(args, "--max-pipeline", defaults.max_pipeline),
        queue_depth: parsed_flag(args, "--queue-depth", defaults.queue_depth),
        ..defaults
    }
}

fn server_config(args: &[String]) -> ServerConfig {
    let defaults = ServerConfig::with_conn(conn_config(args));
    ServerConfig {
        nodes: parsed_flag(args, "--nodes", defaults.nodes),
        threads: parsed_flag(args, "--threads", defaults.threads),
        chunk_rows: parsed_flag(args, "--chunk-rows", defaults.chunk_rows),
        index_accel: args.iter().any(|a| a == "--index-accel"),
        dataset_cache: DatasetCacheConfig {
            max_bytes: parsed_flag(args, "--cache-mb", 256usize) << 20,
            shards: defaults.dataset_cache.shards,
        },
        query_cache_entries: parsed_flag(args, "--query-cache", defaults.query_cache_entries),
        trace_sample: parsed_flag(args, "--trace-sample", defaults.trace_sample),
        slow_ms: parsed_flag(args, "--slow-ms", defaults.slow_ms),
        ..defaults
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("help");
    let Some(&(_, usage)) = USAGE.iter().find(|(name, _)| *name == mode) else {
        print_usage();
        return ExitCode::FAILURE;
    };
    let args = &args[1..];
    // `query`'s trailing fields are free-form request text.
    if mode != "query" {
        if let Err(message) = check_flags(usage, args) {
            eprintln!("vdx-server: {message}");
            print_usage();
            return ExitCode::FAILURE;
        }
    }
    let result = match mode {
        "serve" => serve(args),
        "route" => route(args),
        "query" => query(args),
        "smoke" => smoke(args),
        _ => bench(args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("vdx-server: {message}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let dir = flag(args, "--dir").ok_or("serve requires --dir DIR")?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let mut catalog = Catalog::open(&dir).map_err(|e| format!("open {dir}: {e}"))?;
    if catalog.num_timesteps() == 0 {
        return Err(format!("{dir} holds no timestep files"));
    }
    if let Some(store_dir) = flag(args, "--store-dir") {
        let store =
            datastore::Store::open(&store_dir).map_err(|e| format!("store {store_dir}: {e}"))?;
        catalog.attach_store(store);
        println!("vdx-server store attached at {store_dir}");
    }
    let server = Server::bind(Arc::new(catalog), &addr, server_config(args))
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!("vdx-server listening on {} ({dir})", server.local_addr());
    println!(
        "stop with: vdx-server query --addr {} SHUTDOWN",
        server.local_addr()
    );
    server.run().map_err(|e| e.to_string())
}

/// Serve as a scatter-gather router over the backends named by a shard map
/// file (same wire protocol as `serve`; see docs/CLUSTER.md).
fn route(args: &[String]) -> Result<(), String> {
    let map_path = flag(args, "--shard-map").ok_or("route requires --shard-map FILE.toml")?;
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7879".to_string());
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        conn: conn_config(args),
        backend_timeout_ms: parsed_flag(args, "--backend-timeout-ms", defaults.backend_timeout_ms),
        backend_inflight: parsed_flag(args, "--backend-inflight", defaults.backend_inflight),
        health_interval_ms: parsed_flag(args, "--health-interval-ms", defaults.health_interval_ms),
        trace_sample: parsed_flag(args, "--trace-sample", defaults.trace_sample),
        slow_ms: parsed_flag(args, "--slow-ms", defaults.slow_ms),
    };
    let router = Router::bind_from_file(&map_path, &addr, config)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "vdx-server routing on {} over {map_path}",
        router.local_addr()
    );
    println!(
        "stop with: vdx-server query --addr {} SHUTDOWN",
        router.local_addr()
    );
    router.run().map_err(|e| e.to_string())
}

fn query(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").ok_or("query requires --addr HOST:PORT")?;
    let addr_at = args.iter().position(|a| a == "--addr").expect("present");
    let request: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != addr_at && i != addr_at + 1)
        .map(|(_, a)| a.clone())
        .collect();
    if request.is_empty() {
        return Err("query requires a request verb".to_string());
    }
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client
        .request(&request.join("\t"))
        .map_err(|e| e.to_string())?;
    println!("{reply}");
    if reply.starts_with("ERR") {
        return Err("server returned an error".to_string());
    }
    Ok(())
}

/// Generate a tiny catalog in a temp dir, preprocessing indexes included.
fn scratch_catalog(
    tag: &str,
    particles: usize,
    timesteps: usize,
) -> Result<(Arc<Catalog>, SimConfig, std::path::PathBuf), String> {
    let dir = std::env::temp_dir().join(format!("vdx_server_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).map_err(|e| e.to_string())?;
    let mut sim = SimConfig::tiny();
    sim.particles_per_step = particles;
    sim.num_timesteps = timesteps;
    Simulation::new(sim.clone())
        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 32 }))
        .map_err(|e| e.to_string())?;
    Ok((Arc::new(catalog), sim, dir))
}

/// The CI smoke session: boot a server on an ephemeral port against a tiny
/// catalog, run a scripted select → refine → histogram → track conversation,
/// assert non-empty OK replies, and shut down through the protocol.
///
/// With `--dir` the catalog directory is stable and reused across
/// invocations (generated only when absent); with `--store-dir` the `vdx`
/// store is attached and the session additionally runs `WARM` and prints the
/// `store_*` counters — so running smoke twice with both flags exercises a
/// cold start (segments written) and then a warm one (segments hit).
fn smoke(args: &[String]) -> Result<(), String> {
    let (particles, timesteps) = (800usize, 16usize);
    let (catalog, sim, dir, scratch) = match flag(args, "--dir") {
        None => {
            let (catalog, sim, dir) = scratch_catalog("smoke", particles, timesteps)?;
            (catalog, sim, dir, true)
        }
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            let mut sim = SimConfig::tiny();
            sim.particles_per_step = particles;
            sim.num_timesteps = timesteps;
            let reusable = Catalog::open(&dir)
                .ok()
                .filter(|c| c.num_timesteps() == timesteps);
            let catalog = match reusable {
                Some(catalog) => {
                    println!("smoke: reusing catalog at {}", dir.display());
                    catalog
                }
                None => {
                    std::fs::remove_dir_all(&dir).ok();
                    // A fresh catalog makes any old store contents stale.
                    if let Some(store_dir) = flag(args, "--store-dir") {
                        std::fs::remove_dir_all(&store_dir).ok();
                    }
                    let mut catalog = Catalog::create(&dir).map_err(|e| e.to_string())?;
                    Simulation::new(sim.clone())
                        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 32 }))
                        .map_err(|e| e.to_string())?;
                    catalog
                }
            };
            (Arc::new(catalog), sim, dir, false)
        }
    };
    let store_dir = flag(args, "--store-dir");
    let catalog = match &store_dir {
        Some(store_dir) => {
            let mut catalog =
                Arc::into_inner(catalog).expect("catalog not yet shared before serving");
            let store =
                datastore::Store::open(store_dir).map_err(|e| format!("store {store_dir}: {e}"))?;
            catalog.attach_store(store);
            Arc::new(catalog)
        }
        None => catalog,
    };
    let last = *catalog.steps().last().expect("timesteps exist");
    let threshold = lwfa::physics::suggested_beam_threshold(&sim, last);
    let server =
        Server::bind(catalog, "127.0.0.1:0", server_config(args)).map_err(|e| e.to_string())?;
    let (handle, join) = server.spawn();
    println!("smoke: serving on {}", handle.addr());

    let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
    let mut script = vec![
        "PING".to_string(),
        "INFO".to_string(),
        format!("SELECT\t{last}\tpx > {threshold}"),
        format!("HIST\t{last}\tpx\t32"),
        // Tracks the ids the SELECT returned (filled in below).
        "TRACK".to_string(),
        format!("HIST\t{last}\tpx\t32\tpx > {threshold}"),
    ];
    if store_dir.is_some() {
        // Warm every timestep through the store before the workload: on a
        // cold store this writes every segment back, on a warm one it loads
        // them all without rebuilding an index.
        script.insert(2, "WARM".to_string());
    }
    let mut selected_ids = String::new();
    for line in &script {
        let line = match line.as_str() {
            "TRACK" => format!("TRACK\t{selected_ids}"),
            _ => line.clone(),
        };
        let reply = client.request(&line).map_err(|e| e.to_string())?;
        let shown = line.replace('\t', " ");
        println!(
            "smoke: {shown} -> {} bytes: {}",
            reply.len(),
            truncate(&reply, 80)
        );
        if !reply.starts_with("OK\t") {
            return Err(format!("request {shown:?} failed: {reply}"));
        }
        if line.starts_with("SELECT") {
            selected_ids = reply.split('\t').nth(3).unwrap_or("").to_string();
            if selected_ids.is_empty() {
                return Err("smoke selection matched no particles".to_string());
            }
        }
    }
    // Observability: the last scripted request (a cold conditional HIST)
    // was traced, so TRACE LAST renders its full per-stage span tree — the
    // CI smoke greps these stage names from the output.
    let trace = client.request("TRACE\tLAST").map_err(|e| e.to_string())?;
    println!("smoke: TRACE LAST -> {trace}");
    if !trace.starts_with("OK\tTRACE\t") {
        return Err(format!("trace failed: {trace}"));
    }
    for stage in ["parse", "query_cache", "evaluate", "serialize"] {
        if !trace.contains(stage) {
            return Err(format!("trace is missing the {stage} stage: {trace}"));
        }
    }
    let metrics = client.metrics().map_err(|e| e.to_string())?;
    println!("smoke: METRICS -> {} exposition lines", metrics.len());
    for needle in [
        "vdx_requests_total{op=\"select\"}",
        "vdx_inflight_requests",
        "vdx_uptime_seconds",
    ] {
        match metrics.iter().find(|l| l.starts_with(needle)) {
            Some(line) => println!("smoke: METRICS sample -> {line}"),
            None => return Err(format!("METRICS is missing {needle}")),
        }
    }
    let slowlog = client.request("SLOWLOG").map_err(|e| e.to_string())?;
    println!("smoke: SLOWLOG -> {}", truncate(&slowlog, 120));
    if !slowlog.starts_with("OK\tSLOWLOG\t") {
        return Err(format!("slowlog failed: {slowlog}"));
    }

    // Refine the selection at an earlier step, then track the refined beam.
    let refine = format!("REFINE\t{}\t{selected_ids}\ty > -1e9", last - 1);
    let reply = client.request(&refine).map_err(|e| e.to_string())?;
    println!("smoke: REFINE -> {}", truncate(&reply, 80));
    if !reply.starts_with("OK\tREFINE\t") {
        return Err(format!("refine failed: {reply}"));
    }
    let refined_ids = reply.split('\t').nth(3).unwrap_or("").to_string();
    if refined_ids.is_empty() {
        return Err("smoke refine matched no particles".to_string());
    }
    let reply = client
        .request(&format!("TRACK\t{refined_ids}"))
        .map_err(|e| e.to_string())?;
    println!("smoke: TRACK -> {}", truncate(&reply, 80));
    if !reply.starts_with("OK\tTRACK\t") {
        return Err(format!("track failed: {reply}"));
    }
    // Repeat the select: must be served from the query cache.
    let repeat = client
        .request(&format!("SELECT\t{last}\tpx > {threshold}"))
        .map_err(|e| e.to_string())?;
    if !repeat.starts_with("OK\tSELECT\t") {
        return Err(format!("repeat select failed: {repeat}"));
    }
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!(
        "smoke: caches ds_hits={} qc_hits={} evaluations={} reactor_replies={}",
        stats.get("ds_hits").map(String::as_str).unwrap_or("?"),
        stats.get("qc_hits").map(String::as_str).unwrap_or("?"),
        stats.get("evaluations").map(String::as_str).unwrap_or("?"),
        stats
            .get("reactor_replies")
            .map(String::as_str)
            .unwrap_or("?"),
    );
    if store_dir.is_some() {
        println!(
            "smoke: store store_hits={} store_misses={} store_bytes_written={} store_indexes_built={}",
            stats.get("store_hits").map(String::as_str).unwrap_or("?"),
            stats.get("store_misses").map(String::as_str).unwrap_or("?"),
            stats
                .get("store_bytes_written")
                .map(String::as_str)
                .unwrap_or("?"),
            stats
                .get("store_indexes_built")
                .map(String::as_str)
                .unwrap_or("?"),
        );
        let touched = ["store_hits", "store_misses"]
            .iter()
            .filter_map(|k| stats.get(*k))
            .filter_map(|v| v.parse::<u64>().ok())
            .sum::<u64>();
        if touched == 0 {
            return Err("store configured but never consulted".to_string());
        }
    }
    if stats
        .get("qc_hits")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
        == 0
    {
        return Err("repeated select did not hit the query cache".to_string());
    }

    // Shut down through the protocol and verify the run loop drains cleanly.
    let bye = client.request("SHUTDOWN").map_err(|e| e.to_string())?;
    if bye != "OK\tBYE" {
        return Err(format!("shutdown handshake failed: {bye}"));
    }
    drop(client);
    join.join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    println!("smoke: clean shutdown");
    if scratch {
        std::fs::remove_dir_all(&dir).ok();
    }
    Ok(())
}

/// Load generator: replay a mixed select/histogram workload from N client
/// threads, twice — the first pass is cold (empty caches), the second hot —
/// and report queries/sec for both.
fn bench(args: &[String]) -> Result<(), String> {
    let clients = parsed_flag(args, "--clients", 8usize).max(1);
    let rounds = parsed_flag(args, "--rounds", 20usize).max(1);
    let particles = parsed_flag(args, "--particles", 20_000usize);
    let timesteps = parsed_flag(args, "--timesteps", 8usize).max(2);
    let (catalog, _sim, dir) = scratch_catalog("bench", particles, timesteps)?;
    let steps = catalog.steps();
    let server =
        Server::bind(catalog, "127.0.0.1:0", server_config(args)).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let (_handle, join) = server.spawn();

    // A repeating mixed workload over every step and a few thresholds.
    let mut workload = Vec::new();
    for round in 0..rounds {
        let step = steps[round % steps.len()];
        let threshold = 1e9 * (1 + round % 5) as f64;
        workload.push(format!("SELECT\t{step}\tpx > {threshold}"));
        workload.push(format!("HIST\t{step}\tpx\t64"));
        workload.push(format!("HIST\t{step}\tx\t64\tpx > {threshold}"));
    }

    let run_pass = |label: &str| -> Result<f64, String> {
        let started = Instant::now();
        std::thread::scope(|scope| -> Result<(), String> {
            let mut joins = Vec::new();
            for _ in 0..clients {
                let workload = &workload;
                joins.push(scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    for line in workload {
                        let reply = client.request(line).map_err(|e| e.to_string())?;
                        if !reply.starts_with("OK\t") {
                            return Err(format!("{line}: {reply}"));
                        }
                    }
                    Ok(())
                }));
            }
            for j in joins {
                j.join().map_err(|_| "client panicked".to_string())??;
            }
            Ok(())
        })?;
        let elapsed = started.elapsed().as_secs_f64();
        let qps = (clients * workload.len()) as f64 / elapsed;
        println!(
            "bench: {label:>4} pass: {} requests in {elapsed:.3}s -> {qps:.0} req/s",
            clients * workload.len()
        );
        Ok(qps)
    };

    let cold = run_pass("cold")?;
    let hot = run_pass("hot")?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!(
        "bench: hot/cold speedup {:.2}x; ds_hits={} ds_misses={} qc_hits={} evaluations={}",
        hot / cold.max(1e-9),
        stats.get("ds_hits").map(String::as_str).unwrap_or("?"),
        stats.get("ds_misses").map(String::as_str).unwrap_or("?"),
        stats.get("qc_hits").map(String::as_str).unwrap_or("?"),
        stats.get("evaluations").map(String::as_str).unwrap_or("?"),
    );
    client.request("SHUTDOWN").map_err(|e| e.to_string())?;
    drop(client);
    join.join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n])
    }
}
