//! The scatter-gather coordinator: one listener speaking the ordinary wire
//! protocol, fanning requests out to backend shards and merging replies.
//!
//! A [`Router`] looks exactly like a [`crate::Server`] to clients — same
//! verbs, same reply grammar, same connection layer (it implements
//! [`LineService`] and is served by the [`crate::event_loop`], so framing,
//! pipelining, admission control, and idle/write-stall timeouts are the
//! hardened machinery the single-process server uses). Behind it,
//! a [`ShardMap`] assigns every timestep to one replica group of backend
//! `vdx-server` processes:
//!
//! * **Per-step verbs** (`SELECT`/`REFINE`/`HIST`) forward the original
//!   request line verbatim to the owning group and pass the reply bytes
//!   through untouched. A step no group owns goes to group 0, whose catalog
//!   also lacks it — so `unknown timestep` error bytes match the single
//!   server's.
//! * **Scatter-gather verbs** (`TRACK`/`INFO`/`SAVE`/`WARM`) fan out to
//!   every group concurrently and merge the partials exactly
//!   ([`super::merge`]).
//! * **Local verbs** (`PING`/`STATS`/`METRICS`/`TRACE`/`SLOWLOG`/`QUIT`/
//!   `SHUTDOWN`) are the request lifecycle's own ([`crate::service`]),
//!   answered from the router's front — `PING` on its reactor; `REBALANCE`
//!   reloads the shard map file and swaps the topology atomically.
//!
//! **Failover:** each group's replicas hold the same timesteps, and routed
//! verbs are read-only/idempotent, so a transport failure retries the next
//! replica (healthy ones first, each tried at most once per request). Only
//! when every replica of the owning group fails does the client see the
//! typed `ERR shard unavailable …` reply. Health flags feed back from
//! request outcomes and, optionally, a background `PING` prober; a cluster
//! with any unhealthy replica reports `cluster_degraded=1` in `STATS`.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use obs::{Counter, LatencyHistogram, Registry};

use super::backend::Replica;
use super::merge;
use super::shard_map::ShardMap;
use crate::metrics::{ConnMetrics, ServerMetrics};
use crate::protocol::{self, Request};
use crate::service::{ConnConfig, Front, LineService};

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Transport limits of the router's own listener (workers, line cap,
    /// timeouts, pipelining, admission control).
    pub conn: ConnConfig,
    /// Deadline for connecting to a backend and for each backend
    /// read/write (milliseconds); a dead shard fails over after this.
    pub backend_timeout_ms: u64,
    /// Background health-probe period (milliseconds); `0` disables the
    /// prober (health still feeds back from request outcomes).
    pub health_interval_ms: u64,
    /// Trace every Nth request into the span recorder (`0` disables).
    pub trace_sample: u64,
    /// Requests at least this slow (milliseconds) enter the `SLOWLOG` ring.
    pub slow_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            conn: ConnConfig::default(),
            backend_timeout_ms: 5_000,
            health_interval_ms: 1_000,
            trace_sample: 1,
            slow_ms: 100,
        }
    }
}

/// One shard group at runtime: its replicas plus per-shard instruments.
#[derive(Debug)]
struct Group {
    replicas: Vec<Arc<Replica>>,
    forwards: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<LatencyHistogram>,
}

/// The active shard map and its runtime groups (swapped by `REBALANCE`).
#[derive(Debug)]
struct Topology {
    map: ShardMap,
    groups: Vec<Group>,
}

impl Topology {
    /// Build runtime groups for `map`. Per-shard instruments register with
    /// the `*_or_existing` variants so a `REBALANCE` re-derives them
    /// without duplicate-registration panics and tallies keep accumulating.
    fn build(map: ShardMap, config: &RouterConfig, registry: &Registry) -> Topology {
        let timeout = Duration::from_millis(config.backend_timeout_ms.max(1));
        let groups = map
            .groups
            .iter()
            .enumerate()
            .map(|(g, spec)| {
                let shard = g.to_string();
                let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
                Group {
                    replicas: spec
                        .replicas
                        .iter()
                        .map(|&addr| Arc::new(Replica::new(addr, timeout)))
                        .collect(),
                    forwards: registry.counter_or_existing(
                        "vdx_cluster_shard_forwards_total",
                        "Requests forwarded to this shard group.",
                        labels,
                    ),
                    errors: registry.counter_or_existing(
                        "vdx_cluster_shard_errors_total",
                        "Backend transport failures observed on this shard group.",
                        labels,
                    ),
                    latency: registry.summary_or_existing(
                        "vdx_cluster_shard_latency_us",
                        "Backend request latency per shard group.",
                        labels,
                    ),
                }
            })
            .collect();
        Topology { map, groups }
    }

    fn replica_counts(&self) -> (usize, usize) {
        let total = self.groups.iter().map(|g| g.replicas.len()).sum();
        let healthy = self
            .groups
            .iter()
            .flat_map(|g| &g.replicas)
            .filter(|r| r.is_healthy())
            .count();
        (total, healthy)
    }
}

/// Shared router state visible to every connection worker.
#[derive(Debug)]
pub struct RouterState {
    front: Front,
    topology: Arc<RwLock<Topology>>,
    map_path: Option<PathBuf>,
    config: RouterConfig,
    fanouts: Arc<Counter>,
    forwards: Arc<Counter>,
    failovers: Arc<Counter>,
    shard_unavailable: Arc<Counter>,
    rebalances: Arc<Counter>,
}

impl RouterState {
    /// The per-verb request metrics (client-facing requests only — the
    /// router's own backend traffic is never counted here, so workload
    /// reconciliation against router `STATS` stays exact).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.front.metrics
    }

    /// The connection-layer metrics of the router's own listener.
    pub fn conn_metrics(&self) -> &ConnMetrics {
        &self.front.conn
    }

    /// The metrics registry rendered by the `METRICS` verb.
    pub fn registry(&self) -> &Registry {
        &self.front.registry
    }

    /// The request tracer behind `TRACE` and `SLOWLOG`.
    pub fn tracer(&self) -> &obs::Tracer {
        &self.front.tracer
    }

    /// Total requests forwarded to backend shards (including failover
    /// retries that succeeded).
    pub fn forwards(&self) -> u64 {
        self.forwards.get()
    }

    /// Scatter-gather fan-outs issued (one per TRACK/INFO/SAVE/WARM).
    pub fn fanouts(&self) -> u64 {
        self.fanouts.get()
    }

    /// Requests answered by a non-first replica after a transport failure.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Requests refused because every replica of the owning group was down.
    pub fn shard_unavailable(&self) -> u64 {
        self.shard_unavailable.get()
    }

    /// Successful `REBALANCE` shard-map reloads.
    pub fn rebalances(&self) -> u64 {
        self.rebalances.get()
    }

    /// True while any replica is flagged unhealthy.
    pub fn degraded(&self) -> bool {
        let (total, healthy) = self
            .topology
            .read()
            .expect("topology poisoned")
            .replica_counts();
        healthy < total
    }

    /// Serve one request line through the shared request lifecycle
    /// ([`LineService::handle_line`]).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        LineService::handle_line(self, line)
    }

    /// Forward a per-step verb to the owning group, passing reply bytes
    /// through untouched.
    fn routed_step(&self, step: usize, line: &str) -> String {
        let _forward = obs::span("forward");
        let topology = self.topology.read().expect("topology poisoned");
        // A step no group owns goes to group 0: its catalog lacks the step
        // too, so the backend's `unknown timestep` error bytes match the
        // single-process server's.
        let g = topology.map.group_for_step(step).unwrap_or(0);
        self.forward_to_group(&topology.groups[g], g, line)
            .unwrap_or_else(|msg| protocol::err_reply(&msg))
    }

    /// Fan a verb out to every group concurrently and `merge` the partials
    /// exactly.
    fn routed_fanout(&self, line: &str, merge: fn(&[String]) -> Result<String, String>) -> String {
        self.fanouts.inc();
        let topology = self.topology.read().expect("topology poisoned");
        let results: Vec<Result<String, String>> = {
            let _forward = obs::span("forward");
            std::thread::scope(|scope| {
                let handles: Vec<_> = topology
                    .groups
                    .iter()
                    .enumerate()
                    .map(|(g, group)| scope.spawn(move || self.forward_to_group(group, g, line)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fan-out thread panicked"))
                    .collect()
            })
        };
        // The first whole-group failure (in group order) wins; otherwise
        // merge the partials exactly.
        results
            .into_iter()
            .collect::<Result<Vec<String>, String>>()
            .and_then(|replies| {
                let _merge = obs::span("merge");
                merge(&replies)
            })
            .unwrap_or_else(|msg| protocol::err_reply(&msg))
    }

    /// Forward one request line to group `g` with replica failover: healthy
    /// replicas first, each replica tried at most once. `Err` means the
    /// whole group is down (the typed `shard unavailable` case).
    fn forward_to_group(&self, group: &Group, g: usize, line: &str) -> Result<String, String> {
        let started = Instant::now();
        // Snapshot health once so each replica is tried exactly once even
        // while flags move concurrently.
        let health: Vec<bool> = group.replicas.iter().map(|r| r.is_healthy()).collect();
        let order = (0..group.replicas.len())
            .filter(|&i| health[i])
            .chain((0..group.replicas.len()).filter(|&i| !health[i]));
        let mut failed_over = false;
        for i in order {
            let replica = &group.replicas[i];
            match replica.request(line) {
                Ok(reply) => {
                    if failed_over {
                        self.failovers.inc();
                    }
                    replica.set_healthy(true);
                    group.forwards.inc();
                    self.forwards.inc();
                    group.latency.record(started.elapsed());
                    return Ok(reply);
                }
                Err(_) => {
                    replica.set_healthy(false);
                    group.errors.inc();
                    failed_over = true;
                }
            }
        }
        self.shard_unavailable.inc();
        Err(format!(
            "shard unavailable (group {g}: all {} replicas down)",
            group.replicas.len()
        ))
    }

    /// `REBALANCE`: reload the shard map file and swap the topology.
    fn op_rebalance(&self) -> Result<String, String> {
        let path = self
            .map_path
            .as_ref()
            .ok_or("no shard map file to reload (router was built from an in-memory map)")?;
        let map = ShardMap::load(path)?;
        let fresh = Topology::build(map, &self.config, &self.front.registry);
        let reply = format!(
            "OK\tREBALANCE\t{}\t{}",
            fresh.groups.len(),
            fresh.map.total_steps()
        );
        let mut topology = self.topology.write().expect("topology poisoned");
        for group in &topology.groups {
            for replica in &group.replicas {
                replica.drain();
            }
        }
        *topology = fresh;
        self.rebalances.inc();
        Ok(reply)
    }
}

impl LineService for RouterState {
    fn front(&self) -> &Front {
        &self.front
    }

    fn answer(&self, request: Request, line: &str) -> String {
        match request {
            Request::Select { step, .. }
            | Request::Refine { step, .. }
            | Request::Hist { step, .. } => self.routed_step(step, line),
            Request::Track { .. } => self.routed_fanout(line, merge::merge_track),
            Request::Info => self.routed_fanout(line, merge::merge_info),
            Request::Save => self.routed_fanout(line, |r| merge::merge_sum2("SAVE", r)),
            Request::Warm => self.routed_fanout(line, |r| merge::merge_sum2("WARM", r)),
            // REBALANCE; the front answers every other verb.
            _ => self
                .op_rebalance()
                .unwrap_or_else(|msg| protocol::err_reply(&msg)),
        }
    }

    fn stats_fields(&self, fields: &mut Vec<String>) {
        let topology = self.topology.read().expect("topology poisoned");
        let (total, healthy) = topology.replica_counts();
        fields.push(format!("cluster_groups={}", topology.groups.len()));
        fields.push(format!("cluster_replicas={total}"));
        fields.push(format!("cluster_replicas_healthy={healthy}"));
        fields.push(format!("cluster_degraded={}", u8::from(healthy < total)));
        fields.push(format!("cluster_fanouts={}", self.fanouts.get()));
        fields.push(format!("cluster_forwards={}", self.forwards.get()));
        fields.push(format!("cluster_failovers={}", self.failovers.get()));
        fields.push(format!(
            "cluster_shard_unavailable={}",
            self.shard_unavailable.get()
        ));
        fields.push(format!("cluster_rebalances={}", self.rebalances.get()));
        for (g, group) in topology.groups.iter().enumerate() {
            let quantile = |q: f64| match group.latency.quantile_us(q) {
                Some(us) => format!("{us:.0}"),
                None => "-".to_string(),
            };
            fields.push(format!("shard{g}_forwards={}", group.forwards.get()));
            fields.push(format!("shard{g}_errors={}", group.errors.get()));
            fields.push(format!("shard{g}_p50_us={}", quantile(0.5)));
            fields.push(format!("shard{g}_p99_us={}", quantile(0.99)));
        }
    }
}

/// A handle for controlling a running (or about-to-run) router.
#[derive(Debug, Clone)]
pub struct RouterHandle {
    state: Arc<RouterState>,
}

impl RouterHandle {
    /// The bound address (use this to connect when binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.front.addr
    }

    /// Request a graceful stop: the accept loop exits, workers drain.
    pub fn shutdown(&self) {
        self.state.front.trigger_shutdown();
    }

    /// Shared router state (metrics, cluster counters) for inspection.
    pub fn state(&self) -> &RouterState {
        &self.state
    }
}

/// The bound-but-not-yet-running router.
#[derive(Debug)]
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

impl Router {
    /// Bind to `addr` routing over an in-memory shard map (`REBALANCE`
    /// answers a typed error: there is no file to reload).
    pub fn bind(map: ShardMap, addr: &str, config: RouterConfig) -> std::io::Result<Router> {
        Router::bind_inner(map, None, addr, config)
    }

    /// Bind to `addr` routing over the shard map file at `map_path`
    /// (`REBALANCE` re-reads this file and swaps the topology).
    pub fn bind_from_file(
        map_path: impl Into<PathBuf>,
        addr: &str,
        config: RouterConfig,
    ) -> std::io::Result<Router> {
        let path = map_path.into();
        let map = ShardMap::load(&path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        Router::bind_inner(map, Some(path), addr, config)
    }

    fn bind_inner(
        map: ShardMap,
        map_path: Option<PathBuf>,
        addr: &str,
        config: RouterConfig,
    ) -> std::io::Result<Router> {
        let (listener, front) = Front::bind(addr, config.trace_sample, config.slow_ms)?;
        let registry = &front.registry;
        let fanouts = registry.counter(
            "vdx_cluster_fanouts_total",
            "Scatter-gather fan-outs to every shard group.",
            &[],
        );
        let forwards = registry.counter(
            "vdx_cluster_forwards_total",
            "Requests forwarded to backend shards.",
            &[],
        );
        let failovers = registry.counter(
            "vdx_cluster_failovers_total",
            "Requests answered by a non-first replica after a transport failure.",
            &[],
        );
        let shard_unavailable = registry.counter(
            "vdx_cluster_shard_unavailable_total",
            "Requests refused because every replica of the owning group was down.",
            &[],
        );
        let rebalances = registry.counter(
            "vdx_cluster_rebalances_total",
            "Successful REBALANCE shard-map reloads.",
            &[],
        );
        let topology = Arc::new(RwLock::new(Topology::build(map, &config, registry)));
        {
            let t = Arc::clone(&topology);
            registry.gauge_fn(
                "vdx_cluster_groups",
                "Shard groups in the active shard map.",
                &[],
                move || t.read().expect("topology poisoned").groups.len() as f64,
            );
        }
        {
            let t = Arc::clone(&topology);
            registry.gauge_fn(
                "vdx_cluster_replicas",
                "Backend replicas across every shard group.",
                &[],
                move || t.read().expect("topology poisoned").replica_counts().0 as f64,
            );
        }
        {
            let t = Arc::clone(&topology);
            registry.gauge_fn(
                "vdx_cluster_replicas_healthy",
                "Backend replicas currently flagged healthy.",
                &[],
                move || t.read().expect("topology poisoned").replica_counts().1 as f64,
            );
        }
        {
            let t = Arc::clone(&topology);
            registry.gauge_fn(
                "vdx_cluster_degraded",
                "1 while any backend replica is flagged unhealthy.",
                &[],
                move || {
                    let (total, healthy) = t.read().expect("topology poisoned").replica_counts();
                    f64::from(u8::from(healthy < total))
                },
            );
        }
        let state = Arc::new(RouterState {
            front,
            topology,
            map_path,
            config,
            fanouts,
            forwards,
            failovers,
            shard_unavailable,
            rebalances,
        });
        Ok(Router { listener, state })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.front.addr
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> RouterHandle {
        RouterHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until shutdown is requested, then drain workers (and the
    /// health prober, if one runs) and return.
    pub fn run(self) -> std::io::Result<()> {
        let prober = spawn_prober(&self.state);
        let conn = self.state.config.conn.clone();
        let result = crate::event_loop::run(self.listener, Arc::clone(&self.state), &conn);
        if let Some(join) = prober {
            let _ = join.join();
        }
        result
    }

    /// Run on a background thread, returning the control handle and the
    /// join handle of the serving thread.
    pub fn spawn(self) -> (RouterHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

/// Start the background health prober (when enabled): every interval it
/// `PING`s each replica on a fresh connection and updates its health flag,
/// so a recovered backend rejoins rotation without waiting for a request
/// to find it.
fn spawn_prober(state: &Arc<RouterState>) -> Option<std::thread::JoinHandle<()>> {
    let interval_ms = state.config.health_interval_ms;
    if interval_ms == 0 {
        return None;
    }
    let state = Arc::clone(state);
    Some(std::thread::spawn(move || {
        let interval = Duration::from_millis(interval_ms);
        while !state.front.shutdown_requested() {
            let replicas: Vec<Arc<Replica>> = {
                let topology = state.topology.read().expect("topology poisoned");
                topology
                    .groups
                    .iter()
                    .flat_map(|g| g.replicas.iter().cloned())
                    .collect()
            };
            for replica in replicas {
                if state.front.shutdown_requested() {
                    return;
                }
                let healthy = replica.probe();
                replica.set_healthy(healthy);
            }
            // Sleep in short slices so shutdown stays prompt.
            let mut slept = Duration::ZERO;
            while slept < interval && !state.front.shutdown_requested() {
                let slice = (interval - slept).min(Duration::from_millis(50));
                std::thread::sleep(slice);
                slept += slice;
            }
        }
    }))
}
