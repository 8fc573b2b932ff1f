//! The concurrent TCP query server.
//!
//! One connection layer serves the protocol: a readiness event loop
//! ([`crate::event_loop`]) in which one reactor thread owns every socket
//! nonblocking. A connection holds a buffer, not a thread, so thousands of
//! idle clients cost no workers, and a fresh request is dispatched to the
//! worker pool the moment its line arrives — unless its reply is already
//! resident (`PING`, `INFO`, a query-cache hit), which the reactor answers
//! itself through [`LineService::answer_inline`] with the same bytes and
//! accounting (`ServerState`'s [`LineService::answer_resident`] holds the
//! last two). Pipelining, admission control (`ERR busy`), idle and
//! write-stall timeouts live there. Every request runs through
//! [`LineService::handle_line`], the request lifecycle in
//! [`crate::service`]; `testkit::spawn_reference` serves the same state
//! thread-per-connection as the byte-identity reference the event loop is
//! tested against.
//!
//! The layer frames lines with [`crate::framing`] (capped line framing),
//! and the request lines it delivers run against shared state:
//!
//! * an `Arc<Catalog>` (the timestep directory),
//! * a [`DatasetCache`] keeping hot timesteps (columns + WAH indexes)
//!   resident under a byte budget,
//! * a [`QueryCache`] memoizing SELECT/HIST replies by
//!   `(step, normalized query)`,
//! * [`ServerMetrics`] — per-verb counts and latency quantiles, all
//!   registered in one [`obs::Registry`] alongside the cache / store /
//!   engine collectors and scraped by the `METRICS` verb, and
//! * an [`obs::Tracer`] sampling requests into per-stage span traces
//!   (`TRACE LAST`, `TRACE <id>`) with a slow-query ring (`SLOWLOG`).
//!
//! Shutdown is graceful: the `SHUTDOWN` verb (or [`ServerHandle::shutdown`])
//! flips a flag and wakes the event loop, which drains in-flight work and
//! joins its workers before returning.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use datastore::{Catalog, DatasetCache, DatasetCacheConfig};
use fastbit::{parse_query, HistEngine};
use vdx_core::{DataExplorer, ExplorerConfig};

use crate::metrics::{ConnMetrics, ServerMetrics};
use crate::protocol::{self, Request};
use crate::query_cache::QueryCache;
use crate::service::{ConnConfig, Front, LineService};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections (at least 1).
    pub workers: usize,
    /// Hard cap on one request line in bytes (newline excluded). An
    /// oversized line is answered with `ERR line too long …` and the
    /// connection closes.
    pub max_line_bytes: usize,
    /// Close connections idle longer than this (milliseconds) with a typed
    /// `ERR idle timeout …` reply; `0` disables the idle timeout.
    pub idle_timeout_ms: u64,
    /// Close connections whose peer accepts no reply bytes for this long
    /// (milliseconds); `0` disables the write-stall timeout.
    pub write_timeout_ms: u64,
    /// Pipelining depth: complete request lines buffered per connection
    /// before the reactor pauses reading from it (at least 1).
    pub max_pipeline: usize,
    /// Admission control: requests dispatched-but-unfinished across all
    /// connections before new ones are refused with `ERR busy` (at least
    /// 1).
    pub queue_depth: usize,
    /// Hard cap on one connection's buffered unsent reply bytes; a peer
    /// that reads slower than it queries is disconnected at this point.
    pub write_buf_limit: usize,
    /// Parallel "nodes" used by catalog-wide tracking requests.
    pub nodes: usize,
    /// Worker threads used *within* one SELECT/REFINE/HIST evaluation by the
    /// chunked parallel engine (1 = exact legacy sequential path).
    pub threads: usize,
    /// Rows per evaluation chunk of the parallel engine.
    pub chunk_rows: usize,
    /// Let the chunked parallel engine answer predicates through bitmap
    /// indexes (per-query equality/range encoding selection) instead of
    /// scanning chunks. Results are byte-identical either way.
    pub index_accel: bool,
    /// Execution engine for query evaluation and histograms.
    pub engine: HistEngine,
    /// Budget and sharding of the resident dataset cache.
    pub dataset_cache: DatasetCacheConfig,
    /// Maximum memoized query replies (0 disables the query cache).
    pub query_cache_entries: usize,
    /// Trace every Nth request into the span recorder: `1` traces
    /// everything (the default), `0` disables tracing entirely.
    pub trace_sample: u64,
    /// Requests at least this slow (total wall-clock milliseconds) are
    /// retained in the `SLOWLOG` ring with their full span trees.
    pub slow_ms: u64,
}

impl ServerConfig {
    /// The default configuration with the transport limits of `conn`
    /// ([`ServerConfig::default`] is this over [`ConnConfig::default`], so
    /// the server's and the router's transport defaults cannot drift).
    pub fn with_conn(conn: ConnConfig) -> ServerConfig {
        ServerConfig {
            workers: conn.workers,
            max_line_bytes: conn.max_line_bytes,
            idle_timeout_ms: conn.idle_timeout_ms,
            write_timeout_ms: conn.write_timeout_ms,
            max_pipeline: conn.max_pipeline,
            queue_depth: conn.queue_depth,
            write_buf_limit: conn.write_buf_limit,
            nodes: 2,
            threads: 1,
            chunk_rows: fastbit::par::DEFAULT_CHUNK_ROWS,
            index_accel: false,
            engine: HistEngine::FastBit,
            dataset_cache: DatasetCacheConfig::default(),
            query_cache_entries: 1024,
            trace_sample: 1,
            slow_ms: 100,
        }
    }

    /// The transport subset of this configuration, handed to the event
    /// loop.
    pub fn conn(&self) -> ConnConfig {
        ConnConfig {
            workers: self.workers,
            max_line_bytes: self.max_line_bytes,
            idle_timeout_ms: self.idle_timeout_ms,
            write_timeout_ms: self.write_timeout_ms,
            max_pipeline: self.max_pipeline,
            queue_depth: self.queue_depth,
            write_buf_limit: self.write_buf_limit,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self::with_conn(ConnConfig::default())
    }
}

/// Shared state visible to every worker.
///
/// Query semantics live in one place: every data operation goes through the
/// shared [`DataExplorer`] (configured with the same engine and node count
/// and routed through the dataset cache), so the server cannot drift from
/// the library behaviour — replies are byte-identical by construction.
#[derive(Debug)]
pub struct ServerState {
    front: Front,
    explorer: DataExplorer,
    datasets: Arc<DatasetCache>,
    queries: Arc<QueryCache>,
}

impl ServerState {
    /// The dataset cache (for inspection in tests and the smoke driver).
    pub fn dataset_cache(&self) -> &DatasetCache {
        &self.datasets
    }

    /// The query cache.
    pub fn query_cache(&self) -> &QueryCache {
        &self.queries
    }

    /// The per-verb server metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.front.metrics
    }

    /// The connection-layer metrics (accepted/open/errors/admission).
    pub fn conn_metrics(&self) -> &ConnMetrics {
        &self.front.conn
    }

    /// The metrics registry every layer reports into (rendered by the
    /// `METRICS` verb).
    pub fn registry(&self) -> &obs::Registry {
        &self.front.registry
    }

    /// The request tracer behind `TRACE` and `SLOWLOG`.
    pub fn tracer(&self) -> &obs::Tracer {
        &self.front.tracer
    }

    /// Serve one request line through the shared request lifecycle
    /// ([`LineService::handle_line`]); returns the reply and whether the
    /// connection should close afterwards.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        LineService::handle_line(self, line)
    }

    /// Look `key` up in the query cache under a `query_cache` span noting
    /// whether it hit; a miss is counted only when `count_miss` (see
    /// [`QueryCache::probe`]).
    fn cached(&self, key: &str, count_miss: bool) -> Option<Arc<str>> {
        let _qc = obs::span("query_cache");
        let hit = if count_miss {
            self.queries.get(key)
        } else {
            self.queries.probe(key)
        };
        obs::count("hit", u64::from(hit.is_some()));
        hit
    }

    fn op_select(&self, step: usize, query: &str) -> Result<String, String> {
        let key = select_key(step, query)?;
        if let Some(reply) = self.cached(&key, true) {
            return Ok(reply.to_string());
        }
        self.front.metrics.note_evaluation();
        let beam = self
            .explorer
            .select(step, query)
            .map_err(|e| e.to_string())?;
        let reply = {
            let _ser = obs::span("serialize");
            protocol::ids_reply("SELECT", &beam.ids)
        };
        self.queries.insert(key, &reply);
        Ok(reply)
    }

    fn op_refine(&self, step: usize, ids: &[u64], query: &str) -> Result<String, String> {
        // Not memoized: the key would have to embed the whole id set.
        let expr = parse_query(query).map_err(|e| e.to_string())?;
        self.front.metrics.note_evaluation();
        let refined = self
            .explorer
            .refine_ids(step, ids, &expr)
            .map_err(|e| e.to_string())?;
        let _ser = obs::span("serialize");
        Ok(protocol::ids_reply("REFINE", &refined))
    }

    fn op_hist(
        &self,
        step: usize,
        column: &str,
        bins: usize,
        condition: Option<&str>,
    ) -> Result<String, String> {
        let key = hist_key(step, column, bins, condition)?;
        if let Some(reply) = self.cached(&key, true) {
            return Ok(reply.to_string());
        }
        self.front.metrics.note_evaluation();
        let hist = self
            .explorer
            .histogram1d(step, column, bins, condition)
            .map_err(|e| e.to_string())?;
        let reply = {
            let _ser = obs::span("serialize");
            protocol::hist_reply(&hist)
        };
        self.queries.insert(key, &reply);
        Ok(reply)
    }

    fn op_track(&self, ids: &[u64]) -> Result<String, String> {
        let key = track_key(ids);
        if let Some(reply) = self.cached(&key, true) {
            return Ok(reply.to_string());
        }
        self.front.metrics.note_evaluation();
        let points = self.explorer.track_counts(ids).map_err(|e| e.to_string())?;
        let reply = {
            let _ser = obs::span("serialize");
            protocol::track_counts_reply(&points)
        };
        self.queries.insert(key, &reply);
        Ok(reply)
    }

    /// `SAVE`: persist every timestep into the attached `vdx` store (loads
    /// go through the dataset cache, so hot timesteps serialize from
    /// memory). Steps whose segment already exists are skipped — in
    /// particular a cold `get_or_load` just wrote its segment back inside
    /// `Catalog::load`, and serializing it a second time would only double
    /// the CPU and disk work. The reply counts every persisted segment but
    /// only the bytes newly written by this request.
    fn op_save(&self) -> Result<String, String> {
        let catalog = self.explorer.catalog();
        let store = catalog
            .store()
            .ok_or("no store configured (start the server with --store-dir)")?;
        let mut segments = 0u64;
        let mut bytes = 0u64;
        for step in catalog.steps() {
            let dataset = self
                .datasets
                .get_or_load(catalog, step)
                .map_err(|e| e.to_string())?;
            if !store.contains(step) {
                bytes += store.save(&dataset).map_err(|e| e.to_string())?;
            }
            segments += 1;
        }
        Ok(format!("OK\tSAVE\t{segments}\t{bytes}"))
    }

    /// `WARM`: preload every timestep through the dataset cache. With a
    /// store attached, warm segments load without touching raw data or
    /// rebuilding an index (observable as `store_hits` in `STATS`).
    fn op_warm(&self) -> Result<String, String> {
        let catalog = self.explorer.catalog();
        if catalog.store().is_none() {
            return Err("no store configured (start the server with --store-dir)".to_string());
        }
        let steps = catalog.steps();
        let mut warmed = 0u64;
        for &step in &steps {
            if self.datasets.get_or_load(catalog, step).is_ok() {
                warmed += 1;
            }
        }
        Ok(format!("OK\tWARM\t{warmed}\t{}", steps.len()))
    }
}

/// Query-cache key of a `SELECT`: the step and the normalized query.
fn select_key(step: usize, query: &str) -> Result<String, String> {
    let expr = parse_query(query).map_err(|e| e.to_string())?;
    Ok(format!("select:{step}:{}", expr.cache_key()))
}

/// Query-cache key of a `HIST`: step, column, bins and the normalized
/// condition (`*` for none).
fn hist_key(
    step: usize,
    column: &str,
    bins: usize,
    condition: Option<&str>,
) -> Result<String, String> {
    let cond_key = condition
        .map(|c| parse_query(c).map_err(|e| e.to_string()))
        .transpose()?
        .map_or_else(|| "*".to_string(), |c| c.cache_key());
    Ok(format!("hist:{step}:{column}:{bins}:{cond_key}"))
}

/// Query-cache key of a `TRACK`: the exact id list. Tracking walks every
/// timestep (disk I/O bound when cold), so the deterministic reply is worth
/// memoizing; the key is written into one buffer sized for typical ids.
fn track_key(ids: &[u64]) -> String {
    let mut key = String::with_capacity("track:".len() + ids.len() * 8);
    key.push_str("track:");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{id}");
    }
    key
}

impl LineService for ServerState {
    const RESIDENT_VERBS: &'static [&'static str] = &["INFO", "SELECT", "HIST", "TRACK"];

    fn front(&self) -> &Front {
        &self.front
    }

    fn answer(&self, request: Request, _line: &str) -> String {
        let result = match request {
            Request::Info => Ok(protocol::info_reply(&self.explorer.steps())),
            Request::Select { step, query } => self.op_select(step, &query),
            Request::Refine { step, ids, query } => self.op_refine(step, &ids, &query),
            Request::Hist {
                step,
                column,
                bins,
                condition,
            } => self.op_hist(step, &column, bins, condition.as_deref()),
            Request::Track { ids } => self.op_track(&ids),
            Request::Save => self.op_save(),
            Request::Warm => self.op_warm(),
            // REBALANCE; the front answers every other verb.
            _ => Err("not a router (REBALANCE reloads a cluster shard map)".to_string()),
        };
        result.unwrap_or_else(|msg| protocol::err_reply(&msg))
    }

    fn stats_fields(&self, fields: &mut Vec<String>) {
        let ds = self.datasets.stats();
        let qc = self.queries.stats();
        let par = self.explorer.par_stats();
        let plans = self.explorer.plan_cache_stats();
        let store = self
            .explorer
            .catalog()
            .store()
            .map(|s| s.stats())
            .unwrap_or_default();
        let enc = fastbit::encoding_stats();
        let (enc_equality_bytes, enc_range_bytes) = self.datasets.encoding_bytes();
        fields.extend([
            format!("par_threads={}", self.explorer.par_exec().threads()),
            format!("par_chunk_rows={}", self.explorer.par_exec().chunk_rows()),
            format!("par_queries={}", par.queries),
            format!("par_chunks_pruned_empty={}", par.chunks_pruned_empty),
            format!("par_chunks_pruned_full={}", par.chunks_pruned_full),
            format!("par_chunks_scanned={}", par.chunks_scanned),
            format!("par_chunks_indexed={}", par.chunks_indexed),
            format!("enc_equality_queries={}", enc.equality_queries),
            format!("enc_range_queries={}", enc.range_queries),
            format!("enc_equality_bytes={enc_equality_bytes}"),
            format!("enc_range_bytes={enc_range_bytes}"),
            format!("ds_hits={}", ds.hits),
            format!("ds_misses={}", ds.misses),
            format!("ds_evictions={}", ds.evictions),
            format!("ds_resident_bytes={}", ds.resident_bytes),
            format!("ds_peak_resident_bytes={}", ds.peak_resident_bytes),
            format!("ds_budget_bytes={}", self.datasets.max_bytes()),
            format!("store_hits={}", store.hits),
            format!("store_misses={}", store.misses),
            format!("store_bytes_written={}", store.bytes_written),
            format!("store_indexes_built={}", store.indexes_built),
            format!("qc_hits={}", qc.hits),
            format!("qc_misses={}", qc.misses),
            format!("qc_evictions={}", qc.evictions),
            format!("qc_len={}", qc.len),
            format!("plan_cache_hits={}", plans.hits),
            format!("plan_cache_misses={}", plans.misses),
            format!("plan_cache_evictions={}", plans.evictions),
            format!("plan_cache_len={}", plans.len),
            format!("evaluations={}", self.front.metrics.evaluations()),
        ]);
    }

    /// `INFO`, or a `SELECT`/`HIST`/`TRACK` whose reply the query cache
    /// holds. The probe counts hits only, so a miss — and a query that does
    /// not even parse — is counted once, by the worker that serves it next.
    fn answer_resident(&self, request: &Request) -> Option<Arc<str>> {
        match request {
            Request::Info => Some(Arc::from(protocol::info_reply(&self.explorer.steps()))),
            Request::Select { step, query } => self.cached(&select_key(*step, query).ok()?, false),
            Request::Hist {
                step,
                column,
                bins,
                condition,
            } => {
                let key = hist_key(*step, column, *bins, condition.as_deref()).ok()?;
                self.cached(&key, false)
            }
            Request::Track { ids } => self.cached(&track_key(ids), false),
            _ => None,
        }
    }
}

/// A handle for controlling a running (or about-to-run) server.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (use this to connect when binding to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.front.addr
    }

    /// Request a graceful stop: the accept loop exits, workers drain.
    pub fn shutdown(&self) {
        self.state.front.trigger_shutdown();
    }

    /// Shared server state (caches, metrics) for inspection.
    pub fn state(&self) -> &ServerState {
        &self.state
    }
}

/// The bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) state: Arc<ServerState>,
    pub(crate) config: ServerConfig,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) serving
    /// `catalog` with `config`.
    pub fn bind(
        catalog: Arc<Catalog>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let (listener, front) = Front::bind(addr, config.trace_sample, config.slow_ms)?;
        let datasets = Arc::new(DatasetCache::new(config.dataset_cache.clone()));
        let explorer = DataExplorer::from_catalog(
            catalog,
            ExplorerConfig {
                nodes: config.nodes,
                engine: config.engine,
                threads: config.threads,
                chunk_rows: config.chunk_rows,
                index_accel: config.index_accel,
                ..Default::default()
            },
        )
        .with_dataset_cache(Arc::clone(&datasets));
        let queries = Arc::new(QueryCache::new(config.query_cache_entries));
        // One registry per server: every layer registers its instruments or
        // snapshot collectors there, and the `METRICS` verb renders it.
        explorer.register_metrics(&front.registry);
        datasets.register_metrics(&front.registry);
        queries.register_metrics(&front.registry);
        let state = Arc::new(ServerState {
            front,
            explorer,
            datasets,
            queries,
        });
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.front.addr
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serve until shutdown is requested, then drain workers and return.
    pub fn run(self) -> std::io::Result<()> {
        crate::event_loop::run(self.listener, self.state, &self.config.conn())
    }

    /// Run on a background thread, returning the control handle and the
    /// join handle of the serving thread.
    pub fn spawn(self) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datastore::DatasetCacheConfig;
    use histogram::Binning;
    use lwfa::{SimConfig, Simulation};
    use std::path::PathBuf;

    fn tiny_catalog(tag: &str) -> (Arc<Catalog>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("vdx_server_unit_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut catalog = Catalog::create(&dir).unwrap();
        let mut config = SimConfig::tiny();
        config.particles_per_step = 300;
        config.num_timesteps = 6;
        Simulation::new(config)
            .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 16 }))
            .unwrap();
        (Arc::new(catalog), dir)
    }

    fn test_server(tag: &str) -> (Server, PathBuf) {
        let (catalog, dir) = tiny_catalog(tag);
        let server = Server::bind(
            catalog,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                dataset_cache: DatasetCacheConfig {
                    max_bytes: 64 << 20,
                    shards: 2,
                },
                ..Default::default()
            },
        )
        .unwrap();
        (server, dir)
    }

    #[test]
    fn handle_line_answers_every_verb() {
        let (server, dir) = test_server("verbs");
        let state = server.handle();
        let state = state.state();
        assert_eq!(state.handle_line("PING").0, "OK\tPONG");
        assert!(state.handle_line("INFO").0.starts_with("OK\tINFO\t6\t"));
        let (select, _) = state.handle_line("SELECT\t5\tpx > 0");
        assert!(select.starts_with("OK\tSELECT\t"));
        let (hist, _) = state.handle_line("HIST\t5\tpx\t16");
        assert!(hist.starts_with("OK\tHIST\t"));
        let (track, _) = state.handle_line("TRACK\t1,2,3");
        assert!(track.starts_with("OK\tTRACK\t3\t"));
        let (refine, _) = state.handle_line("REFINE\t5\t1,2,3\tpx > 0");
        assert!(refine.starts_with("OK\tREFINE\t"));
        let (stats, _) = state.handle_line("STATS");
        assert!(stats.contains("ds_hits="));
        assert!(
            stats.contains("store_hits=0"),
            "store fields always present"
        );
        let (metrics, _) = state.handle_line("METRICS");
        assert!(metrics.starts_with("OK\tMETRICS\t"), "{metrics}");
        assert!(
            metrics.contains("vdx_requests_total{op=\"select\"} 1"),
            "{metrics}"
        );
        let (trace, _) = state.handle_line("TRACE\tLAST");
        assert!(trace.starts_with("OK\tTRACE\t"), "{trace}");
        let (slowlog, _) = state.handle_line("SLOWLOG");
        assert!(slowlog.starts_with("OK\tSLOWLOG\t"), "{slowlog}");
        assert!(
            state.handle_line("SAVE").0.starts_with("ERR\t"),
            "SAVE without --store-dir is a typed protocol error"
        );
        assert!(state.handle_line("WARM").0.starts_with("ERR\t"));
        assert!(state.handle_line("BOGUS").0.starts_with("ERR\t"));
        assert!(state
            .handle_line("SELECT\t99\tpx > 0")
            .0
            .starts_with("ERR\t"));
        assert!(state.handle_line("SELECT\t5\tpx >").0.starts_with("ERR\t"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_select_trace_walks_every_stage() {
        let (server, dir) = test_server("trace");
        let handle = server.handle();
        let state = handle.state();
        let (select, _) = state.handle_line("SELECT\t4\tpx > 0 && y > 0");
        assert!(select.starts_with("OK\tSELECT\t"), "{select}");
        let trace = state.tracer().last().expect("default sampling traces all");
        assert_eq!(trace.verb, "SELECT");
        for stage in [
            "request",
            "parse",
            "query_cache",
            "dataset_cache",
            "plan",
            "compile",
            "evaluate",
            "serialize",
        ] {
            assert!(
                trace.span(stage).is_some(),
                "missing stage {stage} in {}",
                trace.render_line()
            );
        }
        assert!(trace.total_us > 0, "{}", trace.render_line());
        assert_eq!(trace.span("query_cache").unwrap().counts, vec![("hit", 0)]);

        // A warm replay hits the query cache and loses the evaluate stage.
        let (_, _) = state.handle_line("SELECT\t4\tpx > 0 && y > 0");
        let warm = state.tracer().last().unwrap();
        assert_eq!(warm.span("query_cache").unwrap().counts, vec![("hit", 1)]);
        assert!(warm.span("evaluate").is_none(), "{}", warm.render_line());

        // TRACE LAST over the wire renders the previously finished request.
        let (reply, _) = state.handle_line("TRACE\tLAST");
        assert!(reply.starts_with("OK\tTRACE\t"), "{reply}");
        assert!(reply.contains("query_cache"), "{reply}");
        let (by_id, _) = state.handle_line(&format!("TRACE\t{}", trace.id));
        assert!(by_id.contains("evaluate"), "{by_id}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_sample_zero_disables_tracing() {
        let (catalog, dir) = tiny_catalog("notrace");
        let server = Server::bind(
            catalog,
            "127.0.0.1:0",
            ServerConfig {
                trace_sample: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let handle = server.handle();
        let state = handle.state();
        let (select, _) = state.handle_line("SELECT\t5\tpx > 0");
        assert!(select.starts_with("OK\tSELECT\t"), "{select}");
        assert_eq!(state.tracer().recorded(), 0);
        let (reply, _) = state.handle_line("TRACE\tLAST");
        assert!(reply.starts_with("ERR\t"), "{reply}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_select_is_memoized_without_reevaluation() {
        let (server, dir) = test_server("memo");
        let handle = server.handle();
        let state = handle.state();
        let (first, _) = state.handle_line("SELECT\t3\tpx > 1e9 && y > 0");
        let evals = state.metrics().evaluations();
        // Same query, different predicate order → same normalized key.
        let (second, _) = state.handle_line("SELECT\t3\ty > 0 && px > 1e9");
        assert_eq!(first, second);
        assert_eq!(state.metrics().evaluations(), evals, "answered from cache");
        assert!(state.query_cache().stats().hits >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_warm_drive_the_store_across_restarts() {
        let (catalog, dir) = tiny_catalog("savewarm");
        let store_dir = dir.join("store");
        let mut catalog = Arc::into_inner(catalog).expect("sole owner");
        catalog.attach_store(datastore::Store::open(&store_dir).unwrap());
        let server = Server::bind(Arc::new(catalog), "127.0.0.1:0", ServerConfig::default());
        let server = server.unwrap();
        let handle = server.handle();
        let state = handle.state();
        let (save, _) = state.handle_line("SAVE");
        assert!(save.starts_with("OK\tSAVE\t6\t"), "six segments: {save}");
        let (stats, _) = state.handle_line("STATS");
        assert!(stats.contains("store_bytes_written="));
        assert!(!stats.contains("store_bytes_written=0\t"));

        // A "restarted" server over the same directories: WARM must load
        // every timestep from the store, building nothing.
        let mut catalog = Catalog::open(&dir).unwrap();
        catalog.attach_store(datastore::Store::open(&store_dir).unwrap());
        let server =
            Server::bind(Arc::new(catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let handle = server.handle();
        let state = handle.state();
        let (warm, _) = state.handle_line("WARM");
        assert_eq!(warm, "OK\tWARM\t6\t6");
        let (stats, _) = state.handle_line("STATS");
        assert!(
            stats.contains("store_hits=6"),
            "warm start all hits: {stats}"
        );
        assert!(stats.contains("store_misses=0"));
        assert!(stats.contains("store_indexes_built=0"));
        // Queries after warming answer from resident, store-loaded datasets.
        let (select, _) = state.handle_line("SELECT\t5\tpx > 0");
        assert!(select.starts_with("OK\tSELECT\t"));

        // The warm datasets came from format-v2 segments, so both index
        // encodings are resident and reported; the wide open-ended query
        // above is exactly the shape the range encoding answers.
        let (stats, _) = state.handle_line("STATS");
        let field = |name: &str| -> u64 {
            stats
                .split('\t')
                .find_map(|f| f.strip_prefix(&format!("{name}=")))
                .unwrap_or_else(|| panic!("missing {name} in {stats}"))
                .parse()
                .unwrap()
        };
        assert!(field("enc_equality_bytes") > 0, "{stats}");
        assert!(field("enc_range_bytes") > 0, "{stats}");
        // The encoding counters are process-wide and monotonic; at least the
        // queries this test just ran must have been counted.
        assert!(field("enc_equality_queries") + field("enc_range_queries") > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tcp_roundtrip_and_graceful_shutdown() {
        let (server, dir) = test_server("tcp");
        let (handle, join) = server.spawn();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        assert_eq!(client.request("PING").unwrap(), "OK\tPONG");
        let reply = client.request("SELECT\t5\tpx > 0").unwrap();
        assert!(reply.starts_with("OK\tSELECT\t"));
        assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
        drop(client);
        handle.shutdown();
        join.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
