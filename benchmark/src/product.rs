//! The adapter: the one file of the benchmark that calls product code.
//!
//! Everything else in this package talks to VDX through the items below, so
//! a product refactor that keeps this allow-list compiling cannot change
//! what the benchmark measures, and a later `benchmark` issue has one file
//! to port. The allow-list is:
//!
//! * `lwfa`: `SimConfig` (public fields), `Simulation::{new, step, snapshot}`
//! * `datastore`: `Catalog::{create, open_with_store, write_timestep,
//!   attach_store, steps}`, `Store::open`, `DatasetCache::{new, get_or_load}`,
//!   `DatasetCacheConfig`, `ParticleTable::{float_column, num_rows}`,
//!   `Dataset` as a `fastbit::ColumnProvider`
//! * `vdx_core::histogram::Hist1D` and `vdx_core::pipeline::TrackingOutput`
//!   as opaque values passed from `DataExplorer` to `protocol::*_reply`
//! * `vdx_core`: `DataExplorer::{from_catalog, with_dataset_cache, catalog,
//!   steps, select, refine_ids, histogram1d, track}`, `ExplorerConfig { threads,
//!   ..Default::default() }` (and its default `index_binning`)
//! * `fastbit`: `parse_query`, `Program::compile`, `compile::execute`,
//!   `ExecStrategy::Auto`, `ParExec::new`, `par::DEFAULT_CHUNK_ROWS`,
//!   `par::evaluate_chunk_masks_program`, `ChunkMasks::to_selection`
//! * `vdx_server`: `Server::{bind, spawn}`, `ServerConfig { workers,
//!   threads, dataset_cache, ..Default::default() }`, `ServerHandle::{addr,
//!   state, shutdown}`, `ServerState::{handle_line, metrics}` with
//!   `ServerMetrics::evaluations`, `Router::{bind, spawn}`,
//!   `RouterConfig { conn, ..Default::default() }`, `ConnConfig { workers,
//!   ..Default::default() }`, `RouterHandle::{addr, state, shutdown}`,
//!   `RouterState::handle_line`, `ShardMap`, `GroupSpec`, `partition_steps`,
//!   `Client::{connect, request}`, `parse_stats`, `protocol::{parse_request,
//!   Request, ids_reply, hist_reply, track_reply, info_reply, err_reply}`,
//!   and the wire verbs `PING INFO STATS SELECT REFINE HIST TRACK WARM`.
//!
//! It deliberately names none of `IoMode::Threaded`, `HistEngine`,
//! `index_accel`, `nodes`/`NodePool`, `evaluate_with_strategy`, sidecar file
//! names, `vdx_server::testkit`, or anything from `crates/bench`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use datastore::{Catalog, DatasetCache, DatasetCacheConfig, ParticleTable, Store};
use fastbit::{parse_query, ExecStrategy, ParExec, Program};
use lwfa::{SimConfig, Simulation};
use vdx_core::{DataExplorer, ExplorerConfig};
use vdx_server::protocol::{self, Request};
use vdx_server::{
    cluster::{partition_steps, GroupSpec},
    ConnConfig, Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle, ShardMap,
};

pub use vdx_server::Client;

/// A shared, opened catalog (opaque outside this file).
pub type CatalogRef = Arc<Catalog>;

/// Worker threads of every server and router: `nproc` of the calibration box.
pub const WORKERS: usize = 2;

/// Columns the scripts draw predicates from, profiled at ingest.
const PROFILED_COLUMNS: [&str; 4] = ["px", "x", "y", "py"];

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Size of a generated dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Particles inside the simulation window at each timestep.
    pub rows: usize,
    /// Timesteps generated.
    pub steps: usize,
}

/// How a serving stack is configured beyond `ServerConfig::default()`.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Threads inside one evaluation (`> 1` selects the chunked `par` engine).
    pub threads: usize,
    /// Dataset-cache byte budget.
    pub cache_bytes: usize,
    /// Dataset-cache shards (the budget is split evenly between them).
    pub cache_shards: usize,
}

impl StackConfig {
    fn dataset_cache(&self) -> DatasetCacheConfig {
        DatasetCacheConfig {
            max_bytes: self.cache_bytes,
            shards: self.cache_shards,
        }
    }

    fn server(&self) -> ServerConfig {
        ServerConfig {
            workers: WORKERS,
            threads: self.threads,
            dataset_cache: self.dataset_cache(),
            ..Default::default()
        }
    }

    fn explorer(&self) -> ExplorerConfig {
        ExplorerConfig {
            threads: self.threads,
            ..Default::default()
        }
    }
}

/// The LWFA run behind every workload: the paper's 2D preset with the two
/// injection events and the dephasing moved inside `shape.steps`, so beams
/// exist to select, refine and track however few timesteps are generated.
fn sim_config(shape: Shape, seed: u64) -> SimConfig {
    let mut config = SimConfig::paper_2d(shape.rows);
    config.num_timesteps = shape.steps;
    config.beam2_injection_step = 1;
    config.beam1_injection_step = 2.min(shape.steps.saturating_sub(1));
    config.beam1_dephasing_step = (shape.steps * 3 / 4).max(3);
    config.seed = seed;
    config
}

/// Sorted value samples per timestep and column, taken while ingesting; the
/// script generator draws thresholds from their quantiles.
#[derive(Debug, Default, Clone)]
pub struct DataProfile {
    /// By timestep, then by column.
    samples: Vec<BTreeMap<&'static str, Vec<f64>>>,
}

impl DataProfile {
    const SAMPLES: usize = 2048;

    /// Profile the next timestep (they are recorded in order).
    fn record(&mut self, table: &ParticleTable) {
        let stride = (table.num_rows() / Self::SAMPLES).max(1);
        let mut columns = BTreeMap::new();
        for column in PROFILED_COLUMNS {
            let values = table
                .float_column(column)
                .expect("generated tables carry every profiled column");
            let mut sample: Vec<f64> = values.iter().step_by(stride).copied().collect();
            sample.sort_by(f64::total_cmp);
            columns.insert(column, sample);
        }
        self.samples.push(columns);
    }

    /// The `q`-quantile (0..=1) of `column` at `step`.
    pub fn quantile(&self, step: usize, column: &str, q: f64) -> f64 {
        let sample = self
            .samples
            .get(step)
            .and_then(|columns| columns.get(column))
            .unwrap_or_else(|| panic!("no profile for step {step} column {column}"));
        let last = sample.len() - 1;
        sample[((q.clamp(0.0, 1.0) * last as f64).round() as usize).min(last)]
    }
}

/// What one ingest cost, by product layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct IngestTimes {
    /// `lwfa`: advancing the simulation and snapshotting each timestep.
    pub generate_s: f64,
    /// `datastore::Catalog::write_timestep`: raw columns plus index build.
    pub ingest_s: f64,
    /// Rows written over all timesteps.
    pub rows: u64,
}

/// Generate `shape` from `seed` and ingest it into `groups` catalogs under
/// `dir` (timestep ownership by the product's reference partitioning), each
/// with a segment store attached. `groups == 1` is the single-server layout.
pub fn generate_and_ingest(
    shape: Shape,
    seed: u64,
    dir: &Path,
    groups: usize,
    mut profile: Option<&mut DataProfile>,
) -> io::Result<(Vec<CatalogRef>, IngestTimes)> {
    let binning = ExplorerConfig::default().index_binning;
    let all_steps: Vec<usize> = (0..shape.steps).collect();
    let owners = partition_steps(&all_steps, groups);
    let mut catalogs = Vec::with_capacity(groups);
    for g in 0..groups {
        catalogs.push(Catalog::create(dir.join(format!("catalog{g}"))).map_err(other)?);
    }
    let mut times = IngestTimes::default();
    let started = Instant::now();
    let mut sim = Simulation::new(sim_config(shape, seed));
    times.generate_s += started.elapsed().as_secs_f64();
    for step in 0..shape.steps {
        let started = Instant::now();
        if step > 0 {
            sim.step();
        }
        let table = sim.snapshot();
        times.generate_s += started.elapsed().as_secs_f64();
        if let Some(profile) = profile.as_deref_mut() {
            profile.record(&table);
        }
        let owner = owners
            .iter()
            .position(|steps| steps.contains(&step))
            .expect("every step has an owner");
        let started = Instant::now();
        catalogs[owner]
            .write_timestep(step, &table, Some(&binning))
            .map_err(other)?;
        times.ingest_s += started.elapsed().as_secs_f64();
        times.rows += table.num_rows() as u64;
    }
    let catalogs = catalogs
        .into_iter()
        .enumerate()
        .map(|(g, mut catalog)| {
            let store = Store::open(dir.join(format!("store{g}"))).map_err(other)?;
            catalog.attach_store(store);
            Ok(Arc::new(catalog))
        })
        .collect::<io::Result<Vec<_>>>()?;
    Ok((catalogs, times))
}

/// Reopen, with their stores, the catalogs an earlier
/// [`generate_and_ingest`] into `dir` left there.
pub fn open_catalogs(dir: &Path, groups: usize) -> io::Result<Vec<CatalogRef>> {
    (0..groups)
        .map(|g| {
            let catalog = Catalog::open_with_store(
                dir.join(format!("catalog{g}")),
                dir.join(format!("store{g}")),
            );
            Ok(Arc::new(catalog.map_err(other)?))
        })
        .collect()
}

type Serving = JoinHandle<io::Result<()>>;

/// A running serving stack on `127.0.0.1:0`: one server, or a router over
/// single-replica shard groups (all in this process).
pub struct Stack {
    backends: Vec<(ServerHandle, Serving)>,
    router: Option<(RouterHandle, Serving)>,
}

impl Stack {
    /// One server over `catalogs[0]`, or a router over one backend per
    /// catalog when there are several.
    pub fn start(catalogs: &[CatalogRef], config: &StackConfig) -> io::Result<Stack> {
        let mut backends = Vec::with_capacity(catalogs.len());
        for catalog in catalogs {
            let server = Server::bind(Arc::clone(catalog), "127.0.0.1:0", config.server())?;
            backends.push(server.spawn());
        }
        let router = if catalogs.len() > 1 {
            let map = ShardMap {
                groups: catalogs
                    .iter()
                    .zip(&backends)
                    .map(|(catalog, (handle, _))| GroupSpec {
                        steps: catalog.steps(),
                        replicas: vec![handle.addr()],
                    })
                    .collect(),
            };
            let config = RouterConfig {
                conn: ConnConfig {
                    workers: WORKERS,
                    ..Default::default()
                },
                ..Default::default()
            };
            Some(Router::bind(map, "127.0.0.1:0", config)?.spawn())
        } else {
            None
        };
        Ok(Stack { backends, router })
    }

    /// Where clients connect: the router when there is one.
    pub fn addr(&self) -> SocketAddr {
        match &self.router {
            Some((router, _)) => router.addr(),
            None => self.backends[0].0.addr(),
        }
    }

    /// Shard groups behind the front door (1 for a single server).
    pub fn groups(&self) -> usize {
        self.backends.len()
    }

    /// The `dispatch` depth: the front door's line handler, called in
    /// process without a socket.
    pub fn handle_line(&self, line: &str) -> String {
        match &self.router {
            Some((router, _)) => router.state().handle_line(line).0,
            None => self.backends[0].0.state().handle_line(line).0,
        }
    }

    /// Evaluations run so far (requests the QueryCache did not answer),
    /// summed over the backends; cheap enough to read around every request.
    pub fn evaluations(&self) -> u64 {
        self.backends
            .iter()
            .map(|(handle, _)| handle.state().metrics().evaluations())
            .sum()
    }

    /// Every numeric `STATS` field, summed over the front door and all
    /// backends (a single server is its own front door).
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut replies: Vec<String> = self
            .backends
            .iter()
            .map(|(handle, _)| handle.state().handle_line("STATS").0)
            .collect();
        if let Some((router, _)) = &self.router {
            replies.push(router.state().handle_line("STATS").0);
        }
        let mut sum = BTreeMap::new();
        for reply in replies {
            for (key, value) in vdx_server::parse_stats(&reply) {
                if let Ok(n) = value.parse::<u64>() {
                    *sum.entry(key).or_insert(0) += n;
                }
            }
        }
        sum
    }

    /// Stop every listener and wait for its threads.
    pub fn shutdown(self) -> io::Result<()> {
        if let Some((router, serving)) = self.router {
            router.shutdown();
            serving.join().map_err(|_| other("router panicked"))??;
        }
        for (handle, serving) in self.backends {
            handle.shutdown();
            serving.join().map_err(|_| other("server panicked"))??;
        }
        Ok(())
    }
}

/// Time spent under one `explorer`-depth call, by span.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExplorerTimes {
    /// `protocol::parse_request`.
    pub parse_ns: u64,
    /// The `DataExplorer` call.
    pub explorer_ns: u64,
    /// `protocol::*_reply`.
    pub serialize_ns: u64,
}

/// The `explorer` depth and the correctness oracle: request lines answered
/// by direct `DataExplorer` calls formatted through `protocol::*_reply`,
/// with no server, no QueryCache and no socket.
pub struct Explorer {
    explorer: DataExplorer,
    cache: Arc<DatasetCache>,
}

/// What `WARM` does to a server's cache: load every timestep through it.
fn warm(cache: &DatasetCache, catalog: &Catalog) -> Result<(), String> {
    for step in catalog.steps() {
        cache
            .get_or_load(catalog, step)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

impl Explorer {
    /// An explorer over `catalog` with its own dataset cache, configured as
    /// a server built from `config` configures its own.
    pub fn new(catalog: CatalogRef, config: &StackConfig) -> Explorer {
        let cache = Arc::new(DatasetCache::new(config.dataset_cache()));
        Explorer {
            explorer: DataExplorer::from_catalog(catalog, config.explorer())
                .with_dataset_cache(Arc::clone(&cache)),
            cache,
        }
    }

    /// Bring the dataset cache to the state `WARM` leaves a server's in.
    pub fn warm(&self) -> Result<(), String> {
        warm(&self.cache, self.explorer.catalog())
    }

    /// The reply a correct server gives to `line`.
    pub fn reply(&self, line: &str) -> String {
        self.reply_timed(line).0
    }

    /// [`Explorer::reply`] with the benchmark's spans around each public call.
    pub fn reply_timed(&self, line: &str) -> (String, ExplorerTimes) {
        let mut times = ExplorerTimes::default();
        let t0 = Instant::now();
        let parsed = protocol::parse_request(line);
        times.parse_ns = t0.elapsed().as_nanos() as u64;
        let request = match parsed {
            Ok(request) => request,
            Err(message) => return (protocol::err_reply(&message), times),
        };
        let t1 = Instant::now();
        let answered = self.answer(request);
        times.explorer_ns = t1.elapsed().as_nanos() as u64;
        let t2 = Instant::now();
        let reply = match answered {
            Ok(Answer::Fixed(text)) => text.to_string(),
            Ok(Answer::Info(steps)) => protocol::info_reply(&steps),
            Ok(Answer::Ids(verb, ids)) => protocol::ids_reply(verb, &ids),
            Ok(Answer::Hist(hist)) => protocol::hist_reply(&hist),
            Ok(Answer::Track(tracking)) => protocol::track_reply(&tracking),
            Err(message) => protocol::err_reply(&message),
        };
        times.serialize_ns = t2.elapsed().as_nanos() as u64;
        (reply, times)
    }

    fn answer(&self, request: Request) -> Result<Answer, String> {
        let text = |e: vdx_core::VdxError| e.to_string();
        match request {
            Request::Ping => Ok(Answer::Fixed("OK\tPONG")),
            Request::Info => Ok(Answer::Info(self.explorer.steps())),
            Request::Select { step, query } => self
                .explorer
                .select(step, &query)
                .map(|beam| Answer::Ids("SELECT", beam.ids))
                .map_err(text),
            Request::Refine { step, ids, query } => {
                let expr = parse_query(&query).map_err(|e| e.to_string())?;
                self.explorer
                    .refine_ids(step, &ids, &expr)
                    .map(|ids| Answer::Ids("REFINE", ids))
                    .map_err(text)
            }
            Request::Hist {
                step,
                column,
                bins,
                condition,
            } => self
                .explorer
                .histogram1d(step, &column, bins, condition.as_deref())
                .map(Answer::Hist)
                .map_err(text),
            Request::Track { ids } => self.explorer.track(&ids).map(Answer::Track).map_err(text),
            other => Err(format!("{} is not a benchmark verb", other.verb())),
        }
    }
}

enum Answer {
    Fixed(&'static str),
    Info(Vec<usize>),
    Ids(&'static str, Vec<u64>),
    Hist(vdx_core::histogram::Hist1D),
    Track(vdx_core::pipeline::TrackingOutput),
}

/// Time spent under one `engine`-depth call, by span.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTimes {
    /// `DatasetCache::get_or_load`, over every timestep the request touches.
    pub load_ns: u64,
    /// `parse_query` + `Program::compile` of the request's query text.
    pub compile_ns: u64,
    /// `compile::execute`, or the chunked equivalent when `threads > 1`.
    pub evaluate_ns: u64,
}

/// The `engine` depth: what a `DataExplorer` call does underneath, spelled
/// out from public `datastore` and `fastbit` calls so each gets its own span.
pub struct Engine {
    catalog: CatalogRef,
    cache: DatasetCache,
    par: Option<ParExec>,
}

impl Engine {
    /// A fresh dataset cache over `catalog`, configured as a server built
    /// from `config` configures its own.
    pub fn new(catalog: CatalogRef, config: &StackConfig) -> Engine {
        Engine {
            catalog,
            cache: DatasetCache::new(config.dataset_cache()),
            par: (config.threads > 1)
                .then(|| ParExec::new(config.threads, fastbit::par::DEFAULT_CHUNK_ROWS)),
        }
    }

    /// Bring the dataset cache to the state `WARM` leaves a server's in.
    pub fn warm(&self) -> Result<(), String> {
        warm(&self.cache, &self.catalog)
    }

    /// Load, compile and evaluate what `line` asks for, timing each.
    pub fn run(&self, line: &str) -> Result<EngineTimes, String> {
        let mut times = EngineTimes::default();
        let (steps, query) = match protocol::parse_request(line)? {
            Request::Select { step, query } | Request::Refine { step, query, .. } => {
                (vec![step], Some(query))
            }
            Request::Hist {
                step, condition, ..
            } => (vec![step], condition),
            Request::Track { .. } => (self.catalog.steps(), None),
            _ => return Ok(times),
        };
        // A catalog-wide request fans its loads out over the server's two
        // tracking nodes; loading strided over as many threads keeps this
        // span comparable with the explorer span that contains it.
        let load = |steps: &mut dyn Iterator<Item = &usize>| {
            let mut last = None;
            for &step in steps {
                let loaded = self.cache.get_or_load(&self.catalog, step);
                last = Some(loaded.map_err(|e| e.to_string())?);
            }
            Ok::<_, String>(last)
        };
        let t0 = Instant::now();
        let steps = &steps[..];
        let dataset = if steps.len() == 1 {
            load(&mut steps.iter())?
        } else {
            std::thread::scope(|scope| {
                let lanes: Vec<_> = (0..WORKERS)
                    .map(|lane| {
                        scope.spawn(move || load(&mut steps.iter().skip(lane).step_by(WORKERS)))
                    })
                    .collect();
                lanes
                    .into_iter()
                    .map(|lane| lane.join().expect("load thread panicked"))
                    .collect::<Result<Vec<_>, _>>()
            })?
            .pop()
            .flatten()
        };
        times.load_ns = t0.elapsed().as_nanos() as u64;
        let (Some(dataset), Some(query)) = (dataset, query) else {
            return Ok(times);
        };
        let t1 = Instant::now();
        let program = Program::compile(&parse_query(&query).map_err(|e| e.to_string())?);
        times.compile_ns = t1.elapsed().as_nanos() as u64;
        let t2 = Instant::now();
        let selection = match &self.par {
            Some(par) => fastbit::par::evaluate_chunk_masks_program(&program, &*dataset, par)
                .map(|masks| masks.to_selection()),
            None => fastbit::compile::execute(&program, &*dataset, ExecStrategy::Auto),
        };
        black_box(selection.map_err(|e| e.to_string())?);
        times.evaluate_ns = t2.elapsed().as_nanos() as u64;
        Ok(times)
    }
}
