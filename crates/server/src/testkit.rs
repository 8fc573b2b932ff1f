//! Shared test/bench support: tiny generated catalogs, disposable servers,
//! the thread-per-connection reference server and concurrent client
//! drivers.
//!
//! The integration suites (`concurrent_clients`, `connection_suite`,
//! `obs_concurrency`) and the workload harness in `vdx-bench` all need the
//! same three ingredients — a small on-disk catalog, a server bound to an
//! ephemeral port with a cleanup path, and a fan-out of N concurrent
//! clients — and used to hand-roll them separately. This module is the one
//! home for those helpers. It is compiled into the library (not
//! `#[cfg(test)]`) because out-of-crate consumers (the bench crate's
//! workload driver and its tests) reuse it too.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

use datastore::Catalog;
use histogram::Binning;
use lwfa::{SimConfig, Simulation};

use crate::client::Client;
use crate::cluster::shard_map::{partition_steps, GroupSpec, ShardMap};
use crate::cluster::{Router, RouterConfig, RouterHandle};
use crate::framing::{self, LineRead};
use crate::server::{Server, ServerConfig, ServerHandle, ServerState};
use crate::service::LineService;

/// Generate a small indexed on-disk catalog under the system temp dir.
///
/// The directory is keyed on `tag` and the process id, so concurrent test
/// binaries do not collide; any stale directory from a previous run with
/// the same key is removed first. Returns the catalog and its directory —
/// callers remove the directory when done (or let [`TestServer`] do it).
pub fn tiny_catalog(
    tag: &str,
    particles: usize,
    timesteps: usize,
    index_bins: usize,
) -> (Arc<Catalog>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("vdx_testkit_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).expect("create catalog dir");
    let mut config = SimConfig::tiny();
    config.particles_per_step = particles;
    config.num_timesteps = timesteps;
    Simulation::new(config)
        .run_to_catalog(
            &mut catalog,
            Some(&Binning::EqualWidth { bins: index_bins }),
        )
        .expect("catalog generation");
    (Arc::new(catalog), dir)
}

/// A running server over a generated catalog, with teardown in one place.
#[derive(Debug)]
pub struct TestServer {
    /// Handle to the running server (address, state, shutdown).
    pub handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl TestServer {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The shared server state (metrics, caches, `handle_line`).
    pub fn state(&self) -> &ServerState {
        self.handle.state()
    }

    /// Gracefully stop the server, join its run loop (propagating any I/O
    /// error or panic), and remove the catalog directory.
    pub fn shutdown_and_clean(self) {
        self.handle.shutdown();
        self.join.join().expect("server run loop panicked").unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Generate a tiny catalog (as [`tiny_catalog`]) and spawn a server over it
/// on an ephemeral port.
pub fn spawn_tiny_server(
    tag: &str,
    particles: usize,
    timesteps: usize,
    index_bins: usize,
    config: ServerConfig,
) -> TestServer {
    let (catalog, dir) = tiny_catalog(tag, particles, timesteps, index_bins);
    spawn_server(catalog, dir, config)
}

/// Spawn a server over an already-built catalog; `dir` is removed on
/// [`TestServer::shutdown_and_clean`].
pub fn spawn_server(catalog: Arc<Catalog>, dir: PathBuf, config: ServerConfig) -> TestServer {
    let server = Server::bind(catalog, "127.0.0.1:0", config).expect("bind ephemeral port");
    let (handle, join) = server.spawn();
    TestServer { handle, join, dir }
}

/// Serve a bound [`Server`]'s state thread-per-connection instead of
/// through the event loop: the byte-identity reference the event loop is
/// tested against (`io_mode_differential`).
///
/// Each accepted connection gets a thread of its own that reads capped
/// lines with [`framing::read_line_capped`], skips empty ones, answers each
/// through [`LineService::handle_line`] and flushes after every reply. A
/// connection ends on EOF, on an oversized line (after its
/// [`framing::line_too_long_reply`]) or on a closing verb. There is no
/// reactor tier, pipelining queue, admission control, timeout or
/// [`crate::ConnMetrics`] accounting: only the request lifecycle the event
/// loop shares. [`ServerHandle::shutdown`] stops the accept loop; the run
/// thread then waits for open connections to end.
pub fn spawn_reference(
    server: Server,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        let Server {
            listener,
            state,
            config,
        } = server;
        let (state, cap) = (&*state, config.max_line_bytes);
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                if state.front().shutdown_requested() {
                    break;
                }
                if let Ok(stream) = stream {
                    scope.spawn(move || serve_reference(state, stream, cap));
                }
            }
        });
        Ok(())
    });
    (handle, join)
}

/// One connection of [`spawn_reference`]; an I/O error ends it.
fn serve_reference(state: &ServerState, stream: TcpStream, cap: usize) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match framing::read_line_capped(&mut reader, cap)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                writeln!(writer, "{}", framing::line_too_long_reply(cap))?;
                return writer.flush();
            }
            LineRead::Line(line) if line.is_empty() => continue,
            LineRead::Line(line) => line,
        };
        let (reply, close) = state.handle_line(&line);
        writeln!(writer, "{reply}")?;
        writer.flush()?;
        if close {
            return Ok(());
        }
    }
}

/// The requests whose replies [`TIER_CROSSING_CONVERSATION`] expects to be
/// memoized: send them, one at a time, to a fresh server first.
pub const TIER_CROSSING_PREFILL: [&str; 3] =
    ["SELECT\t0\tpx > 0", "HIST\t1\ty\t4\tpx > 0", "TRACK\t1,2"];

/// One pipelined conversation (catalog of at least two timesteps, after
/// [`TIER_CROSSING_PREFILL`]) that alternates between what the event loop's
/// reactor answers itself and what it dispatches to a worker: a query-cache
/// hit `SELECT`, a `REFINE` (never memoized), a missing `SELECT`, `PING`, a
/// hit conditional `HIST`, `INFO`, a hit `TRACK`, then `QUIT` and two lines
/// the `QUIT` must discard. Replies must come back in request order even
/// though a reactor answer is ready long before a worker's.
pub const TIER_CROSSING_CONVERSATION: [&str; 10] = [
    "SELECT\t0\tpx > 0",
    "REFINE\t0\t1,2,3\tpx > 0",
    "SELECT\t1\tpx > 0 && y > 0",
    "PING",
    "HIST\t1\ty\t4\tpx > 0",
    "INFO",
    "TRACK\t1,2",
    "QUIT",
    "SELECT\t0\tpx > 0",
    "PING",
];

/// One backend replica process of a [`TestCluster`].
#[derive(Debug)]
pub struct TestBackend {
    /// Handle to the running backend server.
    pub handle: ServerHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestBackend {
    /// The backend's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn stop(self) {
        self.handle.shutdown();
        self.join
            .join()
            .expect("backend run loop panicked")
            .unwrap();
    }
}

/// A running sharded cluster: one router over `groups × replicas` backend
/// servers, each replica group serving a disjoint slice of one generated
/// catalog (hard-linked into per-group subdirectories, so shards really
/// hold only their own timesteps while the full catalog stays available
/// for a single-process oracle).
#[derive(Debug)]
pub struct TestCluster {
    /// Handle to the running router (address, state, shutdown).
    pub router: RouterHandle,
    router_join: std::thread::JoinHandle<std::io::Result<()>>,
    /// Backends by `[group][replica]`; `None` once killed.
    pub backends: Vec<Vec<Option<TestBackend>>>,
    /// The shard map file the router watches (`REBALANCE` re-reads it).
    pub map_path: PathBuf,
    dir: PathBuf,
}

impl TestCluster {
    /// The router's bound address — clients connect here.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// The catalog directory (the full catalog; shard subdirectories live
    /// beneath it).
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// Spawn a single-process server over the cluster's full catalog — the
    /// byte-identity oracle for differential tests. Shut it down before
    /// [`TestCluster::shutdown_and_clean`] removes the shared directory
    /// (its own cleanup only touches a scratch subdirectory).
    pub fn spawn_oracle(&self, config: ServerConfig) -> TestServer {
        let catalog = Arc::new(Catalog::open(&self.dir).expect("open oracle catalog"));
        spawn_server(catalog, self.dir.join(".oracle-scratch"), config)
    }

    /// Kill one backend replica (graceful stop; its listener closes, so
    /// the router's next request to it fails over). Idempotent per slot.
    pub fn kill_replica(&mut self, group: usize, replica: usize) {
        if let Some(backend) = self.backends[group][replica].take() {
            backend.stop();
        }
    }

    /// Kill every replica of a group — the whole-group-down scenario.
    pub fn kill_group(&mut self, group: usize) {
        for replica in 0..self.backends[group].len() {
            self.kill_replica(group, replica);
        }
    }

    /// Gracefully stop the router and every surviving backend, then remove
    /// the catalog directory.
    pub fn shutdown_and_clean(mut self) {
        self.router.shutdown();
        self.router_join
            .join()
            .expect("router run loop panicked")
            .unwrap();
        for group in &mut self.backends {
            for slot in group.iter_mut() {
                if let Some(backend) = slot.take() {
                    backend.stop();
                }
            }
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Generate a tiny catalog and spawn a sharded cluster over it: timesteps
/// are partitioned round-robin ([`partition_steps`]) across `n_groups`
/// replica groups of `replicas_per_group` backend servers each, a shard
/// map file is written next to the catalog, and a router is bound over it
/// on an ephemeral port.
#[allow(clippy::too_many_arguments)]
pub fn spawn_cluster(
    tag: &str,
    particles: usize,
    timesteps: usize,
    index_bins: usize,
    n_groups: usize,
    replicas_per_group: usize,
    backend_config: ServerConfig,
    router_config: RouterConfig,
) -> TestCluster {
    let (catalog, dir) = tiny_catalog(tag, particles, timesteps, index_bins);
    let steps = catalog.steps();
    drop(catalog);
    let partitions = partition_steps(&steps, n_groups);

    let mut backends: Vec<Vec<Option<TestBackend>>> = Vec::new();
    let mut groups: Vec<GroupSpec> = Vec::new();
    for (g, owned) in partitions.iter().enumerate() {
        // Hard-link (or copy) the owned timestep files into the group's
        // subdirectory, so each shard's catalog holds only its own steps.
        let shard_dir = dir.join(format!("shard{g}"));
        std::fs::create_dir_all(&shard_dir).expect("create shard dir");
        for &step in owned {
            for ext in ["vdc", "vdi", "vdj"] {
                let name = format!("timestep_{step:05}.{ext}");
                let src = dir.join(&name);
                if src.exists() {
                    let dst = shard_dir.join(&name);
                    if std::fs::hard_link(&src, &dst).is_err() {
                        std::fs::copy(&src, &dst).expect("copy timestep file");
                    }
                }
            }
        }
        let mut replicas = Vec::new();
        let mut group_backends = Vec::new();
        for _ in 0..replicas_per_group.max(1) {
            let catalog = Arc::new(Catalog::open(&shard_dir).expect("open shard catalog"));
            let server =
                Server::bind(catalog, "127.0.0.1:0", backend_config.clone()).expect("bind backend");
            let (handle, join) = server.spawn();
            replicas.push(handle.addr());
            group_backends.push(Some(TestBackend { handle, join }));
        }
        backends.push(group_backends);
        groups.push(GroupSpec {
            steps: owned.clone(),
            replicas,
        });
    }

    let map = ShardMap { groups };
    let map_path = dir.join("shard_map.toml");
    std::fs::write(&map_path, map.render()).expect("write shard map");
    let router =
        Router::bind_from_file(&map_path, "127.0.0.1:0", router_config).expect("bind router");
    let (router, router_join) = router.spawn();
    TestCluster {
        router,
        router_join,
        backends,
        map_path,
        dir,
    }
}

/// Run `f(index)` on `clients` scoped threads concurrently and collect the
/// results in index order. A panic in any closure propagates to the caller
/// (so assertions inside `f` fail the test that used the helper).
///
/// This is the bare fan-out: `f` owns its connection lifecycle, which the
/// workload driver uses to connect at each session's open-loop arrival time
/// rather than up front.
pub fn fan_out<T, F>(clients: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..clients).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, slot) in slots.iter_mut().enumerate() {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every client thread ran"))
        .collect()
}

/// Drive `clients` concurrent connections against `addr`: each scoped
/// thread connects, runs `f(index, &mut client)`, then leaves politely with
/// `QUIT` (asserted to answer `OK\tBYE`). Results come back in index order;
/// a panic inside `f` propagates.
pub fn drive_clients<T, F>(addr: SocketAddr, clients: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Client) -> T + Sync,
{
    fan_out(clients, |i| {
        let mut client =
            Client::connect(addr).unwrap_or_else(|e| panic!("client {i} connect failed: {e}"));
        let out = f(i, &mut client);
        assert_eq!(
            client.request("QUIT").expect("QUIT after workload"),
            "OK\tBYE",
            "client {i} did not get a clean goodbye"
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let got = fan_out(8, |i| i * i);
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn drive_clients_round_trips_against_a_tiny_server() {
        let server = spawn_tiny_server(
            "testkit_smoke",
            100,
            2,
            8,
            ServerConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let replies = drive_clients(server.addr(), 4, |i, client| {
            let pong = client.request("PING").unwrap();
            assert_eq!(pong, "OK\tPONG");
            let select = client
                .request(&format!("SELECT\t{}\tpx > 0", i % 2))
                .unwrap();
            assert!(select.starts_with("OK\tSELECT\t"), "{select:?}");
            select
        });
        assert_eq!(replies.len(), 4);
        assert_eq!(
            replies[0], replies[2],
            "same step, same deterministic reply"
        );
        server.shutdown_and_clean();
    }
}
