//! The request lifecycle and the connection-service seam, shared by the
//! single-process server and the cluster router.
//!
//! Both [`crate::Server`] and the scatter-gather router
//! ([`crate::cluster::Router`]) speak the same line protocol over the same
//! two connection layers — the blocking worker pool and the
//! [`crate::event_loop`] reactor. This module owns everything between "how
//! bytes move" and "what a request means" that does not depend on which of
//! the two answers:
//!
//! * [`LineService::handle_line`] — the one entry point of both connection
//!   layers — and [`LineService::answer_inline`], the reactor tier's, run
//!   one request lifecycle: begin the sampled trace, pair the in-flight
//!   gauge, parse under the `parse` span, pick the per-verb instrument
//!   ([`ServerMetrics::op`]), answer the front's own verbs (`PING`, `STATS`,
//!   `METRICS`, `TRACE`, `SLOWLOG`, `QUIT`, `SHUTDOWN`), and record the
//!   reply by its bytes. A service implements only [`LineService::answer`],
//!   its `STATS` fields and, optionally, [`LineService::answer_resident`] —
//!   so every request, whichever service and tier answers it, is traced,
//!   gauged and recorded exactly once, here.
//! * [`Front`] — the state that lifecycle runs on: the per-verb and
//!   connection metrics, the registry, the tracer, the io-mode, the bound
//!   address and the shutdown flag.
//! * `run_listener` — capped framing, idle/write-stall timeouts,
//!   pipelining, admission control and [`ConnMetrics`] accounting for any
//!   [`LineService`], so the router inherits the hardened connection
//!   machinery instead of reimplementing it.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use obs::{Registry, RequestGuard, Tracer};
use parking_lot::Mutex;

use crate::framing::{self, LineRead};
use crate::metrics::{ConnMetrics, OpMetrics, ServerMetrics};
use crate::protocol::{self, Request};
use crate::server::IoMode;

/// The reply to `PING`.
const PONG: &str = "OK\tPONG";

/// What a service's front door owns whatever it serves: the per-verb and
/// connection metrics, the registry they report into, the tracer, the
/// io-mode, the bound address and the shutdown flag.
#[derive(Debug)]
pub struct Front {
    pub(crate) metrics: ServerMetrics,
    pub(crate) conn: ConnMetrics,
    pub(crate) registry: Registry,
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) io_mode: IoMode,
    pub(crate) addr: SocketAddr,
    started: Instant,
    shutdown: AtomicBool,
}

impl Front {
    /// Bind `addr` and build the front of a service listening there: one
    /// registry holding the per-verb and connection instruments plus the
    /// uptime and traces-recorded collectors (the service registers its own
    /// after them), and a tracer sampling every `trace_sample`th request
    /// with `slow_ms` as the `SLOWLOG` threshold.
    pub(crate) fn bind(
        addr: &str,
        io_mode: IoMode,
        trace_sample: u64,
        slow_ms: u64,
    ) -> std::io::Result<(TcpListener, Front)> {
        let listener = TcpListener::bind(addr)?;
        let registry = Registry::new();
        let metrics = ServerMetrics::new(&registry);
        let conn = ConnMetrics::new(&registry);
        let tracer = Arc::new(Tracer::new(obs::TraceConfig {
            sample_every: trace_sample,
            slow_us: slow_ms.saturating_mul(1000),
            ..obs::TraceConfig::default()
        }));
        let started = Instant::now();
        registry.gauge_fn(
            "vdx_uptime_seconds",
            "Seconds since the server started.",
            &[],
            move || started.elapsed().as_secs_f64(),
        );
        let recorder = Arc::clone(&tracer);
        registry.counter_fn(
            "vdx_traces_recorded_total",
            "Request traces recorded by the sampler.",
            &[],
            move || recorder.recorded(),
        );
        let front = Front {
            metrics,
            conn,
            registry,
            tracer,
            io_mode,
            addr: listener.local_addr()?,
            started,
            shutdown: AtomicBool::new(false),
        };
        Ok((listener, front))
    }

    /// True once a graceful shutdown has been requested; the accept loop
    /// stops and in-flight work drains.
    pub(crate) fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Request a graceful shutdown.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Record one answered request by its reply bytes: `OK…` records its
    /// latency under `metric` (and the `meta` aggregate when `meta`); the
    /// exact `ERR busy` line — a backend's admission control passed through
    /// a router — counts as a busy rejection, exactly as local admission
    /// control would, with the per-verb metrics untouched; any other `ERR`
    /// counts as an error.
    fn record(&self, metric: &OpMetrics, meta: bool, started: Instant, reply: &str) {
        if reply.starts_with("OK") {
            let elapsed = started.elapsed();
            metric.record(elapsed);
            if meta {
                self.metrics.meta.record(elapsed);
            }
        } else if reply == framing::BUSY_REPLY {
            self.conn.note_busy_rejection();
        } else {
            metric.record_error();
            if meta {
                self.metrics.meta.record_error();
            }
        }
    }

    /// The reply to one of the front's own verbs, or `None` for a verb the
    /// service answers.
    fn reply<S: LineService + ?Sized>(&self, service: &S, request: &Request) -> Option<String> {
        Some(match request {
            Request::Ping => PONG.to_string(),
            Request::Stats => {
                let mut fields = Vec::new();
                service.stats_fields(&mut fields);
                self.stats_fields(&mut fields);
                format!("OK\tSTATS\t{}", fields.join("\t"))
            }
            Request::Metrics => protocol::metrics_reply(&self.registry.render()),
            Request::Trace { id } => self
                .trace_reply(*id)
                .unwrap_or_else(|msg| protocol::err_reply(&msg)),
            Request::SlowLog { limit } => protocol::slowlog_reply(&self.tracer.slowlog(*limit)),
            _ => return None,
        })
    }

    /// The `STATS` fields every service reports, after its own.
    fn stats_fields(&self, fields: &mut Vec<String>) {
        let m = &self.metrics;
        for (name, op) in [
            ("select", &m.select),
            ("refine", &m.refine),
            ("hist", &m.hist),
            ("track", &m.track),
            ("meta", &m.meta),
            ("ping", &m.ping),
            ("info", &m.info),
            ("stats", &m.stats),
            ("save", &m.save),
            ("warm", &m.warm),
            ("metrics", &m.metrics),
            ("trace", &m.trace),
            ("slowlog", &m.slowlog),
        ] {
            ServerMetrics::append_op_fields(fields, name, op);
        }
        fields.push(format!("io_mode={}", self.io_mode));
        fields.push(format!("connections_accepted={}", self.conn.accepted()));
        fields.push(format!("connections_open={}", self.conn.open()));
        fields.push(format!("connection_errors={}", self.conn.errors()));
        fields.push(format!("busy_rejections={}", self.conn.busy_rejections()));
        fields.push(format!("reactor_replies={}", self.conn.reactor_replies()));
        fields.push(format!("idle_disconnects={}", self.conn.idle_disconnects()));
        fields.push(format!("lines_too_long={}", self.conn.lines_too_long()));
        fields.push(format!("uptime_s={}", self.started.elapsed().as_secs()));
        fields.push(format!("inflight_requests={}", m.inflight().get()));
        fields.push(format!("traces_recorded={}", self.tracer.recorded()));
        fields.push(format!("trace_ring_len={}", self.tracer.ring_len()));
        fields.push(format!("slowlog_len={}", self.tracer.slowlog_len()));
    }

    /// `TRACE LAST` / `TRACE <id>`: fetch a recorded trace. The request's
    /// own trace is still open while this runs (the guard drops after the
    /// reply), so `LAST` always refers to the previously finished request.
    fn trace_reply(&self, id: Option<u64>) -> Result<String, String> {
        let trace = match id {
            None => self
                .tracer
                .last()
                .ok_or("no trace recorded yet (is --trace-sample 0?)")?,
            Some(id) => self
                .tracer
                .get(id)
                .ok_or_else(|| format!("no trace {id} in the ring or slowlog"))?,
        };
        Ok(protocol::trace_reply(&trace))
    }
}

/// A request-line service servable by either connection layer.
///
/// A service answers requests; the provided [`LineService::handle_line`]
/// and [`LineService::answer_inline`] wrap every answer in the one request
/// lifecycle its [`Front`] runs. Implementations must be cheap to call
/// concurrently: both layers call `handle_line` from a pool of worker
/// threads, and the event loop calls `answer_inline` from its reactor
/// thread.
pub trait LineService: Send + Sync + 'static {
    /// Verbs besides `PING` (upper case) whose reply
    /// [`LineService::answer_resident`] may hold. The reactor neither
    /// parses nor traces a line with any other verb — a `REFINE` id list,
    /// say.
    const RESIDENT_VERBS: &'static [&'static str] = &[];

    /// The front every request of this service runs through.
    fn front(&self) -> &Front;

    /// Answer a request the front does not answer itself (every verb but
    /// `PING`, `STATS`, `METRICS`, `TRACE`, `SLOWLOG`, `QUIT` and
    /// `SHUTDOWN`); `line` is the request line as received. The reply is an
    /// `OK…` or `ERR…` line and is recorded by those bytes.
    fn answer(&self, request: Request, line: &str) -> String;

    /// Append this service's own `STATS` fields; the front's common fields
    /// follow them.
    fn stats_fields(&self, fields: &mut Vec<String>);

    /// The reactor tier: the reply to `request` (one of
    /// [`LineService::RESIDENT_VERBS`]) if it is already resident in
    /// memory, else `None`. The reactor serves every socket, so this never
    /// evaluates, compiles, loads or touches disk, and it records nothing
    /// the worker that serves a `None` would record again (a query-cache
    /// probe counts hits, never misses). The default holds nothing.
    fn answer_resident(&self, _request: &Request) -> Option<Arc<str>> {
        None
    }

    /// Serve one request line; returns the reply and whether the connection
    /// should close after it is written. The whole request runs inside a
    /// sampled trace (the guard assembles the span tree when it drops,
    /// after the reply is ready) and under the in-flight gauge.
    fn handle_line(&self, line: &str) -> (String, bool) {
        let front = self.front();
        let trace = front.tracer.begin(line);
        front.metrics.inflight().inc();
        let result = serve(self, line, &trace);
        front.metrics.inflight().dec();
        drop(trace);
        result
    }

    /// The reactor tier: answer `line` on the event loop's own thread —
    /// `PING`, or whatever [`LineService::answer_resident`] holds — with the
    /// trace, per-verb record and in-flight gauge `handle_line` would have
    /// given it, plus `reactor=1` on the trace's `request` span. Anything
    /// else (a miss, a parse error, any other verb) returns `None` having
    /// recorded nothing, its trace discarded with its sampling turn, so the
    /// worker that serves it next accounts it exactly once. Called only
    /// when none of the connection's earlier requests is still on a worker,
    /// so replies stay in request order; the threaded layer never calls it.
    fn answer_inline(&self, line: &str) -> Option<(Arc<str>, bool)> {
        let verb = line.split('\t').next().unwrap_or_default().trim();
        let is = |v: &&str| verb.eq_ignore_ascii_case(v);
        if !is(&"PING") && !Self::RESIDENT_VERBS.iter().any(is) {
            return None;
        }
        let front = self.front();
        let trace = front.tracer.begin(line);
        front.metrics.inflight().inc();
        let reply = serve_resident(self, line, &trace);
        front.metrics.inflight().dec();
        match reply {
            Some(_) => obs::count("reactor", 1),
            None => trace.discard(),
        }
        reply.map(|reply| (reply, false))
    }
}

/// The body of [`LineService::handle_line`] once the request is traced and
/// in flight.
fn serve<S: LineService + ?Sized>(
    service: &S,
    line: &str,
    trace: &RequestGuard<'_>,
) -> (String, bool) {
    let front = service.front();
    let parsed = {
        let _parse = obs::span("parse");
        protocol::parse_request(line)
    };
    let request = match parsed {
        Ok(request) => request,
        Err(msg) => {
            front.metrics.meta.record_error();
            return (protocol::err_reply(&msg), false);
        }
    };
    trace.set_verb(request.verb());
    let Some((metric, meta)) = front.metrics.op(&request) else {
        // QUIT or SHUTDOWN: unrecorded, and the connection closes.
        if request == Request::Shutdown {
            front.trigger_shutdown();
        }
        return ("OK\tBYE".to_string(), true);
    };
    let started = Instant::now();
    let reply = match front.reply(service, &request) {
        Some(reply) => reply,
        None => service.answer(request, line),
    };
    front.record(metric, meta, started, &reply);
    (reply, false)
}

/// The body of [`LineService::answer_inline`] once the request is traced
/// and in flight: the parse, the resident reply and its record, or `None`
/// having recorded nothing.
fn serve_resident<S: LineService + ?Sized>(
    service: &S,
    line: &str,
    trace: &RequestGuard<'_>,
) -> Option<Arc<str>> {
    let front = service.front();
    let request = {
        let _parse = obs::span("parse");
        protocol::parse_request(line).ok()?
    };
    trace.set_verb(request.verb());
    let (metric, meta) = front.metrics.op(&request)?;
    let started = Instant::now();
    let reply = match request {
        Request::Ping => Arc::from(PONG),
        _ => service.answer_resident(&request)?,
    };
    front.record(metric, meta, started, &reply);
    Some(reply)
}

/// Connection-layer limits shared by both io-modes — the transport subset
/// of [`crate::ServerConfig`], reused verbatim by the cluster router's
/// [`crate::cluster::RouterConfig`].
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Worker threads serving request lines (at least 1).
    pub workers: usize,
    /// Hard cap on one request line in bytes (newline excluded).
    pub max_line_bytes: usize,
    /// Close connections idle longer than this (milliseconds); `0` disables.
    pub idle_timeout_ms: u64,
    /// Close connections whose peer accepts no reply bytes for this long
    /// (milliseconds); `0` disables.
    pub write_timeout_ms: u64,
    /// Pipelining depth per connection (async mode; at least 1).
    pub max_pipeline: usize,
    /// Admission control: dispatched-but-unfinished requests across all
    /// connections before `ERR busy` (async mode; at least 1).
    pub queue_depth: usize,
    /// Hard cap on one connection's buffered unsent reply bytes (async
    /// mode).
    pub write_buf_limit: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            max_line_bytes: framing::MAX_REQUEST_LINE_BYTES,
            idle_timeout_ms: 300_000,
            write_timeout_ms: 30_000,
            max_pipeline: 128,
            queue_depth: 1024,
            write_buf_limit: 64 << 20,
        }
    }
}

/// Serve `listener` with `service` through the connection layer its front's
/// io-mode picks, until the service requests shutdown. This is the shared
/// body of [`crate::Server::run`] and [`crate::cluster::Router::run`].
pub(crate) fn run_listener<S: LineService>(
    listener: TcpListener,
    service: Arc<S>,
    config: &ConnConfig,
) -> std::io::Result<()> {
    match service.front().io_mode {
        IoMode::Threaded => run_threaded(listener, service, config),
        IoMode::Async => crate::event_loop::run(listener, service, config),
    }
}

/// The historical connection layer: a fixed worker pool, one blocked worker
/// per in-flight connection.
fn run_threaded<S: LineService>(
    listener: TcpListener,
    service: Arc<S>,
    config: &ConnConfig,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let config = config.clone();
            std::thread::spawn(move || loop {
                // Take the next connection, releasing the lock before
                // serving it so other workers keep draining the queue.
                let next = rx.lock().recv();
                match next {
                    Ok(stream) => serve_connection(&*service, stream, &config),
                    Err(_) => break,
                }
            })
        })
        .collect();

    for stream in listener.incoming() {
        if service.front().shutdown_requested() {
            break;
        }
        match stream {
            Ok(stream) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    drop(tx);
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

/// Serve one client connection line-by-line until QUIT, EOF, an oversized
/// line, the idle timeout, or an I/O error — the threaded-mode twin of the
/// event loop's per-connection state machine, sharing its framing, its
/// typed `ERR` teardown replies, and its [`ConnMetrics`] accounting.
fn serve_connection<S: LineService>(service: &S, stream: TcpStream, config: &ConnConfig) {
    let conn = &service.front().conn;
    conn.note_accepted();
    let timeout = |ms: u64| (ms > 0).then(|| std::time::Duration::from_millis(ms));
    let _ = stream.set_read_timeout(timeout(config.idle_timeout_ms));
    let _ = stream.set_write_timeout(timeout(config.write_timeout_ms));
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => {
            conn.note_error();
            conn.note_closed();
            return;
        }
    };
    let mut writer = BufWriter::new(stream);
    loop {
        match framing::read_line_capped(&mut reader, config.max_line_bytes) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                conn.note_line_too_long();
                conn.note_error();
                let reply = framing::line_too_long_reply(config.max_line_bytes);
                let _ = writeln!(writer, "{reply}").and_then(|()| writer.flush());
                break;
            }
            Ok(LineRead::Line(line)) => {
                if line.is_empty() {
                    continue;
                }
                let (reply, close) = service.handle_line(&line);
                if writeln!(writer, "{reply}")
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    conn.note_error();
                    break;
                }
                if close {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                conn.note_idle_disconnect();
                let reply = framing::idle_timeout_reply(config.idle_timeout_ms);
                let _ = writeln!(writer, "{reply}").and_then(|()| writer.flush());
                break;
            }
            Err(_) => {
                conn.note_error();
                break;
            }
        }
    }
    conn.note_closed();
}
