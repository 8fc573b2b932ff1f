//! The connection-service seam shared by the single-process server and the
//! cluster router.
//!
//! Both [`crate::Server`] and the scatter-gather router
//! ([`crate::cluster::Router`]) speak the same line protocol over the same
//! two connection layers — the blocking worker pool and the
//! [`crate::event_loop`] reactor. This module is the seam between "what a
//! request line means" and "how bytes move": anything implementing
//! [`LineService`] can be served by either layer through `run_listener`,
//! with capped framing, idle/write-stall timeouts, pipelining, admission
//! control and [`ConnMetrics`] accounting all handled here — so the router
//! inherits the hardened connection machinery instead of reimplementing it.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};

use parking_lot::Mutex;

use crate::framing::{self, LineRead};
use crate::metrics::ConnMetrics;
use crate::server::IoMode;

/// A request-line handler servable by either connection layer.
///
/// Implementations must be cheap to call concurrently: both layers invoke
/// [`LineService::handle_line`] from a pool of worker threads, and the event
/// loop calls [`LineService::answer_inline`] from its reactor thread.
pub trait LineService: Send + Sync + 'static {
    /// Serve one request line; returns the reply and whether the connection
    /// should close after the reply is written.
    fn handle_line(&self, line: &str) -> (String, bool);

    /// The reactor tier: answer `line` on the event loop's own thread, or
    /// return `None` to have it dispatched to a worker through
    /// [`LineService::handle_line`] as usual. An answer must come only from
    /// memory that is already resident — the reactor serves every socket,
    /// so this never evaluates, compiles, loads or touches disk — and must
    /// be the reply `handle_line` would give, accounted the same way.
    /// Called only when none of the connection's earlier requests is still
    /// on a worker, so replies stay in request order. The default answers
    /// nothing; the threaded layer never calls it.
    fn answer_inline(&self, _line: &str) -> Option<(Arc<str>, bool)> {
        None
    }

    /// The connection-layer metrics this service reports into.
    fn conn_metrics(&self) -> &ConnMetrics;

    /// True once a graceful shutdown has been requested; the accept loop
    /// stops and in-flight work drains.
    fn shutdown_requested(&self) -> bool;
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

/// Serve `listener` with `service` through the connection layer picked by
/// `io_mode`, until the service requests shutdown. This is the shared body
/// of [`crate::Server::run`] and [`crate::cluster::Router::run`].
pub(crate) fn run_listener<S: LineService>(
    listener: TcpListener,
    service: Arc<S>,
    io_mode: IoMode,
    config: &ConnConfig,
) -> std::io::Result<()> {
    match io_mode {
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
        if service.shutdown_requested() {
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
    let conn = service.conn_metrics();
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
