//! The connection layer: one reactor thread owns every socket.
//!
//! A thread-per-connection layer fails structurally: a worker thread blocks
//! on its connection's socket for the connection's whole lifetime, so `W`
//! *idle* clients starve a `W`-thread pool and a fresh `PING` waits behind
//! people who aren't even asking anything. Here a connection holds a
//! buffer, not a thread:
//!
//! * The **reactor** thread runs a level-triggered readiness loop
//!   ([`polling::Poller`] — epoll on Linux, kqueue on the BSDs) over the
//!   listener and every connection socket, all nonblocking. It owns each
//!   connection's read buffer (incremental line framing via
//!   [`framing::LineSplitter`]), write buffer, and pipeline queue.
//! * **Workers** never touch sockets. They receive complete request lines
//!   over an `mpsc` channel, run [`LineService::handle_line`] — the one
//!   request lifecycle in [`crate::service`], the same entry point the
//!   thread-per-connection `testkit::spawn_reference` calls, which is
//!   what keeps the two byte-identical — and push the reply back to the
//!   reactor through a completion channel plus a [`polling::Waker`]. The
//!   loop is generic over the [`LineService`], so the single-process
//!   server and the cluster router share it unchanged.
//! * The **reactor tier** skips both hand-offs when it can: before a line is
//!   dispatched, the reactor offers it to [`LineService::answer_inline`],
//!   and a reply already resident in memory (`PING` for every service;
//!   for the server also `INFO` and a memoised `SELECT`/`HIST`/`TRACK`) is
//!   appended to the write buffer right there, counted in
//!   `reactor_replies` and traced, gauged and recorded by the same
//!   lifecycle as a worker's answer. The invariant that keeps one thread
//!   serving every socket: the reactor answers only from resident memory
//!   and never evaluates, compiles, loads or touches disk; anything else
//!   goes to the workers.
//!
//! Scheduling and bounds:
//!
//! * **Pipelining** — a client may write many request lines without waiting
//!   for replies. Requests from one connection execute strictly one at a
//!   time and in arrival order (so replies are trivially in request order
//!   and multi-line replies such as `METRICS` never interleave); pipelining
//!   buys the *queueing*, not reordering. The reactor tier answers a line
//!   only when nothing of its connection is on a worker, so it cannot
//!   overtake an earlier request either. Once a connection has
//!   `max_pipeline` lines waiting, the reactor drops its read interest —
//!   backpressure by deferred reads, never unbounded buffering.
//! * **Admission control** — at most `queue_depth` requests may be
//!   dispatched-and-unfinished across all connections. Past that, a request
//!   is answered `ERR busy …` directly by the reactor (counted in
//!   `busy_rejections`; it never reaches a worker, the tracer, or the
//!   per-verb metrics). A request the reactor tier answers was never
//!   dispatched work: it neither counts toward `queue_depth` nor is refused.
//! * **Fairness** — the worker channel is FIFO over *requests*, not
//!   connections, and one connection can occupy at most one worker, so an
//!   open-range `HIST` cannot starve another client's `PING` as long as a
//!   second worker exists.
//! * **Hardening** — request lines over `max_line_bytes` earn
//!   `ERR line too long …` and a close; connections idle past
//!   `idle_timeout_ms` earn `ERR idle timeout …` and a close; a peer that
//!   stops reading replies for `write_timeout_ms` (or buffers more than
//!   `write_buf_limit` unsent bytes) is disconnected and counted in
//!   `connection_errors`.
//!
//! Shutdown is graceful: the `SHUTDOWN` verb (or
//! [`crate::ServerHandle::shutdown`]) flips the shared flag and wakes the
//! reactor, which stops accepting, lets dispatched requests finish, flushes
//! every reply, and joins the workers — bounded by a drain deadline so a
//! wedged peer cannot hold the process open.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use datastore::lock;
use polling::{Event, Interest, Poller, Waker};

use crate::framing::{self, LineRead, LineSplitter};
use crate::metrics::ConnMetrics;
use crate::service::{ConnConfig, LineService};

/// Token of the accept socket in the poller.
const LISTENER_TOKEN: u64 = 0;
/// Token of the worker-completion waker pipe.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a client connection (monotonic, never reused).
const FIRST_CONN_TOKEN: u64 = 2;
/// Upper bound on one poll wait; timeouts are enforced on this cadence.
const TICK: Duration = Duration::from_millis(100);
/// How long a graceful shutdown waits for in-flight requests and unflushed
/// replies before closing the remaining connections anyway.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// A complete request line handed to the worker pool.
struct Job {
    token: u64,
    line: String,
}

/// A finished request on its way back to the reactor.
struct Done {
    token: u64,
    reply: String,
    close: bool,
}

/// One queued item on a connection: either a request line waiting for
/// dispatch, or a reactor-generated teardown reply (line too long) that
/// must be written *in queue order* and then close the connection.
enum PendingItem {
    Request(String),
    Teardown(String),
}

/// Per-connection state — the "buffer, not a thread".
struct Conn {
    stream: TcpStream,
    splitter: LineSplitter,
    pending: VecDeque<PendingItem>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// One request from this connection is running on a worker.
    dispatched: bool,
    /// Finish writing `write_buf`, then close.
    closing: bool,
    /// Remove this connection at the next reap.
    dead: bool,
    /// The peer half-closed (or shutdown stopped reads); no more requests.
    read_closed: bool,
    last_activity: Instant,
    last_write_progress: Instant,
    interest: Interest,
}

/// Limits copied out of [`ConnConfig`], normalized for the loop.
struct Limits {
    max_line: usize,
    idle: Option<Duration>,
    idle_ms: u64,
    write_stall: Option<Duration>,
    max_pipeline: usize,
    queue_depth: usize,
    write_buf_limit: usize,
}

impl Limits {
    fn from_config(config: &ConnConfig) -> Limits {
        Limits {
            max_line: config.max_line_bytes,
            idle: (config.idle_timeout_ms > 0)
                .then(|| Duration::from_millis(config.idle_timeout_ms)),
            idle_ms: config.idle_timeout_ms,
            write_stall: (config.write_timeout_ms > 0)
                .then(|| Duration::from_millis(config.write_timeout_ms)),
            max_pipeline: config.max_pipeline.max(1),
            queue_depth: config.queue_depth.max(1),
            write_buf_limit: config.write_buf_limit.max(1),
        }
    }
}

struct Reactor<S: LineService> {
    poller: Poller,
    listener: TcpListener,
    state: Arc<S>,
    limits: Limits,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Requests dispatched to workers and not yet completed (the admission
    /// control gauge; only the reactor thread touches it).
    queued: usize,
    job_tx: mpsc::Sender<Job>,
    /// Connection tokens of the current [`Reactor::sweep`], kept between
    /// loop iterations so a sweep does not allocate.
    sweep_tokens: Vec<u64>,
}

/// Run the event loop until a graceful shutdown completes. This is the
/// body of [`crate::Server::run`] and [`crate::cluster::Router::run`] —
/// generic over the [`LineService`], so the single-process server and the
/// cluster router share one reactor implementation.
pub(crate) fn run<S: LineService>(
    listener: TcpListener,
    state: Arc<S>,
    config: &ConnConfig,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    let waker = Arc::new(Waker::new(&poller, WAKER_TOKEN)?);

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let waker = Arc::clone(&waker);
            let state = Arc::clone(&state);
            std::thread::spawn(move || loop {
                // Take the next request, releasing the lock before running
                // it so other workers keep draining the queue.
                let next = lock(&job_rx).recv();
                match next {
                    Ok(job) => {
                        let (reply, close) = state.handle_line(&job.line);
                        let token = job.token;
                        if done_tx
                            .send(Done {
                                token,
                                reply,
                                close,
                            })
                            .is_err()
                        {
                            break;
                        }
                        waker.wake();
                    }
                    Err(_) => break,
                }
            })
        })
        .collect();
    drop(done_tx);

    let mut reactor = Reactor {
        poller,
        listener,
        state,
        limits: Limits::from_config(config),
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        queued: 0,
        job_tx,
        sweep_tokens: Vec::new(),
    };

    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        reactor.poller.wait(&mut events, Some(TICK))?;
        let mut accept_ready = false;
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => waker.drain(),
                token => {
                    if ev.readable {
                        reactor.read_conn(token);
                    }
                    if ev.writable {
                        reactor.flush_conn(token);
                    }
                }
            }
        }
        while let Ok(done) = done_rx.try_recv() {
            reactor.complete(done);
        }
        let shutting = reactor.state.front().shutdown_requested();
        if shutting && drain_deadline.is_none() {
            // Stop accepting; existing connections finish what they have
            // queued (and get their replies) but take nothing new.
            drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            let _ = reactor.poller.deregister(reactor.listener.as_raw_fd());
            for conn in reactor.conns.values_mut() {
                conn.read_closed = true;
            }
        }
        if accept_ready && !shutting {
            reactor.accept_ready();
        }
        reactor.sweep();
        if let Some(deadline) = drain_deadline {
            if reactor.conns.is_empty() || Instant::now() >= deadline {
                break;
            }
        }
    }

    // Close whatever the drain deadline left behind, then release the
    // workers by dropping the job channel.
    for (_, conn) in reactor.conns.drain() {
        let _ = reactor.poller.deregister(conn.stream.as_raw_fd());
        reactor.state.front().conn.note_closed();
    }
    drop(reactor);
    for worker in workers {
        let _ = worker.join();
    }
    Ok(())
}

impl<S: LineService> Reactor<S> {
    /// Accept every connection the listener has ready.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.next_token += 1;
                    self.state.front().conn.note_accepted();
                    let now = Instant::now();
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            splitter: LineSplitter::new(self.limits.max_line),
                            pending: VecDeque::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            dispatched: false,
                            closing: false,
                            dead: false,
                            read_closed: false,
                            last_activity: now,
                            last_write_progress: now,
                            interest: Interest::READ,
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Drain a readable socket into the connection's splitter and queue the
    /// complete lines it framed.
    fn read_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead || conn.closing || conn.read_closed {
            return;
        }
        let mut buf = [0u8; READ_CHUNK];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.splitter.extend(&buf[..n]);
                    if !extract_lines(conn, &self.state.front().conn, self.limits.max_line) {
                        break;
                    }
                    if conn.pending.len() >= self.limits.max_pipeline {
                        // Backpressure: leave the rest in the kernel buffer;
                        // level-triggered polling re-reports it once the
                        // pipeline drains and read interest returns.
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.front().conn.note_error();
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.read_closed {
            // The blocking path serves an unterminated final line; match it.
            match conn.splitter.finish_eof() {
                Some(LineRead::Line(line)) if !line.is_empty() => {
                    conn.pending.push_back(PendingItem::Request(line));
                }
                Some(LineRead::TooLong) => {
                    self.state.front().conn.note_line_too_long();
                    self.state.front().conn.note_error();
                    conn.pending
                        .push_back(PendingItem::Teardown(framing::line_too_long_reply(
                            self.limits.max_line,
                        )));
                }
                _ => {}
            }
        }
    }

    /// Fold a finished request back into its connection.
    fn complete(&mut self, done: Done) {
        self.queued -= 1;
        let Some(conn) = self.conns.get_mut(&done.token) else {
            return; // connection died while its request ran
        };
        conn.dispatched = false;
        conn.last_activity = Instant::now();
        deliver(conn, &done.reply, done.close);
    }

    /// Answer or dispatch the connection's queued items, in order, while
    /// none of them is on a worker.
    fn pump(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !conn.dispatched && !conn.closing && !conn.dead {
            let Some(item) = conn.pending.pop_front() else {
                break;
            };
            match item {
                PendingItem::Request(line) => {
                    // The reactor tier comes before admission control: an
                    // answer from resident memory is not dispatched work.
                    if let Some((reply, close)) = self.state.answer_inline(&line) {
                        self.state.front().conn.note_reactor_reply();
                        deliver(conn, &reply, close);
                        continue;
                    }
                    if self.queued >= self.limits.queue_depth {
                        // Admission control: refuse in order, right here —
                        // the request never reaches a worker.
                        self.state.front().conn.note_busy_rejection();
                        append_reply(conn, framing::BUSY_REPLY);
                        continue;
                    }
                    if self.job_tx.send(Job { token, line }).is_ok() {
                        self.queued += 1;
                        conn.dispatched = true;
                    } else {
                        conn.dead = true;
                    }
                }
                PendingItem::Teardown(reply) => {
                    append_reply(conn, &reply);
                    conn.closing = true;
                    conn.pending.clear();
                }
            }
        }
        if conn.read_closed && !conn.dispatched && !conn.closing && conn.pending.is_empty() {
            conn.closing = true;
        }
    }

    /// Write as much buffered reply as the socket accepts.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        while conn.write_pos < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => {
                    self.state.front().conn.note_error();
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_write_progress = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.state.front().conn.note_error();
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.write_pos >= conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            if conn.closing {
                conn.dead = true;
            }
        } else if conn.write_buf.len() - conn.write_pos > self.limits.write_buf_limit {
            // The peer reads slower than it queries; cut it loose rather
            // than buffer without bound.
            self.state.front().conn.note_error();
            conn.dead = true;
        }
    }

    /// Enforce the idle and write-stall timeouts on one connection.
    fn check_timeouts(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        if let Some(stall) = self.limits.write_stall {
            if conn.write_pos < conn.write_buf.len()
                && now.duration_since(conn.last_write_progress) >= stall
            {
                self.state.front().conn.note_error();
                conn.dead = true;
                return;
            }
        }
        if let Some(idle) = self.limits.idle {
            let quiescent = !conn.dispatched
                && !conn.closing
                && conn.pending.is_empty()
                && conn.write_buf.is_empty();
            if quiescent && now.duration_since(conn.last_activity) >= idle {
                self.state.front().conn.note_idle_disconnect();
                append_reply(conn, &framing::idle_timeout_reply(self.limits.idle_ms));
                conn.closing = true;
            }
        }
    }

    /// Reconcile the poller's interest with what the connection needs now.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.dead {
            return;
        }
        let want = Interest {
            read: !conn.read_closed
                && !conn.closing
                && conn.pending.len() < self.limits.max_pipeline,
            write: conn.write_pos < conn.write_buf.len(),
        };
        if want != conn.interest
            && self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// One pass over every connection: dispatch, time out, flush, retarget
    /// interest, and reap the dead. Cheap per-connection when nothing
    /// changed, and run at least every [`TICK`].
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut tokens = std::mem::take(&mut self.sweep_tokens);
        tokens.clear();
        tokens.extend(self.conns.keys());
        for &token in &tokens {
            self.pump(token);
            self.check_timeouts(token, now);
            self.flush_conn(token);
            self.update_interest(token);
        }
        self.sweep_tokens = tokens;
        let (poller, metrics) = (&self.poller, &self.state.front().conn);
        self.conns.retain(|_, conn| {
            if conn.dead {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                metrics.note_closed();
            }
            !conn.dead
        });
    }
}

/// Queue a finished request's reply; `close` (QUIT/SHUTDOWN) discards any
/// pipelined requests behind it, exactly as the blocking path stops reading
/// after one.
fn deliver(conn: &mut Conn, reply: &str, close: bool) {
    append_reply(conn, reply);
    if close {
        conn.closing = true;
        conn.pending.clear();
    }
}

/// Queue `reply` (plus the protocol's line terminator) on the connection's
/// write buffer. Replies may themselves contain newlines (`METRICS`); the
/// bytes go out contiguously because the connection runs one request at a
/// time.
fn append_reply(conn: &mut Conn, reply: &str) {
    if conn.write_buf.is_empty() {
        conn.last_write_progress = Instant::now();
    }
    conn.write_buf.extend_from_slice(reply.as_bytes());
    conn.write_buf.push(b'\n');
}

/// Pull every complete line out of the splitter into the pending queue.
/// Returns `false` when the connection overflowed the line cap and is now
/// tearing down.
fn extract_lines(conn: &mut Conn, metrics: &ConnMetrics, max_line: usize) -> bool {
    while let Some(read) = conn.splitter.next_line() {
        match read {
            LineRead::Line(line) => {
                if line.is_empty() {
                    continue; // the protocol skips empty lines, no reply
                }
                conn.pending.push_back(PendingItem::Request(line));
            }
            LineRead::TooLong => {
                metrics.note_line_too_long();
                metrics.note_error();
                conn.pending
                    .push_back(PendingItem::Teardown(framing::line_too_long_reply(
                        max_line,
                    )));
                conn.read_closed = true;
                return false;
            }
            LineRead::Eof => unreachable!("LineSplitter never reports Eof"),
        }
    }
    true
}
