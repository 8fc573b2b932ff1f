//! The connection layer under abuse: starvation, pipelining, admission
//! control, idle eviction, oversized lines, slow readers and abrupt
//! disconnects. The event loop is the subject.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use vdx_server::testkit::{self, TestServer};
use vdx_server::{framing, Client, ServerConfig};

/// This suite's standard server: a 200-particle, 2-timestep catalog (the
/// connection layer is the subject here, not the data) via the shared
/// [`testkit`] fixture/spawn/teardown helpers.
fn spawn_server(tag: &str, config: ServerConfig) -> TestServer {
    testkit::spawn_tiny_server(tag, 200, 2, 8, config)
}

/// Read one `\n`-terminated line from a raw socket (without the Client's
/// reply cap machinery), returning `None` on EOF.
fn read_raw_line(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end_matches('\n').to_string()),
        Err(e) => panic!("raw read failed: {e}"),
    }
}

/// The regression the event loop exists to fix: idle connections must not
/// starve fresh ones. Eight clients connect, prove they are live, and then
/// go silent while holding their connections open — far more connections
/// than workers. A fresh client's `PING` must still be answered promptly,
/// because an idle connection holds a buffer, not a thread.
#[test]
fn idle_connections_do_not_starve_fresh_clients_async() {
    let server = spawn_server(
        "starve_async",
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let mut idlers = Vec::new();
    for _ in 0..8 {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request("PING").unwrap(), "OK\tPONG");
        idlers.push(client); // held open, silent, until the test ends
    }

    let start = Instant::now();
    let mut fresh = Client::connect(addr).unwrap();
    assert_eq!(fresh.request("PING").unwrap(), "OK\tPONG");
    let latency = start.elapsed();
    assert!(
        latency < Duration::from_secs(2),
        "fresh PING took {latency:?} behind 8 idle connections"
    );
    assert!(server.state().conn_metrics().open() >= 9);

    drop(idlers);
    server.shutdown_and_clean();
}

/// A connection idle past `idle_timeout_ms` is evicted with the typed
/// `ERR idle timeout …` reply, then closed — and counted as an idle
/// disconnect, not a connection error.
#[test]
fn idle_timeout_evicts_with_typed_reply() {
    let server = spawn_server(
        "idle_evict",
        ServerConfig {
            workers: 1,
            idle_timeout_ms: 150,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let start = Instant::now();
    assert_eq!(
        read_raw_line(&mut reader).as_deref(),
        Some("ERR\tidle timeout (150 ms with no request)")
    );
    assert_eq!(read_raw_line(&mut reader), None, "then the server closes");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "eviction should land on the timeout's cadence"
    );

    let state = server.state();
    let conn = state.conn_metrics();
    assert!(conn.idle_disconnects() >= 1);
    assert_eq!(conn.errors(), 0, "an idle eviction is not an error");
    server.shutdown_and_clean();
}

/// Request lines over the cap earn `ERR line too long …` and a close, and
/// the reply lands in pipeline order behind any requests that preceded the
/// oversized line.
#[test]
fn oversized_request_lines_are_rejected_in_both_modes() {
    let server = spawn_server(
        "cap_async",
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut oversized = Vec::from(&b"PING\n"[..]);
    oversized.extend(std::iter::repeat_n(
        b'A',
        framing::MAX_REQUEST_LINE_BYTES + 1,
    ));
    oversized.push(b'\n');
    stream.write_all(&oversized).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(
        read_raw_line(&mut reader).as_deref(),
        Some("OK\tPONG"),
        "the pipelined PING is answered first"
    );
    assert_eq!(
        read_raw_line(&mut reader).as_deref(),
        Some("ERR\tline too long (the request line cap is 65536 bytes)")
    );
    assert_eq!(read_raw_line(&mut reader), None, "then close");

    let state = server.state();
    let conn = state.conn_metrics();
    assert!(conn.lines_too_long() >= 1);
    assert!(conn.errors() >= 1);
    server.shutdown_and_clean();
}

/// The Client enforces the reply-line cap too: a misbehaving "server"
/// streaming an endless unterminated line is cut off with `InvalidData`
/// instead of growing client memory without bound.
#[test]
fn client_caps_reply_lines_from_a_misbehaving_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let feeder = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        // One newline-free "reply" just past the cap.
        let chunk = vec![b'x'; 1 << 20];
        let mut sent = 0usize;
        while sent <= framing::MAX_REPLY_LINE_BYTES {
            if stream.write_all(&chunk).is_err() {
                return; // the client hung up mid-stream, as it may
            }
            sent += chunk.len();
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let err = client
        .request("PING")
        .expect_err("an uncapped reply line must not be accepted");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err:?}");
    drop(client);
    feeder.join().unwrap();
}

/// Pipelining: a burst of requests written in one syscall comes back as
/// one reply per request, in request order, byte-identical to asking them
/// one at a time.
#[test]
fn pipelined_bursts_reply_in_request_order() {
    let server = spawn_server(
        "pipeline",
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let requests = [
        "PING",
        "SELECT\t0\tpx > 0",
        "HIST\t0\tpx\t8",
        "SELECT\t0\tpx > 0 && y > 0",
        "SELECT\t99\tpx > 0", // ERR: no such step
        "NOSUCHVERB",         // ERR: parse
        "PING",
    ];

    // Reference replies, one request at a time.
    let mut sequential = Client::connect(addr).unwrap();
    let expected: Vec<String> = requests
        .iter()
        .map(|r| sequential.request(r).unwrap())
        .collect();

    // The same catalog as one burst on a raw socket.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let burst = requests.join("\n") + "\n";
    stream.write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    for (request, expected) in requests.iter().zip(&expected) {
        let got = read_raw_line(&mut reader).unwrap();
        assert_eq!(&got, expected, "pipelined reply for {request:?} diverged");
    }

    server.shutdown_and_clean();
}

/// The reactor tier keeps request order and per-request accounting: one
/// pipelined burst alternating between lines the reactor answers from
/// memory (hits, `PING`, `INFO`) and lines that go to a worker (`REFINE`, a
/// query-cache miss, `QUIT`) replies exactly as the worker path does one
/// line at a time, drops what follows `QUIT`, and moves every counter once
/// per request.
#[test]
fn reactor_answers_keep_pipeline_order_and_accounting() {
    let server = spawn_server(
        "reactor_order",
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let state = server.state();
    let mut prefill = Client::connect(server.addr()).unwrap();
    for line in testkit::TIER_CROSSING_PREFILL {
        assert!(prefill.request(line).unwrap().starts_with("OK\t"), "{line}");
    }
    drop(prefill);

    let counters = || {
        let (m, qc) = (state.metrics(), state.query_cache().stats());
        [
            m.select.count(),
            m.refine.count(),
            m.hist.count(),
            m.track.count(),
            m.ping.count(),
            m.info.count(),
            qc.hits,
            qc.misses,
            m.evaluations(),
            state.tracer().recorded(),
            state.conn_metrics().reactor_replies(),
        ]
    };
    let before = counters();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let burst = testkit::TIER_CROSSING_CONVERSATION.join("\n") + "\n";
    stream.write_all(burst.as_bytes()).unwrap();
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).unwrap();

    // Every counter moves before its reply leaves, so the deltas are final
    // once the connection has closed: per-verb counts, 3 hits and 1 miss,
    // 2 evaluations (REFINE, the miss), one trace per request up to QUIT,
    // and 5 reactor answers.
    let moved: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(moved, [2, 1, 1, 1, 1, 1, 3, 1, 2, 8, 5]);
    assert_eq!(state.metrics().inflight().get(), 0, "paired inc and dec");

    // The sequential oracle: the worker path, one line at a time, up to
    // and including QUIT.
    let quit = testkit::TIER_CROSSING_CONVERSATION
        .iter()
        .position(|l| *l == "QUIT")
        .unwrap();
    let expected: String = testkit::TIER_CROSSING_CONVERSATION[..=quit]
        .iter()
        .map(|line| state.handle_line(line).0 + "\n")
        .collect();
    assert_eq!(transcript, expected);

    server.shutdown_and_clean();
}

/// Admission control: with `queue_depth: 1`, connections bursting
/// concurrently cannot all be in flight, so losers are refused with the
/// typed `ERR busy …` reply — written by the reactor, counted in
/// `busy_rejections`, and never reaching a worker. The burst is `STATS`,
/// which always goes to a worker; the reactor can in principle serialize a
/// small burst perfectly, so it escalates until a rejection actually lands.
/// `PING`s interleaved in the same saturated window are answered by the
/// reactor itself: never refused, never counted toward the queue.
#[test]
fn saturated_queue_answers_busy() {
    const PAIRS: usize = 25;
    let server = spawn_server(
        "busy",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            max_pipeline: 2 * PAIRS,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let burst = "STATS\nPING\n".repeat(PAIRS);
    let mut total_busys = 0usize;
    let mut total_pings = 0usize;
    for attempt in 0..4 {
        let conns = 2usize << attempt;
        let mut streams = Vec::new();
        for _ in 0..conns {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(burst.as_bytes()).unwrap();
            streams.push(stream);
        }

        let mut stats = 0usize;
        let mut busys = 0usize;
        for stream in streams {
            let mut reader = BufReader::new(stream);
            for _ in 0..PAIRS {
                match read_raw_line(&mut reader).unwrap().as_str() {
                    reply if reply.starts_with("OK\tSTATS\t") => stats += 1,
                    "ERR\tbusy (server request queue is full, retry later)" => busys += 1,
                    other => panic!("unexpected STATS reply: {other:?}"),
                }
                assert_eq!(
                    read_raw_line(&mut reader).as_deref(),
                    Some("OK\tPONG"),
                    "a PING in a saturated window is answered, in order"
                );
            }
        }
        assert_eq!(
            stats + busys,
            conns * PAIRS,
            "every request got exactly one reply"
        );
        total_busys += busys;
        total_pings += conns * PAIRS;
        if busys >= 1 {
            assert!(stats >= 1, "rejection must not silence the whole burst");
            break;
        }
    }
    assert!(
        total_busys >= 1,
        "an escalating 2..16-connection burst never tripped admission control"
    );
    let conn = server.state().conn_metrics();
    assert_eq!(conn.busy_rejections(), total_busys as u64);
    assert_eq!(conn.reactor_replies(), total_pings as u64);

    server.shutdown_and_clean();
}

/// Scale: the event loop holds a thousand live-but-idle connections on a
/// fixed worker pool, keeps its accounting exact, and still answers a
/// fresh `PING` promptly — connections cost a buffer each, not a thread.
#[test]
fn a_thousand_idle_connections_cost_buffers_not_threads() {
    const IDLE: usize = 1000;
    let server = spawn_server(
        "thousand",
        ServerConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let addr = server.addr();

    let mut idlers = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let mut client = Client::connect(addr)
            .unwrap_or_else(|e| panic!("connect #{i} failed: {e} (check `ulimit -n`)"));
        // Every tenth connection proves liveness; round-tripping all 1000
        // would dominate the test without strengthening it.
        if i % 10 == 0 {
            assert_eq!(client.request("PING").unwrap(), "OK\tPONG");
        }
        idlers.push(client);
    }

    // The gauge sees every one of them (plus nothing leaked from connects).
    let state = server.state();
    let conn = state.conn_metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while conn.open() < IDLE as i64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(conn.open() >= IDLE as i64, "open={}", conn.open());
    assert!(conn.accepted() >= IDLE as u64);

    // Fresh requests are not starved behind the idle thousand.
    let mut fresh = Client::connect(addr).unwrap();
    for _ in 0..5 {
        let start = Instant::now();
        assert_eq!(fresh.request("PING").unwrap(), "OK\tPONG");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "PING {:?} behind {IDLE} idle connections",
            start.elapsed()
        );
    }

    drop(idlers);
    // Every teardown is noticed and the gauge pairs its inc/dec.
    let deadline = Instant::now() + Duration::from_secs(10);
    while conn.open() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        conn.open() <= 1,
        "open={} after dropping idlers",
        conn.open()
    );
    server.shutdown_and_clean();
}

/// An abrupt peer disconnect (unread replies → RST on close) surfaces in
/// `connection_errors` instead of vanishing.
#[test]
fn abrupt_disconnects_count_as_connection_errors() {
    let server = spawn_server(
        "rst",
        ServerConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let addr = server.addr();

    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"PING\nPING\n").unwrap();
        // Give the server time to reply, then drop with both replies
        // unread: the kernel answers the close with RST, and the reactor's
        // next read or write on the socket fails.
        std::thread::sleep(Duration::from_millis(300));
    }

    let state = server.state();
    let conn = state.conn_metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while conn.errors() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(conn.errors() >= 1, "the RST teardown was not counted");
    server.shutdown_and_clean();
}
