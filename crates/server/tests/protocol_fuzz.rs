//! Protocol robustness: seeded malformed/truncated request lines must always
//! produce an `ERR` (or `OK`) reply — never a panic, never a hang — both
//! through the in-process `handle_line` path and over a real TCP connection.
//! Also round-trips `STATS` and asserts the per-query thread metrics of the
//! evaluator's chunk runner are reported and move. Every step holds three
//! chunks of `DEFAULT_CHUNK_ROWS` rows, so the `threads: 2` servers prune
//! and combine across chunks.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use datastore::Catalog;
use fastbit::par::DEFAULT_CHUNK_ROWS;
use histogram::Binning;
use lwfa::{SimConfig, Simulation};
use rand::{rngs::StdRng, Rng, SeedableRng};
use vdx_server::{Server, ServerConfig};

fn tiny_catalog(tag: &str) -> (Arc<Catalog>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("vdx_fuzz_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let mut config = SimConfig::tiny();
    config.particles_per_step = 3 * DEFAULT_CHUNK_ROWS;
    config.num_timesteps = 4;
    Simulation::new(config)
        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 16 }))
        .unwrap();
    (Arc::new(catalog), dir)
}

fn parallel_server(tag: &str) -> (Server, PathBuf) {
    let (catalog, dir) = tiny_catalog(tag);
    let server = Server::bind(
        catalog,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    (server, dir)
}

/// Seeded generator of hostile request lines: random printable garbage,
/// valid verbs with wrong/truncated/overflowing fields, stray separators,
/// and near-miss queries, ending with a `HIST` whose bin count is too large
/// to allocate.
fn hostile_lines(seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let verbs = [
        "SELECT", "REFINE", "HIST", "TRACK", "INFO", "STATS", "PING", "QUIT", "BOGUS", "select",
    ];
    let fields = [
        "",
        "0",
        "99999999",
        "-3",
        "1e309",
        "px > ",
        "px >> 1",
        "px > 1e9 &&",
        "((px > 1)",
        "px [1, ",
        "1,2,frog",
        "18446744073709551616", // u64::MAX + 1
        "NaN",
        "\u{7f}",
        "px > 1 || !",
        "🦀",
    ];
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = rng.gen_range(0..3u32);
        let line = match kind {
            // Pure garbage of printable bytes.
            0 => {
                let len = rng.gen_range(0..60usize);
                (0..len)
                    .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                    .collect()
            }
            // A real verb with a random number of random fields.
            1 => {
                let mut parts = vec![verbs[rng.gen_range(0..verbs.len())].to_string()];
                for _ in 0..rng.gen_range(0..5usize) {
                    parts.push(fields[rng.gen_range(0..fields.len())].to_string());
                }
                parts.join("\t")
            }
            // A truncated prefix of a valid request.
            _ => {
                let valid = [
                    "SELECT\t3\tpx > 1e9 && y > 0",
                    "HIST\t1\tpx\t32\ty > 0",
                    "REFINE\t2\t1,2,3\tx > 0",
                    "TRACK\t5,9,12",
                ];
                let v = valid[rng.gen_range(0..valid.len())];
                let cut = rng.gen_range(0..v.len());
                v[..cut].to_string()
            }
        };
        out.push(line);
    }
    // A bin count whose edge vector alone would need 32 GB.
    out.push("HIST\t0\tpx\t4000000000".to_string());
    out
}

#[test]
fn hostile_lines_never_panic_and_always_reply_in_protocol() {
    let (server, dir) = parallel_server("handle_line");
    let handle = server.handle();
    let state = handle.state();
    for (i, line) in hostile_lines(0xF00D, 400).iter().enumerate() {
        if line.trim().eq_ignore_ascii_case("shutdown") {
            continue; // exercised separately; would stop the bound server
        }
        let (reply, _close) = state.handle_line(line);
        assert!(
            reply.starts_with("OK\t") || reply.starts_with("OK") || reply.starts_with("ERR\t"),
            "line {i} {line:?} produced out-of-protocol reply {reply:?}"
        );
        assert!(!reply.contains('\n'), "reply must be a single line");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The hostile TCP session: the event loop must answer every hostile line
/// in protocol without hanging.
#[test]
fn hostile_tcp_session_gets_error_replies_not_hangs_async() {
    let (server, dir) = parallel_server("tcp_async");
    let (handle, join) = server.spawn();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for line in hostile_lines(0xDEAD, 120) {
        let trimmed = line.trim();
        if trimmed.is_empty()
            || trimmed.eq_ignore_ascii_case("quit")
            || trimmed.eq_ignore_ascii_case("shutdown")
        {
            continue; // empty lines are skipped by the server; QUIT closes
        }
        writeln!(writer, "{line}").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("OK") || reply.starts_with("ERR"),
            "{line:?} -> {reply:?}"
        );
    }
    // The connection is still healthy after the abuse.
    writeln!(writer, "PING").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim_end(), "OK\tPONG");
    writeln!(writer, "QUIT").unwrap();
    writer.flush().unwrap();
    handle.shutdown();
    join.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_roundtrip_reports_parallel_thread_metrics() {
    let (catalog, dir) = tiny_catalog("stats");
    let server = Server::bind(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let handle = server.handle();
    let state = handle.state();

    // Before any query: the knobs are visible, the counters are zero.
    let (stats, _) = state.handle_line("STATS");
    assert!(stats.starts_with("OK\tSTATS\t"));
    assert!(stats.contains("par_threads=2"), "{stats}");
    assert!(stats.contains("par_chunk_rows=4096"), "{stats}");
    assert!(stats.contains("par_queries=0"), "{stats}");

    // SELECT and conditional HIST run through the chunked engine.
    let (select, _) = state.handle_line("SELECT\t3\tpx > 0 && y > -1e9");
    assert!(select.starts_with("OK\tSELECT\t"), "{select}");
    let (hist, _) = state.handle_line("HIST\t2\tpx\t16\ty > 0");
    assert!(hist.starts_with("OK\tHIST\t"), "{hist}");

    let (stats, _) = state.handle_line("STATS");
    let field = |name: &str| -> u64 {
        stats
            .split('\t')
            .find_map(|f| f.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("missing {name} in {stats}"))
            .parse()
            .unwrap()
    };
    assert!(field("par_queries") >= 2, "{stats}");
    let touched = field("par_chunks_pruned_empty")
        + field("par_chunks_pruned_full")
        + field("par_chunks_scanned");
    assert!(
        touched >= 3 * field("par_queries"),
        "every evaluation spans three chunks: {stats}"
    );

    // The replies themselves are byte-identical to a sequential server's
    // over the same catalog.
    let sequential = Server::bind(catalog, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let seq_state = sequential.handle();
    let seq_state = seq_state.state();
    assert_eq!(
        seq_state.handle_line("SELECT\t3\tpx > 0 && y > -1e9").0,
        select
    );
    assert_eq!(seq_state.handle_line("HIST\t2\tpx\t16\ty > 0").0, hist);
    assert!(seq_state.handle_line("STATS").0.contains("par_threads=1"));
    std::fs::remove_dir_all(&dir).ok();
}
