//! The byte-identity pin of the connection layer: the same request bytes
//! sent to the event loop and to the thread-per-connection reference
//! (`testkit::spawn_reference`) over the same catalog must produce the
//! same reply bytes, reply for reply — including hostile input, invalid
//! UTF-8, empty lines, an EOF mid-line, and pipelined requests behind a
//! `QUIT`. Both funnel into `ServerState::handle_line` and the shared
//! framing module; this suite is what keeps anyone from quietly forking
//! the semantics.
//!
//! The event loop's lockstep transcript and conversation blobs are also
//! pinned against committed files under `tests/golden/`, so a change in
//! reply bytes between versions fails here too. Rewrite them deliberately
//! with `UPDATE_GOLDEN=1 cargo test -p vdx-server --test io_mode_differential`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use datastore::Catalog;
use histogram::Binning;
use lwfa::{SimConfig, Simulation};
use vdx_server::testkit::spawn_reference;
use vdx_server::{parse_stats, Server, ServerConfig, ServerHandle};

fn fixture(tag: &str) -> (Arc<Catalog>, PathBuf) {
    let dir = std::env::temp_dir().join(format!("vdx_io_diff_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let mut config = SimConfig::tiny();
    config.particles_per_step = 300;
    config.num_timesteps = 3;
    Simulation::new(config)
        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 8 }))
        .unwrap();
    (Arc::new(catalog), dir)
}

/// Spawn the reference server and an event-loop server over one shared
/// catalog, each labelled for assertion messages.
fn both_modes(
    catalog: &Arc<Catalog>,
) -> Vec<(
    &'static str,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
)> {
    let bind = || {
        let config = ServerConfig {
            workers: 2,
            ..Default::default()
        };
        Server::bind(Arc::clone(catalog), "127.0.0.1:0", config).unwrap()
    };
    let (reference, reference_join) = spawn_reference(bind());
    let (event_loop, event_loop_join) = bind().spawn();
    vec![
        ("reference", reference, reference_join),
        ("event loop", event_loop, event_loop_join),
    ]
}

/// Compare `actual` with the committed golden file `name`, reporting the
/// first differing line; with `UPDATE_GOLDEN` set, rewrite the file instead.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        panic!("golden {name} rewritten — commit it and rerun without UPDATE_GOLDEN");
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let mut want = committed.lines();
    let mut got = actual.lines();
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(w, g, "{name}:{line}: first differing line"),
        }
    }
    assert_eq!(committed, actual, "{name}: line endings differ");
}

fn connect_raw(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// Write raw bytes, half-close the write side, and read everything the
/// server says until it closes — the whole conversation as one byte blob.
fn converse(handle: &ServerHandle, request_bytes: &[u8]) -> Vec<u8> {
    let mut stream = connect_raw(handle);
    stream.write_all(request_bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    reply
}

/// The deterministic request catalog: every reply here depends only on the
/// request and the catalog, never on timing or prior traffic (so `STATS`,
/// `METRICS`, `TRACE` and cache-order-sensitive forms are exercised
/// elsewhere; this suite is about reply *bytes*).
fn deterministic_lines() -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = [
        "PING",
        "INFO",
        "SELECT\t0\tpx > 0",
        "SELECT\t1\tpx > 0 && y > 0",
        "SELECT\t2\tpx > 1e30", // empty result
        "SELECT\t99\tpx > 0",   // ERR: no such step
        "HIST\t0\tpx\t8",
        "HIST\t1\ty\t4\tpx > 0",
        "HIST\t0\tnope\t8", // ERR: no such column
        "REFINE\t0\t1,2,3\tpx > 0",
        "TRACK\t1,2",
        "SELECT",                 // ERR: missing args
        "SELECT\tzero\tpx > 0",   // ERR: bad step
        "HIST\t0\tpx\tmany",      // ERR: bad bins
        "NOSUCHVERB\targ",        // ERR: unknown verb
        "select\t0\tpx > 0",      // OK: verbs are case-insensitive
        "SELECT\t0\tpx >",        // ERR: truncated expression
        "SELECT\t0\t(px > 0",     // ERR: unbalanced paren
        "SELECT\t0\tpx <>\t0",    // ERR: stray tab in expression
        "TRACK\tnot,numbers",     // ERR: bad id list
        "\tleading\ttab",         // ERR: empty verb
        "PING\textra\targuments", // PING ignores or rejects — either way, pinned
    ]
    .into_iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // Invalid UTF-8 inside an expression: both decode lossily, so
    // the parse error must come back identical.
    lines.push(b"SELECT\t0\tpx > \xff\xfe".to_vec());
    // Invalid UTF-8 inside the verb itself.
    lines.push(b"PI\xf0NG".to_vec());
    lines
}

/// Line-by-line request/reply lockstep: each deterministic request gets
/// byte-identical replies from the reference and the event loop, on one
/// long-lived connection each, and the event loop's match the committed
/// golden transcript.
#[test]
fn deterministic_requests_reply_byte_identical_across_modes() {
    let (catalog, dir) = fixture("lockstep");
    let servers = both_modes(&catalog);
    let lines = deterministic_lines();

    let mut transcripts: Vec<(&str, Vec<String>)> = Vec::new();
    for (label, handle, _) in &servers {
        let stream = connect_raw(handle);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut replies = Vec::new();
        for line in &lines {
            writer.write_all(line).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.ends_with('\n'), "[{label}] unterminated reply");
            replies.push(reply);
        }
        transcripts.push((*label, replies));
    }

    let (_, reference) = &transcripts[0];
    let (_, event_loop) = &transcripts[1];
    for ((line, t), a) in lines.iter().zip(reference).zip(event_loop) {
        assert_eq!(
            t,
            a,
            "the event loop diverged from the reference on request {:?}",
            String::from_utf8_lossy(line)
        );
    }
    check_golden("lockstep.txt", &event_loop.concat());

    for (_, handle, join) in servers {
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Whole-conversation transcripts: tricky framings sent as raw bursts with
/// a half-close, compared as the full byte blob each server produced —
/// this pins empty-line skipping, EOF-mid-line handling, and the
/// QUIT-discards-the-pipeline rule to be identical to the reference and
/// to the committed golden blobs.
#[test]
fn conversation_transcripts_match_across_modes() {
    let (catalog, dir) = fixture("transcript");
    let servers = both_modes(&catalog);

    let conversations: Vec<&[u8]> = vec![
        // Empty lines produce no reply.
        b"\n\nPING\n\n\nINFO\n",
        // EOF mid-line: the unterminated final request is still served.
        b"PING\nSELECT\t0\tpx > 0",
        // EOF mid-line on an ERR request.
        b"NOSUCHVERB",
        // QUIT discards everything pipelined behind it.
        b"PING\nQUIT\nSELECT\t0\tpx > 0\nPING\n",
        // CRLF line endings are accepted and stripped.
        b"PING\r\nINFO\r\n",
        // A lone newline conversation: no replies at all, clean close.
        b"\n",
        // Pipelined burst of mixed OK/ERR requests.
        b"SELECT\t0\tpx > 0\nSELECT\t99\tpx > 0\nHIST\t0\tpx\t8\nPING\n",
    ];

    let mut golden = String::new();
    for bytes in conversations {
        let mut blobs: Vec<(&str, Vec<u8>)> = Vec::new();
        for (label, handle, _) in &servers {
            blobs.push((*label, converse(handle, bytes)));
        }
        let (_, reference) = &blobs[0];
        let (_, event_loop) = &blobs[1];
        assert_eq!(
            String::from_utf8_lossy(reference),
            String::from_utf8_lossy(event_loop),
            "the event loop diverged from the reference on conversation {:?}",
            String::from_utf8_lossy(bytes)
        );
        golden += &format!(
            "> {:?}\n{}",
            String::from_utf8_lossy(bytes),
            String::from_utf8_lossy(event_loop)
        );
    }
    check_golden("conversations.txt", &golden);

    for (_, handle, join) in servers {
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The event loop answers query-cache hits, `PING` and `INFO` on its
/// reactor and everything else on a worker; the reference answers all of
/// it on its connection thread. A pipelined conversation crossing between the two
/// tiers must still produce the same transcript, and move the query cache,
/// the evaluation counter and every per-verb count identically.
#[test]
fn reactor_tier_matches_the_threaded_layer_bytes_and_counts() {
    let (catalog, dir) = fixture("tiers");
    let servers = both_modes(&catalog);
    let conversation = vdx_server::testkit::TIER_CROSSING_CONVERSATION.join("\n") + "\n";

    let mut runs = Vec::new();
    for (label, handle, _) in &servers {
        let state = handle.state();
        for line in vdx_server::testkit::TIER_CROSSING_PREFILL {
            assert!(state.handle_line(line).0.starts_with("OK\t"), "{line}");
        }
        let before = parse_stats(&state.handle_line("STATS").0);
        let transcript = converse(handle, conversation.as_bytes());
        let after = parse_stats(&state.handle_line("STATS").0);
        let delta = |key: &str| -> u64 {
            let read = |stats: &HashMap<String, String>| stats[key].parse::<u64>().unwrap();
            read(&after) - read(&before)
        };
        let mut counters: Vec<(String, u64)> = after
            .keys()
            .filter(|k| {
                k.ends_with("_count")
                    || ["qc_hits", "qc_misses", "evaluations"].contains(&k.as_str())
            })
            .map(|k| (k.clone(), delta(k)))
            .collect();
        counters.sort();
        let reactor = if *label == "event loop" { 5 } else { 0 };
        assert_eq!(delta("reactor_replies"), reactor, "[{label}]");
        assert_eq!(delta("qc_hits"), 3, "[{label}]");
        runs.push((transcript, counters));
    }

    let (reference, event_loop) = (&runs[0], &runs[1]);
    assert_eq!(
        String::from_utf8_lossy(&reference.0),
        String::from_utf8_lossy(&event_loop.0)
    );
    assert_eq!(
        reference.1, event_loop.1,
        "counter deltas: reference vs event loop"
    );

    for (_, handle, join) in servers {
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
