//! The distributed differential suite: a sharded cluster must be
//! indistinguishable, byte for byte, from a single-process server over the
//! same catalog.
//!
//! Seeded random compound conversations (SELECT / REFINE / HIST / TRACK /
//! INFO, with predicates, thresholds, and id lists drawn from a
//! deterministic generator) are replayed in lockstep against a router-led
//! cluster and a single server, and every reply is compared exactly. The
//! hostile-input catalog from `reference_differential` rides along: parse
//! errors, invalid UTF-8, unknown steps, and framing edge cases must also
//! come back identical through the router. This suite is the correctness
//! contract that lets the scatter-gather layer evolve without anyone
//! quietly forking the semantics.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use vdx_server::testkit::{spawn_cluster, TestCluster};
use vdx_server::{Client, ConnConfig, RouterConfig, ServerConfig};

const PARTICLES: usize = 300;
const TIMESTEPS: usize = 5;
const INDEX_BINS: usize = 8;

fn backend_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        ..Default::default()
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        conn: ConnConfig {
            workers: 2,
            ..Default::default()
        },
        // Health probes are pointless noise here: every backend stays up.
        health_interval_ms: 0,
        ..Default::default()
    }
}

fn cluster(tag: &str, n_groups: usize) -> TestCluster {
    spawn_cluster(
        tag,
        PARTICLES,
        TIMESTEPS,
        INDEX_BINS,
        n_groups,
        1,
        backend_config(),
        router_config(),
    )
}

/// A splitmix-style deterministic generator — the differential contract
/// needs reproducible conversations, not statistical quality.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xDEAD_BEEF))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

const COLUMNS: [&str; 4] = ["x", "y", "px", "py"];
const THRESHOLDS: [&str; 6] = ["0", "1e9", "-1e9", "5e9", "1e10", "1e30"];

fn random_predicate(rng: &mut Rng) -> String {
    let clause = |rng: &mut Rng| {
        format!(
            "{} {} {}",
            rng.pick(&COLUMNS),
            rng.pick(&[">", "<"]),
            rng.pick(&THRESHOLDS)
        )
    };
    let first = clause(rng);
    if rng.below(2) == 0 {
        format!("{first} {} {}", rng.pick(&["&&", "||"]), clause(rng))
    } else {
        first
    }
}

/// Keep captured id lists bounded so REFINE/TRACK lines stay small without
/// losing cross-shard coverage.
fn clip_ids(csv: &str) -> String {
    let ids: Vec<&str> = csv.split(',').take(24).collect();
    ids.join(",")
}

/// Generate one seeded conversation and replay it in lockstep against the
/// router and the single-process oracle, asserting byte-identity reply by
/// reply. Returns how many replies were compared.
fn drive_lockstep(seed: u64, router: &mut Client, oracle: &mut Client) -> usize {
    let mut rng = Rng::new(seed);
    let mut last_ids: Option<String> = None;
    let mut compared = 0;
    for i in 0..60 {
        let step = rng.below(TIMESTEPS);
        let line = match rng.below(12) {
            0 => "PING".to_string(),
            1 => "INFO".to_string(),
            2..=4 => format!("SELECT\t{step}\t{}", random_predicate(&mut rng)),
            5 | 6 => {
                let bins = rng.pick(&["4", "8", "16"]);
                let column = rng.pick(&COLUMNS);
                if rng.below(2) == 0 {
                    format!(
                        "HIST\t{step}\t{column}\t{bins}\t{}",
                        random_predicate(&mut rng)
                    )
                } else {
                    format!("HIST\t{step}\t{column}\t{bins}")
                }
            }
            7 | 8 => match &last_ids {
                Some(ids) => format!("REFINE\t{step}\t{ids}\t{}", random_predicate(&mut rng)),
                None => format!("SELECT\t{step}\tpx > 0"),
            },
            9 => match &last_ids {
                Some(ids) => format!("TRACK\t{ids}"),
                None => format!("TRACK\t{},{}", rng.below(PARTICLES), rng.below(PARTICLES)),
            },
            10 => format!("SELECT\t{}\tpx > 0", TIMESTEPS + rng.below(90)), // unknown step
            11 => rng
                .pick(&[
                    "SELECT",
                    "HIST\t0\tnope\t8",
                    "TRACK\tnot,numbers",
                    "NOSUCHVERB\targ",
                    "SELECT\t0\tpx >",
                ])
                .to_string(),
            _ => unreachable!(),
        };
        let from_router = router.request(&line).expect("router request");
        let from_oracle = oracle.request(&line).expect("oracle request");
        assert_eq!(
            from_router, from_oracle,
            "seed {seed} diverged on request {i}: {line:?}"
        );
        if line.starts_with("SELECT\t") && from_router.starts_with("OK\tSELECT\t") {
            let ids = from_router.split('\t').nth(3).unwrap_or("");
            if !ids.is_empty() {
                last_ids = Some(clip_ids(ids));
            }
        }
        compared += 1;
    }
    compared
}

fn run_seeded(tag: &str, n_groups: usize, seeds: &[u64]) {
    let cluster = cluster(tag, n_groups);
    let oracle = cluster.spawn_oracle(backend_config());
    for &seed in seeds {
        let mut router = Client::connect(cluster.addr()).expect("connect router");
        let mut single = Client::connect(oracle.addr()).expect("connect oracle");
        let compared = drive_lockstep(seed, &mut router, &mut single);
        assert_eq!(compared, 60, "every generated request was compared");
        assert_eq!(router.request("QUIT").unwrap(), "OK\tBYE");
        assert_eq!(single.request("QUIT").unwrap(), "OK\tBYE");
    }
    oracle.shutdown_and_clean();
    cluster.shutdown_and_clean();
}

#[test]
fn seeded_conversations_match_on_a_3_shard_cluster() {
    run_seeded("cdiff_3s_async", 3, &[1, 2, 3, 4, 5]);
}

#[test]
fn seeded_conversations_match_on_a_1_shard_cluster() {
    run_seeded("cdiff_1s_async", 1, &[6, 7]);
}

/// The deterministic hostile-input catalog (modeled on
/// `reference_differential::deterministic_lines`): parse errors, invalid
/// UTF-8 in expressions and verbs, unknown steps and columns — every reply
/// byte-identical through the router.
fn hostile_lines() -> Vec<Vec<u8>> {
    let mut lines: Vec<Vec<u8>> = [
        "PING",
        "INFO",
        "SELECT\t0\tpx > 0",
        "SELECT\t1\tpx > 0 && y > 0",
        "SELECT\t2\tpx > 1e30", // empty result
        "SELECT\t99\tpx > 0",   // ERR: no such step anywhere
        "HIST\t0\tpx\t8",
        "HIST\t1\ty\t4\tpx > 0",
        "HIST\t0\tnope\t8", // ERR: no such column
        "REFINE\t0\t1,2,3\tpx > 0",
        "TRACK\t1,2",
        "SAVE",                   // ERR: no store configured (passed through from a shard)
        "WARM",                   // ERR: no store configured
        "SELECT",                 // ERR: missing args
        "SELECT\tzero\tpx > 0",   // ERR: bad step
        "HIST\t0\tpx\tmany",      // ERR: bad bins
        "NOSUCHVERB\targ",        // ERR: unknown verb
        "select\t0\tpx > 0",      // ERR: verbs are case-sensitive
        "SELECT\t0\tpx >",        // ERR: truncated expression
        "SELECT\t0\t(px > 0",     // ERR: unbalanced paren
        "SELECT\t0\tpx <>\t0",    // ERR: stray tab in expression
        "TRACK\tnot,numbers",     // ERR: bad id list
        "\tleading\ttab",         // ERR: empty verb
        "PING\textra\targuments", // pinned either way
    ]
    .into_iter()
    .map(|s| s.as_bytes().to_vec())
    .collect();
    // Invalid UTF-8 inside an expression: the router decodes lossily once
    // and forwards the decoded string, so the backend sees exactly what the
    // single server would have decoded itself.
    lines.push(b"SELECT\t0\tpx > \xff\xfe".to_vec());
    // Invalid UTF-8 inside the verb: answered locally at the router by the
    // same parser the single server runs.
    lines.push(b"PI\xf0NG".to_vec());
    lines
}

fn connect_raw(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

#[test]
fn hostile_lines_reply_byte_identical_through_the_router() {
    let cluster = cluster("cdiff_hostile", 3);
    let oracle = cluster.spawn_oracle(backend_config());
    let lines = hostile_lines();

    let mut transcripts: Vec<Vec<String>> = Vec::new();
    for addr in [cluster.addr(), oracle.addr()] {
        let stream = connect_raw(addr);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut replies = Vec::new();
        for line in &lines {
            writer.write_all(line).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert!(reply.ends_with('\n'), "unterminated reply for {line:?}");
            replies.push(reply);
        }
        writer.write_all(b"QUIT\n").unwrap();
        transcripts.push(replies);
    }

    for ((line, through_router), single) in lines.iter().zip(&transcripts[0]).zip(&transcripts[1]) {
        assert_eq!(
            through_router,
            single,
            "router diverged on request {:?}",
            String::from_utf8_lossy(line)
        );
    }

    oracle.shutdown_and_clean();
    cluster.shutdown_and_clean();
}

/// Whole-conversation framing transcripts (empty lines, EOF mid-line, a
/// pipeline discarded behind QUIT, CRLF) — the router shares the hardened
/// connection layers with the single server, and the full byte blob each
/// side produces must match.
#[test]
fn conversation_transcripts_match_through_the_router() {
    let cluster = cluster("cdiff_transcript", 3);
    let oracle = cluster.spawn_oracle(backend_config());

    let conversations: Vec<&[u8]> = vec![
        b"\n\nPING\n\n\nINFO\n",
        b"PING\nSELECT\t0\tpx > 0",
        b"NOSUCHVERB",
        b"PING\nQUIT\nSELECT\t0\tpx > 0\nPING\n",
        b"PING\r\nINFO\r\n",
        b"\n",
        b"SELECT\t0\tpx > 0\nSELECT\t99\tpx > 0\nHIST\t0\tpx\t8\nTRACK\t1,2\nPING\n",
    ];

    let converse = |addr: SocketAddr, bytes: &[u8]| -> Vec<u8> {
        let mut stream = connect_raw(addr);
        stream.write_all(bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        reply
    };

    for bytes in conversations {
        let through_router = converse(cluster.addr(), bytes);
        let single = converse(oracle.addr(), bytes);
        assert_eq!(
            String::from_utf8_lossy(&through_router),
            String::from_utf8_lossy(&single),
            "transcripts diverged for conversation {:?}",
            String::from_utf8_lossy(bytes)
        );
    }

    oracle.shutdown_and_clean();
    cluster.shutdown_and_clean();
}
