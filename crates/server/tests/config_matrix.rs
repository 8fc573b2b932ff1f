//! The whole product configuration matrix, enumerated.
//!
//! What a caller still chooses about evaluation is the explorer's engine
//! (`Auto`, the indexed FastBit path, or `ScanOnly`, the Custom baseline)
//! and its threads (`1` or `2`: one evaluator, whose plan is the engine's
//! at one thread and the zone-pruned chunk scan at two), and the server's
//! threads (a server always runs `Auto`). Each of those six configurations
//! runs over a catalog with a segment store attached and over the same
//! catalog without one: twelve in all. Every one answers the same script —
//! the data lines of `TIER_CROSSING_CONVERSATION` plus seeded
//! `SELECT`/`REFINE`/`HIST`/`TRACK` lines — with the same reply bytes; the
//! explorers' replies are formatted through the protocol's own reply
//! helpers. Each server also takes the whole conversation pipelined over a
//! socket, and the four transcripts are identical.
//!
//! Every step holds two chunks of `DEFAULT_CHUNK_ROWS` rows (the second one
//! short), so the chunked configurations prune and combine across chunks.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use datastore::{Catalog, Store};
use fastbit::par::DEFAULT_CHUNK_ROWS;
use fastbit::ExecStrategy;
use rand::{rngs::StdRng, Rng, SeedableRng};
use vdx_core::{DataExplorer, ExplorerConfig};
use vdx_server::protocol::{self, Request};
use vdx_server::testkit::{tiny_catalog, TIER_CROSSING_CONVERSATION, TIER_CROSSING_PREFILL};
use vdx_server::{Server, ServerConfig, ServerHandle};

const PARTICLES: usize = DEFAULT_CHUNK_ROWS + 904;
const TIMESTEPS: usize = 4;
const COLUMNS: [&str; 4] = ["x", "y", "px", "py"];

/// The conversation's lines before its `QUIT`: the ones every
/// configuration answers.
fn conversation_data_lines() -> Vec<String> {
    TIER_CROSSING_CONVERSATION
        .iter()
        .take_while(|line| **line != "QUIT")
        .map(|line| line.to_string())
        .collect()
}

/// Seeded data lines whose thresholds are values drawn from the catalog, so
/// queries select neither nothing nor everything by construction.
fn seeded_lines(catalog: &Catalog, seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tables: Vec<_> = (0..TIMESTEPS)
        .map(|step| catalog.load(step, None, false).unwrap())
        .collect();
    let threshold = |rng: &mut StdRng, step: usize| {
        let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
        let values = tables[step].table().float_column(column).unwrap();
        (column, values[rng.gen_range(0..values.len())])
    };
    let query = |rng: &mut StdRng, step: usize| {
        let (a, va) = threshold(rng, step);
        let (b, vb) = threshold(rng, step);
        match rng.gen_range(0..4) {
            0 => format!("{a} > {va:e}"),
            1 => format!("{a} > {va:e} && {b} < {vb:e}"),
            2 => format!("{a} < {va:e} || {b} >= {vb:e}"),
            _ => format!("({a} > {va:e} && {a} <= {vb:e}) || !({b} < {vb:e})"),
        }
    };
    let ids = |rng: &mut StdRng| {
        let ids: Vec<String> = (0..rng.gen_range(1..40))
            .map(|_| rng.gen_range(0..PARTICLES as u64 + 50).to_string())
            .collect();
        ids.join(",")
    };
    (0..count)
        .map(|_| {
            let step = rng.gen_range(0..TIMESTEPS);
            match rng.gen_range(0..4) {
                0 => format!("SELECT\t{step}\t{}", query(&mut rng, step)),
                1 => format!(
                    "REFINE\t{step}\t{}\t{}",
                    ids(&mut rng),
                    query(&mut rng, step)
                ),
                2 => {
                    let column = COLUMNS[rng.gen_range(0..COLUMNS.len())];
                    let bins = rng.gen_range(1..64);
                    match rng.gen_bool(0.5) {
                        true => format!("HIST\t{step}\t{column}\t{bins}"),
                        false => {
                            let condition = query(&mut rng, step);
                            format!("HIST\t{step}\t{column}\t{bins}\t{condition}")
                        }
                    }
                }
                _ => format!("TRACK\t{}", ids(&mut rng)),
            }
        })
        .collect()
}

/// The reply a server gives `line`, assembled from direct explorer calls.
fn explorer_reply(explorer: &DataExplorer, line: &str) -> String {
    let reply = match protocol::parse_request(line).unwrap() {
        Request::Ping => Ok("OK\tPONG".to_string()),
        Request::Info => Ok(protocol::info_reply(&explorer.steps())),
        Request::Select { step, query } => explorer
            .select(step, &query)
            .map(|beam| protocol::ids_reply("SELECT", &beam.ids)),
        Request::Refine { step, ids, query } => {
            let expr = fastbit::parse_query(&query).unwrap();
            explorer
                .refine_ids(step, &ids, &expr)
                .map(|ids| protocol::ids_reply("REFINE", &ids))
        }
        Request::Hist {
            step,
            column,
            bins,
            condition,
        } => explorer
            .histogram1d(step, &column, bins, condition.as_deref())
            .map(|hist| protocol::hist_reply(&hist)),
        Request::Track { ids } => {
            // The counting path a server runs, and the full trace it
            // abbreviates, agree.
            let counts = protocol::track_counts_reply(&explorer.track_counts(&ids).unwrap());
            let traced = protocol::track_reply(&explorer.track(&ids).unwrap());
            assert_eq!(counts, traced, "{line:?}");
            Ok(counts)
        }
        other => panic!("not a data line: {other:?}"),
    };
    reply.unwrap_or_else(|e| panic!("{line:?}: {e}"))
}

/// Send the prefill one line at a time, then the whole conversation in one
/// write, and read every reply until the server closes after `QUIT`.
fn conversation_transcript(handle: &ServerHandle) -> String {
    for line in TIER_CROSSING_PREFILL {
        assert!(handle.state().handle_line(line).0.starts_with("OK\t"));
    }
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let conversation = TIER_CROSSING_CONVERSATION.join("\n") + "\n";
    stream.write_all(conversation.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).unwrap();
    transcript
}

/// The generated catalog without a store, and the same files with a store
/// attached under `dir/store`.
fn catalogs(dir: &Path, plain: Arc<Catalog>) -> [(&'static str, Arc<Catalog>); 2] {
    let mut stored = Catalog::open(dir).unwrap();
    stored.attach_store(Store::open(dir.join("store")).unwrap());
    [("no store", plain), ("store", Arc::new(stored))]
}

#[test]
fn every_configuration_answers_byte_identically() {
    let (plain, dir) = tiny_catalog("config_matrix", PARTICLES, TIMESTEPS, 16);
    let mut script = conversation_data_lines();
    script.extend(seeded_lines(&plain, 0xC0FF_EE38, 48));

    let mut answers: Vec<(String, Vec<String>)> = Vec::new();
    let mut transcripts: Vec<(String, String)> = Vec::new();
    for (storage, catalog) in catalogs(&dir, plain) {
        for engine in [ExecStrategy::Auto, ExecStrategy::ScanOnly] {
            for threads in [1, 2] {
                let explorer = DataExplorer::from_catalog(
                    Arc::clone(&catalog),
                    ExplorerConfig {
                        engine,
                        threads,
                        ..Default::default()
                    },
                );
                let replies = script
                    .iter()
                    .map(|line| explorer_reply(&explorer, line))
                    .collect();
                let label = format!("explorer {engine:?} threads {threads}, {storage}");
                answers.push((label, replies));
                if threads > 1 {
                    assert!(explorer.par_stats().queries > 0, "{engine:?} chunked");
                }
            }
        }
        for threads in [1, 2] {
            let config = ServerConfig {
                workers: 2,
                threads,
                ..Default::default()
            };
            let server = Server::bind(Arc::clone(&catalog), "127.0.0.1:0", config).unwrap();
            let (handle, join) = server.spawn();
            let label = format!("server threads {threads}, {storage}");
            transcripts.push((label.clone(), conversation_transcript(&handle)));
            let replies = script
                .iter()
                .map(|line| handle.state().handle_line(line).0)
                .collect();
            answers.push((label, replies));
            handle.shutdown();
            join.join().unwrap().unwrap();
        }
    }
    assert_eq!(answers.len(), 12);
    assert_eq!(transcripts.len(), 4);

    let (reference, expected) = &answers[0];
    for (i, line) in script.iter().enumerate() {
        assert!(
            expected[i].starts_with("OK\t"),
            "{line:?} -> {}",
            expected[i]
        );
    }
    // The seeded lines use every data verb, and some selections are
    // neither empty nor everything.
    for verb in ["SELECT", "REFINE", "HIST", "TRACK"] {
        assert!(script.iter().any(|line| line.starts_with(verb)), "{verb}");
    }
    let partial = expected.iter().filter(|reply| {
        let count = reply
            .strip_prefix("OK\tSELECT\t")
            .map(|rest| rest.split('\t').next().unwrap().parse::<usize>().unwrap());
        matches!(count, Some(n) if n > 0 && n < PARTICLES)
    });
    assert!(partial.count() >= 3);
    for (label, replies) in &answers[1..] {
        for (i, line) in script.iter().enumerate() {
            assert_eq!(replies[i], expected[i], "{label} vs {reference}: {line:?}");
        }
    }
    // The pipelined conversation: the data lines' replies, then `QUIT`'s.
    let (reference, transcript) = &transcripts[0];
    let data_lines = conversation_data_lines().len();
    let lines: Vec<&str> = transcript.lines().collect();
    assert_eq!(lines.len(), data_lines + 1, "{transcript}");
    assert_eq!(lines[..data_lines], expected[..data_lines]);
    for (label, other) in &transcripts[1..] {
        assert_eq!(other, transcript, "{label} vs {reference}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
