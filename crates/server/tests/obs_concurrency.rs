//! The observability surfaces under fire: scraper clients hammer `STATS`,
//! `METRICS` and `TRACE LAST` while query clients run a mixed workload.
//! Properties:
//!
//! (a) nothing panics or wedges — every reply arrives and is well-formed;
//! (b) counters are monotonic between consecutive scrapes of one client;
//! (c) every `METRICS` body line parses as Prometheus text exposition;
//! (d) after the workload drains, the `inflight_requests` gauge is zero
//!     and a replayed request's trace is retrievable and self-consistent.

use vdx_server::{parse_stats, testkit, Client, ServerConfig};

/// Assert one Prometheus text-exposition line is well-formed: either a
/// `# HELP`/`# TYPE` comment or a `name{labels} value` sample whose value
/// parses as a float (`NaN` included — unexercised quantiles report it).
fn assert_exposition_line(line: &str) {
    if let Some(comment) = line.strip_prefix("# ") {
        assert!(
            comment.starts_with("HELP ") || comment.starts_with("TYPE "),
            "unknown exposition comment: {line:?}"
        );
        return;
    }
    let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line has no value: {line:?}");
    });
    assert!(
        value.parse::<f64>().is_ok(),
        "sample value does not parse as f64: {line:?}"
    );
    let name = name_part.split('{').next().unwrap();
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad metric name in {line:?}"
    );
}

/// One query client's round: SELECT / HIST / REFINE-shaped mixed load, some
/// of it erroring on purpose so error counters move too.
fn query_round(client: &mut Client, q: usize, i: usize) {
    let step = (q + i) % 4;
    let reply = match i % 4 {
        0 => client
            .request(&format!("SELECT\t{step}\tpx > 0 && y > 0"))
            .unwrap(),
        1 => client.request(&format!("HIST\t{step}\tpx\t16")).unwrap(),
        2 => client
            .request(&format!("SELECT\t{step}\tpx > {}e8", i % 7))
            .unwrap(),
        _ => client.request("SELECT\t99\tpx > 0").unwrap(), // ERR
    };
    assert!(
        reply.starts_with("OK\t") || reply.starts_with("ERR\t"),
        "{reply:?}"
    );
}

/// One scraper client's round: STATS / METRICS / TRACE LAST, checking its
/// own monotonic counter floors never regress.
fn scraper_round(client: &mut Client, s: usize, i: usize, floor: &mut [u64]) {
    let monotonic = ["select_count", "select_errors", "meta_count", "evaluations"];
    match (s + i) % 3 {
        0 => {
            let stats = parse_stats(&client.request("STATS").unwrap());
            assert!(
                stats["inflight_requests"].parse::<i64>().unwrap() >= 1,
                "the STATS request itself is in flight"
            );
            for (slot, key) in floor.iter_mut().zip(monotonic) {
                let v = stats[key].parse::<u64>().unwrap();
                assert!(v >= *slot, "{key} regressed: {v} < {slot}");
                *slot = v;
            }
        }
        1 => {
            let lines = client.metrics().unwrap();
            assert!(!lines.is_empty());
            for line in &lines {
                assert_exposition_line(line);
            }
        }
        _ => {
            // With other clients racing, LAST may name any request — or
            // nothing at all in the opening instants before the first one
            // finishes. Only the shape is deterministic here.
            let reply = client.request("TRACE\tLAST").unwrap();
            if reply.starts_with("OK\tTRACE\t") {
                assert!(reply.contains("request "), "{reply:?}");
            } else {
                assert!(reply.starts_with("ERR\t"), "{reply:?}");
            }
        }
    }
}

#[test]
fn scrapers_and_queries_coexist_without_tearing_async() {
    let server = testkit::spawn_tiny_server(
        "mixed_async",
        400,
        4,
        16,
        ServerConfig {
            workers: 8,
            ..Default::default()
        },
    );
    let addr = server.addr();

    const ROUNDS: usize = 30;
    // One shared fan-out: clients 0..4 run the mixed query load, clients
    // 4..7 scrape the observability surfaces concurrently.
    testkit::drive_clients(addr, 7, |n, client| {
        if n < 4 {
            for i in 0..ROUNDS {
                query_round(client, n, i);
            }
        } else {
            let mut floor = [0u64; 4];
            for i in 0..ROUNDS {
                scraper_round(client, n - 4, i, &mut floor);
            }
        }
    });

    // (d) everything drained: the gauge pairs its inc/dec even across ERR
    // replies and concurrent scrapes.
    assert_eq!(server.state().metrics().inflight().get(), 0);

    // A quiesced replay is fully deterministic end to end: request → trace
    // by id → same structure on a second replay.
    let state = server.state();
    state.handle_line("SELECT\t0\tpx > 0 && y > 0");
    let first = state.tracer().last().unwrap();
    state.handle_line("SELECT\t0\tpx > 0 && y > 0");
    let second = state.tracer().last().unwrap();
    assert!(second.id > first.id);
    assert_eq!(first.structure(), second.structure());
    assert_eq!(
        state.tracer().get(second.id).unwrap().render_line(),
        second.render_line()
    );

    // Counters observed over the wire match the in-process registry.
    let mut client = Client::connect(addr).unwrap();
    let stats = parse_stats(&client.request("STATS").unwrap());
    // Each query client issued ~15 valid SELECTs (rounds 0 and 2 of every 4,
    // minus nothing — step and query are always valid there).
    let selects: u64 = stats["select_count"].parse().unwrap();
    assert!(selects >= 40, "{selects}");
    let body = client.metrics().unwrap().join("\n");
    assert!(body.contains(&format!("vdx_requests_total{{op=\"select\"}} {selects}")));

    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    drop(client);
    server.shutdown_and_clean();
}
