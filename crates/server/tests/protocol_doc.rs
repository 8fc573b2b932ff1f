//! `docs/PROTOCOL.md` is the normative wire-protocol specification; this
//! suite keeps it honest in both directions:
//!
//! * every [`Request`] variant the server can parse must be documented (an
//!   exhaustive `match` makes adding a variant without touching this test a
//!   compile error), and
//! * every field a real `STATS` reply emits must be documented — either
//!   verbatim (`store_hits`) or through the per-operation template
//!   (`<op>_p50_us` with the op named in the spec).

use std::sync::Arc;

use datastore::Catalog;
use histogram::Binning;
use lwfa::{SimConfig, Simulation};
use vdx_server::{parse_stats, Request, Server, ServerConfig};

const PROTOCOL_DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// The wire verb of each request variant. Exhaustive on purpose: a new
/// variant fails compilation here until it is mapped — and the test body
/// then fails until the verb is documented.
fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Ping => "PING",
        Request::Info => "INFO",
        Request::Stats => "STATS",
        Request::Select { .. } => "SELECT",
        Request::Refine { .. } => "REFINE",
        Request::Hist { .. } => "HIST",
        Request::Track { .. } => "TRACK",
        Request::Save => "SAVE",
        Request::Warm => "WARM",
        Request::Metrics => "METRICS",
        Request::Trace { .. } => "TRACE",
        Request::SlowLog { .. } => "SLOWLOG",
        Request::Rebalance => "REBALANCE",
        Request::Quit => "QUIT",
        Request::Shutdown => "SHUTDOWN",
    }
}

/// One representative of every `Request` variant.
fn all_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Info,
        Request::Stats,
        Request::Select {
            step: 0,
            query: "px > 0".into(),
        },
        Request::Refine {
            step: 0,
            ids: vec![1],
            query: "px > 0".into(),
        },
        Request::Hist {
            step: 0,
            column: "px".into(),
            bins: 8,
            condition: None,
        },
        Request::Track { ids: vec![1] },
        Request::Save,
        Request::Warm,
        Request::Metrics,
        Request::Trace { id: None },
        Request::SlowLog { limit: 16 },
        Request::Rebalance,
        Request::Quit,
        Request::Shutdown,
    ]
}

#[test]
fn every_request_variant_is_documented() {
    for request in all_requests() {
        let verb = verb_of(&request);
        assert!(
            PROTOCOL_DOC.contains(&format!("`{verb}")),
            "verb {verb} is not documented in docs/PROTOCOL.md"
        );
    }
    // The reply statuses and the error form are specified too.
    for token in ["OK", "ERR", "`OK\\tBYE`", "ERR\\t<message>"] {
        assert!(
            PROTOCOL_DOC.contains(token),
            "reply token {token} missing from docs/PROTOCOL.md"
        );
    }
}

#[test]
fn every_stats_field_is_documented() {
    // A real STATS reply from a real server over a tiny catalog.
    let dir = std::env::temp_dir().join(format!("vdx_protocol_doc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let mut config = SimConfig::tiny();
    config.particles_per_step = 100;
    config.num_timesteps = 2;
    Simulation::new(config)
        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 8 }))
        .unwrap();
    let server = Server::bind(Arc::new(catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle();
    let state = handle.state();
    // Touch a few operations so every metric family is exercised.
    state.handle_line("SELECT\t0\tpx > 0");
    state.handle_line("HIST\t0\tpx\t8");
    let (stats, _) = state.handle_line("STATS");
    assert!(stats.starts_with("OK\tSTATS\t"), "{stats}");

    const OPS: [&str; 13] = [
        "select", "refine", "hist", "track", "meta", "ping", "info", "stats", "save", "warm",
        "metrics", "trace", "slowlog",
    ];
    let fields = parse_stats(&stats);
    assert!(!fields.is_empty());
    for key in fields.keys() {
        // Literal documentation, or the per-op template with the op named.
        let documented_literally = PROTOCOL_DOC.contains(&format!("`{key}`"));
        let documented_by_template = OPS.iter().any(|op| {
            key.strip_prefix(&format!("{op}_")).is_some_and(|suffix| {
                PROTOCOL_DOC.contains(&format!("`<op>_{suffix}`"))
                    && PROTOCOL_DOC.contains(&format!("`{op}`"))
            })
        });
        assert!(
            documented_literally || documented_by_template,
            "STATS field '{key}' is not documented in docs/PROTOCOL.md"
        );
    }

    // The other direction for the newer surfaces: every field the docs
    // promise must actually be emitted by a real reply.
    for promised in [
        "uptime_s",
        "inflight_requests",
        "traces_recorded",
        "trace_ring_len",
        "slowlog_len",
        "evaluations",
        "io_mode",
        "connections_accepted",
        "connections_open",
        "connection_errors",
        "busy_rejections",
        "reactor_replies",
        "idle_disconnects",
        "lines_too_long",
    ] {
        assert!(
            fields.contains_key(promised),
            "documented STATS field '{promised}' missing from a real reply"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The router's `STATS` superset and its `vdx_cluster_*` metric families
/// are held to the same two-way contract: every field a real routed reply
/// emits must be documented (per-shard fields through the `shard<g>_`
/// template), and every family the router registers must appear in
/// `docs/OBSERVABILITY.md`.
#[test]
fn every_router_stats_field_and_metric_family_is_documented() {
    const OBSERVABILITY_DOC: &str = include_str!("../../../docs/OBSERVABILITY.md");
    let cluster = vdx_server::testkit::spawn_cluster(
        "protocol_doc_cluster",
        100,
        2,
        8,
        2,
        1,
        ServerConfig::default(),
        vdx_server::RouterConfig {
            health_interval_ms: 0,
            ..Default::default()
        },
    );
    let mut client = vdx_server::Client::connect(cluster.addr()).unwrap();
    // Exercise a forward, a fanout, and a rebalance so the reply is real.
    assert!(client
        .request("SELECT\t0\tpx > 0")
        .unwrap()
        .starts_with("OK\tSELECT\t"));
    assert!(client
        .request("TRACK\t1,2,3")
        .unwrap()
        .starts_with("OK\tTRACK\t"));
    assert!(client
        .request("REBALANCE")
        .unwrap()
        .starts_with("OK\tREBALANCE\t"));

    let stats = client.request("STATS").unwrap();
    let fields = parse_stats(&stats);
    assert!(!fields.is_empty());
    const OPS: [&str; 13] = [
        "select", "refine", "hist", "track", "meta", "ping", "info", "stats", "save", "warm",
        "metrics", "trace", "slowlog",
    ];
    for key in fields.keys() {
        // Per-shard fields are documented through the `shard<g>_` template.
        let template = match key.strip_prefix("shard") {
            Some(rest) if rest.starts_with(|c: char| c.is_ascii_digit()) => {
                let suffix = rest.trim_start_matches(|c: char| c.is_ascii_digit());
                Some(format!("`shard<g>{suffix}`"))
            }
            _ => None,
        };
        let documented_literally = PROTOCOL_DOC.contains(&format!("`{key}`"));
        let documented_as_shard = template.is_some_and(|t| PROTOCOL_DOC.contains(&t));
        let documented_by_op_template = OPS.iter().any(|op| {
            key.strip_prefix(&format!("{op}_")).is_some_and(|suffix| {
                PROTOCOL_DOC.contains(&format!("`<op>_{suffix}`"))
                    && PROTOCOL_DOC.contains(&format!("`{op}`"))
            })
        });
        assert!(
            documented_literally || documented_as_shard || documented_by_op_template,
            "router STATS field '{key}' is not documented in docs/PROTOCOL.md"
        );
    }
    // And the other direction: the common fields every front reports, and
    // the cluster fields the docs promise.
    for promised in [
        "reactor_replies",
        "inflight_requests",
        "traces_recorded",
        "cluster_groups",
        "cluster_replicas",
        "cluster_replicas_healthy",
        "cluster_degraded",
        "cluster_fanouts",
        "cluster_forwards",
        "cluster_failovers",
        "cluster_shard_unavailable",
        "cluster_rebalances",
    ] {
        assert!(
            fields.contains_key(promised),
            "documented router STATS field '{promised}' missing from a real reply"
        );
    }

    let metrics = client.metrics().unwrap();
    let mut cluster_families = 0usize;
    for line in &metrics {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let family = rest.split(' ').next().unwrap();
        if family.starts_with("vdx_cluster_") {
            cluster_families += 1;
        }
        assert!(
            OBSERVABILITY_DOC.contains(&format!("`{family}`")),
            "router metric family '{family}' is not documented in docs/OBSERVABILITY.md"
        );
    }
    assert!(
        cluster_families >= 8,
        "router registry exposes the vdx_cluster_* families"
    );

    assert_eq!(client.request("QUIT").unwrap(), "OK\tBYE");
    drop(client);
    cluster.shutdown_and_clean();
}

#[test]
fn every_metric_family_is_documented() {
    const OBSERVABILITY_DOC: &str = include_str!("../../../docs/OBSERVABILITY.md");
    let dir = std::env::temp_dir().join(format!("vdx_metrics_doc_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut catalog = Catalog::create(&dir).unwrap();
    let mut config = SimConfig::tiny();
    config.particles_per_step = 100;
    config.num_timesteps = 2;
    Simulation::new(config)
        .run_to_catalog(&mut catalog, Some(&Binning::EqualWidth { bins: 8 }))
        .unwrap();
    let server = Server::bind(Arc::new(catalog), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let handle = server.handle();
    let state = handle.state();
    state.handle_line("SELECT\t0\tpx > 0");
    let (metrics, _) = state.handle_line("METRICS");
    assert!(metrics.starts_with("OK\tMETRICS\t"), "{metrics}");
    let mut families = Vec::new();
    for line in metrics.lines().skip(1) {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let family = rest.split(' ').next().unwrap();
        families.push(family.to_string());
        assert!(
            OBSERVABILITY_DOC.contains(&format!("`{family}`")),
            "metric family '{family}' is not documented in docs/OBSERVABILITY.md"
        );
    }
    assert!(
        families.len() >= 10,
        "a real registry exposes many families"
    );
    // The connection-layer families must exist in both io-modes — the
    // instruments are registered at bind time, not by the connection layer.
    for family in [
        "vdx_connections_accepted_total",
        "vdx_connections_open",
        "vdx_connection_errors_total",
        "vdx_busy_rejections_total",
        "vdx_reactor_replies_total",
        "vdx_idle_disconnects_total",
        "vdx_lines_too_long_total",
    ] {
        assert!(
            families.iter().any(|f| f == family),
            "registry is missing the {family} family: {families:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
