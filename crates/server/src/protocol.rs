//! The wire protocol: one request per line, one reply line per request.
//!
//! Requests are tab-separated fields; the first field is a case-insensitive
//! verb. Replies are a single line of tab-separated fields starting with
//! `OK` (followed by the echoed verb and its payload) or `ERR` (followed by
//! a message). Keeping both sides line-delimited means any client — including
//! `nc` — can drive the server, and replies are deterministic functions of
//! the query results, so they can be compared byte-for-byte against replies
//! assembled from direct [`vdx_core::DataExplorer`] calls.
//!
//! The **normative specification** — full reply grammar, per-verb
//! semantics, error forms, and every `STATS` field — lives in
//! `docs/PROTOCOL.md` at the repository root; `tests/protocol_doc.rs`
//! asserts that every [`Request`] variant and every emitted `STATS` field is
//! documented there. The table below is a quick reference only.
//!
//! | Request | Reply |
//! |---|---|
//! | `PING` | `OK\tPONG` |
//! | `INFO` | `OK\tINFO\t<timesteps>\t<steps csv>` |
//! | `STATS` | `OK\tSTATS\t<key=value>\t…` |
//! | `SELECT\t<step>\t<query>` | `OK\tSELECT\t<count>\t<ids csv>` |
//! | `REFINE\t<step>\t<ids csv>\t<query>` | `OK\tREFINE\t<count>\t<ids csv>` |
//! | `HIST\t<step>\t<column>\t<bins>[\t<condition>]` | `OK\tHIST\t<total>\t<lo>\t<hi>\t<counts csv>` |
//! | `TRACK\t<ids csv>` | `OK\tTRACK\t<traces>\t<total hits>\t<id:points csv>` |
//! | `SAVE` | `OK\tSAVE\t<segments>\t<bytes newly written>` (requires `--store-dir`) |
//! | `WARM` | `OK\tWARM\t<warmed>\t<timesteps>` (requires `--store-dir`) |
//! | `METRICS` | `OK\tMETRICS\t<lines>` + that many raw exposition lines |
//! | `TRACE\tLAST` / `TRACE\t<id>` | `OK\tTRACE\t<id>\t<verb>\t<total µs>\t<request>\t<span tree>` |
//! | `SLOWLOG[\t<n>]` | `OK\tSLOWLOG\t<count>\t<entry>\t…` |
//! | `REBALANCE` | `OK\tREBALANCE\t<groups>\t<steps>` (router only) |
//! | `QUIT` | `OK\tBYE` (connection closes) |
//! | `SHUTDOWN` | `OK\tBYE` (server drains and stops) |
//!
//! `METRICS` is the protocol's one multi-line reply: the header line carries
//! the exact number of Prometheus text-exposition lines that follow it, so
//! a line-oriented client knows how many more lines to consume.

use histogram::Hist1D;
use vdx_core::pipeline::TrackingOutput;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Catalog metadata.
    Info,
    /// Server metrics and cache counters.
    Stats,
    /// Evaluate a selection query at one timestep.
    Select {
        /// Timestep to query.
        step: usize,
        /// Query text, e.g. `px > 8.872e10 && y > 0`.
        query: String,
    },
    /// Intersect an id set with a query at one timestep.
    Refine {
        /// Timestep to query.
        step: usize,
        /// Particle identifiers to restrict to.
        ids: Vec<u64>,
        /// Additional query text.
        query: String,
    },
    /// 1D histogram of a column, optionally restricted by a condition.
    Hist {
        /// Timestep to histogram.
        step: usize,
        /// Column name.
        column: String,
        /// Number of uniform bins.
        bins: usize,
        /// Optional condition query text.
        condition: Option<String>,
    },
    /// Trace particle identifiers across every timestep.
    Track {
        /// Particle identifiers to trace.
        ids: Vec<u64>,
    },
    /// Bring every timestep's catalog file to what a full load serves: a
    /// file written without indexes is completed and written back in place
    /// (requires `--store-dir`).
    Save,
    /// Preload every timestep through the dataset cache; a file that holds
    /// its indexes is served as it is, one written without them is written
    /// back (requires `--store-dir`).
    Warm,
    /// Dump the metrics registry in Prometheus text exposition format (the
    /// protocol's one multi-line reply).
    Metrics,
    /// Fetch a recorded request trace: the most recent one (`TRACE LAST`)
    /// or a specific request ID (`TRACE <id>`).
    Trace {
        /// `None` for the most recent trace, `Some(id)` for a lookup by
        /// request ID (the main ring is searched first, then the slowlog).
        id: Option<u64>,
    },
    /// List the most recent slow-query entries, newest first.
    SlowLog {
        /// Maximum entries to return.
        limit: usize,
    },
    /// Reload the cluster shard map from disk (router only; a single-process
    /// server answers with a typed `ERR`).
    Rebalance,
    /// Close this connection.
    Quit,
    /// Gracefully stop the whole server.
    Shutdown,
}

impl Request {
    /// The wire verb of this request, as a static string (used to label
    /// traces before any reply is assembled).
    pub fn verb(&self) -> &'static str {
        match self {
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
}

/// Default entry count of a bare `SLOWLOG` request.
pub const SLOWLOG_DEFAULT_LIMIT: usize = 16;

fn parse_ids(field: &str) -> Result<Vec<u64>, String> {
    if field.is_empty() {
        return Ok(Vec::new());
    }
    field
        .split(',')
        .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad id '{s}'")))
        .collect()
}

/// The largest `<bins>` a `HIST` request may ask for: 256× the largest count
/// any client in this repository sends (256). The bin edges are allocated
/// before any data is read, so an unchecked count could exhaust memory.
pub const MAX_HIST_BINS: usize = 65_536;

fn parse_bins(field: &str) -> Result<usize, String> {
    match field.parse::<usize>() {
        Ok(n) if n <= MAX_HIST_BINS => Ok(n),
        Ok(_) => Err(format!("bad bin count '{field}' (at most {MAX_HIST_BINS})")),
        Err(_) => Err(format!("bad bin count '{field}'")),
    }
}

fn parse_step(field: &str) -> Result<usize, String> {
    field
        .parse::<usize>()
        .map_err(|_| format!("bad timestep '{field}'"))
}

/// Parse one request line. Returns a human-readable message on malformed
/// input; the server turns that into an `ERR` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let fields: Vec<&str> = line.split('\t').collect();
    let verb = fields[0].trim().to_ascii_uppercase();
    match (verb.as_str(), fields.len()) {
        ("PING", 1) => Ok(Request::Ping),
        ("INFO", 1) => Ok(Request::Info),
        ("STATS", 1) => Ok(Request::Stats),
        ("SAVE", 1) => Ok(Request::Save),
        ("WARM", 1) => Ok(Request::Warm),
        ("QUIT", 1) => Ok(Request::Quit),
        ("SHUTDOWN", 1) => Ok(Request::Shutdown),
        ("SELECT", 3) => Ok(Request::Select {
            step: parse_step(fields[1])?,
            query: fields[2].to_string(),
        }),
        ("REFINE", 4) => Ok(Request::Refine {
            step: parse_step(fields[1])?,
            ids: parse_ids(fields[2])?,
            query: fields[3].to_string(),
        }),
        ("HIST", 4 | 5) => Ok(Request::Hist {
            step: parse_step(fields[1])?,
            column: fields[2].to_string(),
            bins: parse_bins(fields[3])?,
            condition: fields.get(4).map(|s| s.to_string()),
        }),
        ("TRACK", 2) => Ok(Request::Track {
            ids: parse_ids(fields[1])?,
        }),
        ("METRICS", 1) => Ok(Request::Metrics),
        ("TRACE", 2) => {
            let arg = fields[1].trim();
            if arg.eq_ignore_ascii_case("last") {
                Ok(Request::Trace { id: None })
            } else {
                arg.parse::<u64>()
                    .map(|id| Request::Trace { id: Some(id) })
                    .map_err(|_| format!("bad trace id '{arg}' (want LAST or a request id)"))
            }
        }
        ("SLOWLOG", 1) => Ok(Request::SlowLog {
            limit: SLOWLOG_DEFAULT_LIMIT,
        }),
        ("REBALANCE", 1) => Ok(Request::Rebalance),
        ("SLOWLOG", 2) => Ok(Request::SlowLog {
            limit: fields[1]
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("bad slowlog limit '{}'", fields[1]))?,
        }),
        ("", _) => Err("empty request".to_string()),
        (verb, n) => Err(format!("unknown request '{verb}' with {} field(s)", n - 1)),
    }
}

/// Join values with commas (no trailing separator, empty for no values).
fn csv<T: std::fmt::Display>(values: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

/// `OK\t<verb>\t<count>\t<ids csv>` — the reply to SELECT and REFINE.
pub fn ids_reply(verb: &str, ids: &[u64]) -> String {
    format!("OK\t{verb}\t{}\t{}", ids.len(), csv(ids.iter()))
}

/// `OK\tHIST\t<total>\t<lo>\t<hi>\t<counts csv>`.
pub fn hist_reply(hist: &Hist1D) -> String {
    format!(
        "OK\tHIST\t{}\t{}\t{}\t{}",
        hist.total(),
        hist.edges().lo(),
        hist.edges().hi(),
        csv(hist.counts().iter())
    )
}

/// `OK\tTRACK\t<traces>\t<total hits>\t<id:points csv>` from `(id,
/// points)` pairs sorted by identifier, ids with no match left out — so the
/// reply is deterministic. The one TRACK formatter: a server counts its
/// reply straight from identifier indexes
/// ([`vdx_core::DataExplorer::track_counts`]).
pub fn track_counts_reply(points: &[(u64, u64)]) -> String {
    format!(
        "OK\tTRACK\t{}\t{}\t{}",
        points.len(),
        points.iter().map(|&(_, n)| n).sum::<u64>(),
        csv(points.iter().map(|(id, n)| format!("{id}:{n}")))
    )
}

/// [`track_counts_reply`] of a whole tracking run: each trace's identifier
/// and its number of points (traces are sorted by identifier).
pub fn track_reply(tracking: &TrackingOutput) -> String {
    let points: Vec<(u64, u64)> = tracking
        .traces
        .iter()
        .map(|t| (t.id, t.points.len() as u64))
        .collect();
    track_counts_reply(&points)
}

/// `OK\tINFO\t<timesteps>\t<steps csv>`.
pub fn info_reply(steps: &[usize]) -> String {
    format!("OK\tINFO\t{}\t{}", steps.len(), csv(steps.iter()))
}

/// `OK\tMETRICS\t<lines>` followed by exactly that many raw Prometheus
/// text-exposition lines — the protocol's one multi-line reply. The header
/// line carries the line count so a line-oriented client knows how many
/// more lines to read.
pub fn metrics_reply(exposition: &str) -> String {
    let lines: Vec<&str> = exposition.lines().collect();
    let mut out = format!("OK\tMETRICS\t{}", lines.len());
    for line in lines {
        out.push('\n');
        out.push_str(line);
    }
    out
}

/// `OK\tTRACE\t<id>\t<verb>\t<total µs>\t<request>\t<span tree>` — the span
/// tree rendered by [`obs::Trace::render_line`] (spans joined by `"; "`,
/// nesting depth as leading dots), which contains no tabs or newlines.
pub fn trace_reply(trace: &obs::Trace) -> String {
    format!(
        "OK\tTRACE\t{}\t{}\t{}\t{}\t{}",
        trace.id,
        trace.verb,
        trace.total_us,
        trace.request,
        trace.render_line()
    )
}

/// `OK\tSLOWLOG\t<count>\t<entry>\t…` — one tab-separated field per slow
/// request, newest first, each `<id>:<verb>:<total µs>us <request line>`.
/// The full span tree of an entry stays retrievable via `TRACE <id>`.
pub fn slowlog_reply(entries: &[std::sync::Arc<obs::Trace>]) -> String {
    let mut out = format!("OK\tSLOWLOG\t{}", entries.len());
    for t in entries {
        out.push('\t');
        out.push_str(&format!(
            "{}:{}:{}us {}",
            t.id, t.verb, t.total_us, t.request
        ));
    }
    out
}

/// `ERR\t<message>` with the message flattened to one line.
pub fn err_reply(message: &str) -> String {
    let flat: String = message
        .chars()
        .map(|c| {
            if c == '\n' || c == '\r' || c == '\t' {
                ' '
            } else {
                c
            }
        })
        .collect();
    format!("ERR\t{flat}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_case_insensitively() {
        assert_eq!(parse_request("ping"), Ok(Request::Ping));
        assert_eq!(parse_request("QUIT\n"), Ok(Request::Quit));
        assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
        assert_eq!(parse_request("save"), Ok(Request::Save));
        assert_eq!(parse_request("WARM"), Ok(Request::Warm));
        assert!(parse_request("SAVE\textra").is_err());
        assert_eq!(
            parse_request("select\t3\tpx > 1e9 && y > 0"),
            Ok(Request::Select {
                step: 3,
                query: "px > 1e9 && y > 0".to_string()
            })
        );
    }

    #[test]
    fn structured_requests_parse() {
        assert_eq!(
            parse_request("REFINE\t2\t1,2,3\tx > 0"),
            Ok(Request::Refine {
                step: 2,
                ids: vec![1, 2, 3],
                query: "x > 0".to_string()
            })
        );
        assert_eq!(
            parse_request("HIST\t0\tpx\t64"),
            Ok(Request::Hist {
                step: 0,
                column: "px".to_string(),
                bins: 64,
                condition: None
            })
        );
        assert_eq!(
            parse_request("HIST\t0\tpx\t64\ty > 0"),
            Ok(Request::Hist {
                step: 0,
                column: "px".to_string(),
                bins: 64,
                condition: Some("y > 0".to_string())
            })
        );
        assert_eq!(
            parse_request("TRACK\t5,9"),
            Ok(Request::Track { ids: vec![5, 9] })
        );
        assert_eq!(parse_request("TRACK\t"), Ok(Request::Track { ids: vec![] }));
    }

    #[test]
    fn observability_requests_parse() {
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(
            parse_request("TRACE\tLAST"),
            Ok(Request::Trace { id: None })
        );
        assert_eq!(
            parse_request("trace\tlast"),
            Ok(Request::Trace { id: None })
        );
        assert_eq!(
            parse_request("TRACE\t42"),
            Ok(Request::Trace { id: Some(42) })
        );
        assert_eq!(
            parse_request("SLOWLOG"),
            Ok(Request::SlowLog {
                limit: SLOWLOG_DEFAULT_LIMIT
            })
        );
        assert_eq!(
            parse_request("SLOWLOG\t3"),
            Ok(Request::SlowLog { limit: 3 })
        );
        assert!(parse_request("TRACE").is_err(), "TRACE needs an argument");
        assert!(parse_request("TRACE\tfrog").is_err());
        assert!(parse_request("SLOWLOG\t-1").is_err());
        assert!(parse_request("METRICS\textra").is_err());
    }

    #[test]
    fn rebalance_parses_as_a_bare_verb() {
        assert_eq!(parse_request("REBALANCE"), Ok(Request::Rebalance));
        assert_eq!(parse_request("rebalance"), Ok(Request::Rebalance));
        assert_eq!(Request::Rebalance.verb(), "REBALANCE");
        assert!(parse_request("REBALANCE\textra").is_err());
    }

    #[test]
    fn metrics_reply_counts_its_exposition_lines() {
        let reply = metrics_reply("# HELP a A.\n# TYPE a counter\na 1\n");
        let mut lines = reply.lines();
        assert_eq!(lines.next(), Some("OK\tMETRICS\t3"));
        assert_eq!(lines.count(), 3, "header count matches body");
        assert_eq!(metrics_reply(""), "OK\tMETRICS\t0");
    }

    #[test]
    fn verb_names_match_the_wire_protocol() {
        assert_eq!(Request::Ping.verb(), "PING");
        assert_eq!(Request::Metrics.verb(), "METRICS");
        assert_eq!(Request::Trace { id: None }.verb(), "TRACE");
        assert_eq!(Request::SlowLog { limit: 1 }.verb(), "SLOWLOG");
        for line in ["PING", "METRICS", "TRACE\tLAST", "SLOWLOG", "QUIT"] {
            let parsed = parse_request(line).unwrap();
            assert!(line.starts_with(parsed.verb()), "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_request("").is_err());
        assert!(parse_request("NOPE").is_err());
        assert!(parse_request("SELECT\tx\tpx > 1").is_err());
        assert!(parse_request("SELECT\t1").is_err());
        assert!(parse_request("TRACK\t1,frog").is_err());
        assert!(parse_request("HIST\t1\tpx\tmany").is_err());
        assert!(parse_request(&format!("HIST\t1\tpx\t{MAX_HIST_BINS}")).is_ok());
        assert_eq!(
            parse_request("HIST\t0\tpx\t4000000000"),
            Err("bad bin count '4000000000' (at most 65536)".to_string())
        );
    }

    #[test]
    fn replies_are_single_tab_separated_lines() {
        assert_eq!(ids_reply("SELECT", &[3, 5, 8]), "OK\tSELECT\t3\t3,5,8");
        assert_eq!(ids_reply("REFINE", &[]), "OK\tREFINE\t0\t");
        assert_eq!(err_reply("bad\nthing\there"), "ERR\tbad thing here");
        assert_eq!(info_reply(&[0, 1, 2]), "OK\tINFO\t3\t0,1,2");
    }
}
