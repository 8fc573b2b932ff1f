//! Per-operation server metrics: request counts, error counts and latency
//! quantiles, built on the [`obs`] metrics registry.
//!
//! Every protocol verb owns an [`OpMetrics`] triple — a success counter, an
//! error counter and a lock-free log₁₀-scale latency histogram — registered
//! in the server's [`obs::Registry`] under `vdx_requests_total`,
//! `vdx_request_errors_total` and `vdx_request_latency_us` with an
//! `op="<verb>"` label, so the same instruments back both the `STATS`
//! key=value fields and the `METRICS` Prometheus exposition. The historical
//! `meta_*` aggregate over the metadata verbs (PING/INFO/STATS/SAVE/WARM
//! plus the observability verbs) is kept for `STATS` compatibility but held
//! out of the registry — its samples would double-count the per-verb series.

use std::sync::Arc;
use std::time::Duration;

use obs::{Counter, Gauge, LatencyHistogram, Registry};

use crate::protocol::Request;

/// Counters and a latency histogram for one operation type.
#[derive(Debug)]
pub struct OpMetrics {
    count: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<LatencyHistogram>,
}

impl OpMetrics {
    /// Register a per-verb triple in `registry` labelled `op="<op>"`.
    fn register(registry: &Registry, op: &'static str) -> Self {
        let labels = [("op", op)];
        Self {
            count: registry.counter(
                "vdx_requests_total",
                "Successful requests handled, by protocol operation.",
                &labels,
            ),
            errors: registry.counter(
                "vdx_request_errors_total",
                "Failed requests, by protocol operation.",
                &labels,
            ),
            latency: registry.summary(
                "vdx_request_latency_us",
                "Request latency in microseconds, by protocol operation.",
                &labels,
            ),
        }
    }

    /// An instrument triple that is not surfaced through any registry —
    /// used for the `meta_*` aggregate, whose samples are already counted
    /// by the per-verb series.
    fn unregistered() -> Self {
        Self {
            count: Arc::new(Counter::default()),
            errors: Arc::new(Counter::default()),
            latency: Arc::new(LatencyHistogram::default()),
        }
    }

    /// Record one successful request and its wall-clock duration.
    /// Sub-microsecond durations clamp to the 1 µs bottom of the histogram;
    /// durations beyond 10 s land in the overflow bucket and report as the
    /// 10 s range top.
    pub fn record(&self, elapsed: Duration) {
        self.count.inc();
        self.latency.record(elapsed);
    }

    /// Record one failed request (no latency sample).
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Number of successful requests.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Number of failed requests.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Approximate latency quantile in microseconds (`q` in `[0, 1]`,
    /// clamped). `None` when no sample has ever been recorded — a
    /// never-exercised op is not the same as a very fast one, and `STATS`
    /// renders the distinction as `-`.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.latency.quantile_us(q)
    }
}

/// Connection-layer instruments, counted by the event loop. These count
/// *connections and admission decisions*, not requests — a connection that
/// sends a hundred pipelined requests moves `accepted` once; a request
/// refused by admission control moves `busy_rejections` without ever
/// reaching the per-verb [`OpMetrics`]; a request the reactor answers
/// itself moves `reactor_replies` *and* its per-verb instruments, like any
/// served request.
#[derive(Debug)]
pub struct ConnMetrics {
    accepted: Arc<Counter>,
    open: Arc<Gauge>,
    errors: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    reactor_replies: Arc<Counter>,
    idle_disconnects: Arc<Counter>,
    lines_too_long: Arc<Counter>,
}

impl ConnMetrics {
    /// Register the connection-layer families in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            accepted: registry.counter(
                "vdx_connections_accepted_total",
                "Client connections accepted since startup.",
                &[],
            ),
            open: registry.gauge(
                "vdx_connections_open",
                "Client connections currently open.",
                &[],
            ),
            errors: registry.counter(
                "vdx_connection_errors_total",
                "Connections torn down abnormally: socket I/O errors, oversized \
                 request lines, and write-stall evictions.",
                &[],
            ),
            busy_rejections: registry.counter(
                "vdx_busy_rejections_total",
                "Requests refused with `ERR busy` because the dispatch queue was full.",
                &[],
            ),
            reactor_replies: registry.counter(
                "vdx_reactor_replies_total",
                "Requests the event loop's reactor answered from resident memory \
                 without dispatching them to a worker.",
                &[],
            ),
            idle_disconnects: registry.counter(
                "vdx_idle_disconnects_total",
                "Connections evicted after exceeding the idle timeout.",
                &[],
            ),
            lines_too_long: registry.counter(
                "vdx_lines_too_long_total",
                "Request lines rejected for exceeding the line-length cap.",
                &[],
            ),
        }
    }

    /// Note an accepted connection (bumps the open gauge too).
    pub fn note_accepted(&self) {
        self.accepted.inc();
        self.open.inc();
    }

    /// Note a connection leaving, however it ended.
    pub fn note_closed(&self) {
        self.open.dec();
    }

    /// Note an abnormal teardown (I/O error, oversized line, write stall).
    pub fn note_error(&self) {
        self.errors.inc();
    }

    /// Note an admission-control rejection (`ERR busy`).
    pub fn note_busy_rejection(&self) {
        self.busy_rejections.inc();
    }

    /// Note a request answered on the reactor thread.
    pub fn note_reactor_reply(&self) {
        self.reactor_replies.inc();
    }

    /// Note an idle-timeout eviction.
    pub fn note_idle_disconnect(&self) {
        self.idle_disconnects.inc();
    }

    /// Note a request line that exceeded the cap.
    pub fn note_line_too_long(&self) {
        self.lines_too_long.inc();
    }

    /// Connections accepted since startup.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Connections currently open.
    pub fn open(&self) -> i64 {
        self.open.get()
    }

    /// Abnormal teardowns since startup.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// `ERR busy` rejections since startup.
    pub fn busy_rejections(&self) -> u64 {
        self.busy_rejections.get()
    }

    /// Requests answered on the reactor thread since startup.
    pub fn reactor_replies(&self) -> u64 {
        self.reactor_replies.get()
    }

    /// Idle-timeout evictions since startup.
    pub fn idle_disconnects(&self) -> u64 {
        self.idle_disconnects.get()
    }

    /// Oversized request lines since startup.
    pub fn lines_too_long(&self) -> u64 {
        self.lines_too_long.get()
    }
}

/// All server metrics: one [`OpMetrics`] per protocol operation, the
/// `meta_*` aggregate, the index-evaluation counter the query cache is
/// measured against, and the in-flight request gauge.
#[derive(Debug)]
pub struct ServerMetrics {
    /// SELECT metrics.
    pub select: OpMetrics,
    /// REFINE metrics.
    pub refine: OpMetrics,
    /// HIST metrics.
    pub hist: OpMetrics,
    /// TRACK metrics.
    pub track: OpMetrics,
    /// PING metrics.
    pub ping: OpMetrics,
    /// INFO metrics.
    pub info: OpMetrics,
    /// STATS metrics.
    pub stats: OpMetrics,
    /// SAVE metrics.
    pub save: OpMetrics,
    /// WARM metrics.
    pub warm: OpMetrics,
    /// METRICS metrics.
    pub metrics: OpMetrics,
    /// TRACE metrics.
    pub trace: OpMetrics,
    /// SLOWLOG metrics.
    pub slowlog: OpMetrics,
    /// Aggregate over every metadata verb (PING/INFO/STATS/SAVE/WARM and
    /// the observability verbs) plus unparseable request lines, kept for
    /// `STATS` field compatibility. Not registered — the per-verb series
    /// above already count these samples.
    pub meta: OpMetrics,
    evaluations: Arc<Counter>,
    inflight: Arc<Gauge>,
}

impl ServerMetrics {
    /// Register every server-level instrument in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            select: OpMetrics::register(registry, "select"),
            refine: OpMetrics::register(registry, "refine"),
            hist: OpMetrics::register(registry, "hist"),
            track: OpMetrics::register(registry, "track"),
            ping: OpMetrics::register(registry, "ping"),
            info: OpMetrics::register(registry, "info"),
            stats: OpMetrics::register(registry, "stats"),
            save: OpMetrics::register(registry, "save"),
            warm: OpMetrics::register(registry, "warm"),
            metrics: OpMetrics::register(registry, "metrics"),
            trace: OpMetrics::register(registry, "trace"),
            slowlog: OpMetrics::register(registry, "slowlog"),
            meta: OpMetrics::unregistered(),
            evaluations: registry.counter(
                "vdx_evaluations_total",
                "Requests that evaluated a query against a dataset (query-cache misses).",
                &[],
            ),
            inflight: registry.gauge(
                "vdx_inflight_requests",
                "Requests currently being handled.",
                &[],
            ),
        }
    }

    /// The instrument `request` is recorded under, and whether it also
    /// counts toward the `meta` aggregate (every metadata verb does; the
    /// data verbs and `REBALANCE`, which records under `meta` itself, do
    /// not). `None` for `QUIT` and `SHUTDOWN`, which are not recorded.
    pub fn op(&self, request: &Request) -> Option<(&OpMetrics, bool)> {
        Some(match request {
            Request::Select { .. } => (&self.select, false),
            Request::Refine { .. } => (&self.refine, false),
            Request::Hist { .. } => (&self.hist, false),
            Request::Track { .. } => (&self.track, false),
            Request::Rebalance => (&self.meta, false),
            Request::Ping => (&self.ping, true),
            Request::Info => (&self.info, true),
            Request::Stats => (&self.stats, true),
            Request::Save => (&self.save, true),
            Request::Warm => (&self.warm, true),
            Request::Metrics => (&self.metrics, true),
            Request::Trace { .. } => (&self.trace, true),
            Request::SlowLog { .. } => (&self.slowlog, true),
            Request::Quit | Request::Shutdown => return None,
        })
    }

    /// Note one real query evaluation (cache miss path).
    pub fn note_evaluation(&self) {
        self.evaluations.inc();
    }

    /// Total query evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// The in-flight request gauge: incremented when a request line enters
    /// the request lifecycle ([`crate::LineService::handle_line`] or the
    /// reactor tier's [`crate::LineService::answer_inline`]), decremented
    /// when its reply is ready.
    pub fn inflight(&self) -> &Gauge {
        &self.inflight
    }

    /// Append this op's stats as `<name>_count=…`, `<name>_p50_us=…`,
    /// `<name>_p99_us=…` fields. Quantiles of a never-exercised op render
    /// as `-` rather than a fake `0`.
    pub fn append_op_fields(out: &mut Vec<String>, name: &str, op: &OpMetrics) {
        let quantile = |q: f64| match op.quantile_us(q) {
            Some(us) => format!("{us:.0}"),
            None => "-".to_string(),
        };
        out.push(format!("{name}_count={}", op.count()));
        out.push(format!("{name}_errors={}", op.errors()));
        out.push(format!("{name}_p50_us={}", quantile(0.5)));
        out.push(format!("{name}_p99_us={}", quantile(0.99)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> ServerMetrics {
        ServerMetrics::new(&Registry::new())
    }

    #[test]
    fn quantiles_track_recorded_magnitudes() {
        let m = fresh();
        let op = &m.select;
        assert_eq!(op.quantile_us(0.5), None, "no samples yet");
        for _ in 0..90 {
            op.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            op.record(Duration::from_millis(50));
        }
        assert_eq!(op.count(), 100);
        let p50 = op.quantile_us(0.5).unwrap();
        assert!((80.0..130.0).contains(&p50), "p50 ≈ 100µs, got {p50}");
        let p99 = op.quantile_us(0.99).unwrap();
        assert!((35_000.0..70_000.0).contains(&p99), "p99 ≈ 50ms, got {p99}");
    }

    #[test]
    fn errors_do_not_pollute_latency() {
        let m = fresh();
        m.hist.record_error();
        m.hist.record_error();
        assert_eq!(m.hist.errors(), 2);
        assert_eq!(m.hist.count(), 0);
        assert_eq!(
            m.hist.quantile_us(0.99),
            None,
            "errors carry no latency sample"
        );
    }

    #[test]
    fn empty_histogram_renders_as_dash_not_zero() {
        let m = fresh();
        let mut fields = Vec::new();
        ServerMetrics::append_op_fields(&mut fields, "select", &m.select);
        assert!(
            fields.contains(&"select_p50_us=-".to_string()),
            "{fields:?}"
        );
        assert!(
            fields.contains(&"select_p99_us=-".to_string()),
            "{fields:?}"
        );
    }

    #[test]
    fn per_verb_series_share_registry_families() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.select.record(Duration::from_micros(150));
        m.ping.record(Duration::from_micros(2));
        m.track.record_error();
        m.note_evaluation();
        m.inflight().inc();
        let text = registry.render();
        assert!(
            text.contains("vdx_requests_total{op=\"select\"} 1"),
            "{text}"
        );
        assert!(text.contains("vdx_requests_total{op=\"ping\"} 1"), "{text}");
        assert!(
            text.contains("vdx_request_errors_total{op=\"track\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("vdx_request_latency_us{op=\"select\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(text.contains("vdx_evaluations_total 1"), "{text}");
        assert!(text.contains("vdx_inflight_requests 1"), "{text}");
        assert_eq!(
            text.matches("# TYPE vdx_requests_total counter").count(),
            1,
            "one family header for all ops: {text}"
        );
    }

    #[test]
    fn conn_metrics_register_all_seven_families() {
        let registry = Registry::new();
        let c = ConnMetrics::new(&registry);
        c.note_accepted();
        c.note_accepted();
        c.note_closed();
        c.note_error();
        c.note_busy_rejection();
        c.note_reactor_reply();
        c.note_idle_disconnect();
        c.note_line_too_long();
        assert_eq!(c.accepted(), 2);
        assert_eq!(c.open(), 1);
        assert_eq!(c.errors(), 1);
        assert_eq!(c.busy_rejections(), 1);
        assert_eq!(c.reactor_replies(), 1);
        assert_eq!(c.idle_disconnects(), 1);
        assert_eq!(c.lines_too_long(), 1);
        let text = registry.render();
        for needle in [
            "vdx_connections_accepted_total 2",
            "vdx_connections_open 1",
            "vdx_connection_errors_total 1",
            "vdx_busy_rejections_total 1",
            "vdx_reactor_replies_total 1",
            "vdx_idle_disconnects_total 1",
            "vdx_lines_too_long_total 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn meta_aggregate_stays_out_of_the_registry() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.meta.record(Duration::from_micros(10));
        m.ping.record(Duration::from_micros(10));
        let text = registry.render();
        assert!(
            !text.contains("op=\"meta\""),
            "meta would double-count the per-verb series: {text}"
        );
        assert_eq!(m.meta.count(), 1);
    }
}
