//! Std-only observability primitives for the vdx stack.
//!
//! Two halves, both dependency-free:
//!
//! * [`metrics`] — a process-wide [`Registry`] of named counters, gauges and
//!   log-scale latency histograms that renders Prometheus-style text
//!   exposition. Layers register their instruments (or closures over
//!   pre-existing atomic stats) instead of hand-rolling field lists.
//! * [`trace`] — a cheap hierarchical span recorder. A [`Tracer`] samples
//!   requests, installs a thread-local span stack for the duration of one
//!   request, and assembles the closed spans into a [`Trace`] kept in a
//!   bounded ring buffer plus a slow-query ring. When no trace is active
//!   every instrumentation hook is a thread-local check and a branch, so the
//!   hot path stays unperturbed with sampling disabled.
//!
//! The crate deliberately knows nothing about the query engine: `fastbit`,
//! `datastore`, `core` and `server` all depend on it, never the other way
//! around.

#![deny(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, LatencyHistogram, Registry};
pub use trace::{
    count, is_active, note, record, span, RequestGuard, SpanGuard, SpanRecord, Trace, TraceConfig,
    Tracer,
};
