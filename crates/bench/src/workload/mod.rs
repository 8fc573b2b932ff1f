//! Production workload harness: session-based multi-user traffic with SLO
//! gates (see `docs/WORKLOAD.md`).
//!
//! The harness models the paper's interactive exploration loop as a
//! population of seeded user sessions — browse, drill-down, tracker — that
//! arrive open-loop against a live `vdx-server` and run closed-loop within
//! each session. Modules:
//!
//! * [`session`] — the deterministic per-session state machines and the mix;
//! * [`driver`] — arrivals, fan-out, latency capture, STATS/METRICS
//!   scraping and exact client/server reconciliation;
//! * [`slo`] — objective declaration and the `SLO VERDICT:` gate;
//! * [`report`] — `BENCH_workload_mixed.json` and the run summary.
//!
//! The `vdx-workload` binary ties these together; the
//! `workload_determinism` and `workload_slo_gate` integration suites pin
//! the harness's own guarantees.

pub mod driver;
pub mod report;
pub mod session;
pub mod slo;

pub use driver::{run, Recon, WorkloadConfig, WorkloadOutcome, OPS};
pub use session::{Session, SessionKind, SessionMix, SessionOp, SessionSpace};
pub use slo::{evaluate, LatencySlo, SloReport, SloSet};
