//! # VDX — query-driven histogram-based parallel coordinates
//!
//! `vdx-core` is the public facade of the VDX workspace, a Rust reproduction
//! of *"High Performance Multivariate Visual Data Exploration for Extremely
//! Large Data"* (Rübel et al., SC 2008). It ties together:
//!
//! * the synthetic laser-wakefield dataset generator ([`lwfa`]),
//! * columnar timestep storage with persisted bitmap indexes ([`datastore`]),
//! * FastBit-style compressed bitmap indexing and compound Boolean range
//!   queries ([`fastbit`]),
//! * histogram computation ([`histogram`]),
//! * the catalog-wide stages of the paper's Figures 14–17 ([`pipeline`]):
//!   the contract-driven reader-level [`pipeline::HistogramStage`] and the
//!   particle [`pipeline::Tracker`], each fanning timestep files out over
//!   [`fastbit::par::run`], and
//! * histogram-based parallel-coordinates rendering ([`pcoords`]).
//!
//! The central type is [`DataExplorer`], which owns a timestep catalog and
//! exposes the paper's workflow: compute context views, build focus
//! selections from query strings, drill down with conditional histograms,
//! trace particles through time and render parallel-coordinates plots whose
//! cost depends only on histogram resolution.
//!
//! ```no_run
//! use vdx_core::prelude::*;
//!
//! let explorer = DataExplorer::generate(
//!     "/tmp/vdx-demo",
//!     SimConfig::paper_2d(50_000),
//!     ExplorerConfig::default(),
//! ).unwrap();
//! // Beam selection at the final timestep, as in the paper's Figure 5.
//! let beam = explorer.select(37, "px > 2.5e10").unwrap();
//! let tracks = explorer.track(&beam.ids).unwrap();
//! println!("selected {} particles, traced {} trajectories", beam.ids.len(), tracks.traces.len());
//! ```

#![deny(missing_docs)]

pub mod analysis;
pub mod error;
pub mod explorer;
pub mod prelude;
mod stages;
mod tracker;

/// The paper's catalog-wide stages, run at an explicit thread count. The
/// paper hands whole timestep files to compute nodes that never talk to
/// each other; here each timestep is one item of [`fastbit::par::run`]'s
/// work queue, which keeps that embarrassingly parallel structure (and the
/// strong scaling of Figures 14–17).
///
/// * [`HistogramStage`](pipeline::HistogramStage) — the reader-level
///   histogram stage: per timestep file, load only the columns its
///   [`datastore::Contract`] names, evaluate the condition, compute the
///   requested 2D histogram pairs and discard the raw data.
/// * [`Tracker`](pipeline::Tracker) — particle tracking: evaluate
///   `ID IN (…)` across every timestep and assemble per-particle traces.
///
/// The beam-analysis workflow of Section IV runs the tracker through
/// [`DataExplorer`]'s dataset cache.
pub mod pipeline {
    pub use crate::stages::{HistogramStage, StageOutput, TimestepHistograms};
    pub use crate::tracker::{ParticleTrace, TracePoint, Tracker, TrackingOutput};
}

pub use analysis::{BeamStatistics, TemporalHistograms};
pub use error::{Result, VdxError};
pub use explorer::{BeamSelection, DataExplorer, ExplorerConfig};

// Re-export the member crates under stable names so downstream users need a
// single dependency.
pub use datastore;
pub use fastbit;
pub use histogram;
pub use lwfa;
pub use pcoords;
