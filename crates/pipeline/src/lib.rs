//! The query-driven visualization pipeline.
//!
//! This crate reproduces the VisIt-side plumbing of the paper:
//!
//! * [`contract::Contract`] — the out-of-band information passed *upstream*
//!   to the reader: which columns a downstream computation needs, which
//!   selection restricts it, and whether identifier tracking is required.
//!   Contracts are what keep the reader from touching data it does not need.
//! * [`executor::NodePool`] — the parallel execution substrate. The paper
//!   assigns timestep files to Cray XT4 nodes in a strided, static fashion
//!   with no inter-node communication; here every "node" is a thread with
//!   its own private file I/O, which preserves the embarrassingly parallel
//!   structure (and therefore the strong-scaling behaviour of Figures 14–17).
//! * [`stages`] — the reader-level histogram stage: per timestep file, load
//!   only the contracted columns, evaluate the condition, compute the
//!   requested 2D histogram pairs and discard the raw data.
//! * [`tracker`] — particle tracking: evaluate `ID IN (…)` across every
//!   timestep and assemble per-particle traces.
//!
//! These are the substrate of the paper's Figures 14–17, which run them at
//! an explicit node count. The beam-analysis workflow of Section IV lives
//! on `vdx_core::DataExplorer`, which runs the tracker through its dataset
//! cache.

#![deny(missing_docs)]

pub mod contract;
pub mod error;
pub mod executor;
pub mod stages;
pub mod tracker;

pub use contract::Contract;
pub use error::{PipelineError, Result};
pub use executor::{NodePool, NodeReport};
pub use stages::{HistogramStage, StageOutput, TimestepHistograms};
pub use tracker::{ParticleTrace, TracePoint, Tracker, TrackingOutput};
