//! Convenient re-exports for applications built on VDX.

pub use crate::analysis::{BeamStatistics, TemporalHistograms};
pub use crate::error::{Result, VdxError};
pub use crate::explorer::{BeamSelection, DataExplorer, ExplorerConfig};
pub use crate::pipeline::{HistogramStage, Tracker, TrackingOutput};

pub use datastore::{Catalog, Contract, Dataset, ParticleTable};
pub use fastbit::{parse_query, BinSpec, ExecStrategy, QueryExpr, Selection, ValueRange};
pub use histogram::{BinEdges, Binning, Hist1D, Hist2D};
pub use lwfa::{Dims, SimConfig, Simulation};
pub use pcoords::{AxisSpec, Framebuffer, Layer, ParallelCoordsPlot, PlotConfig, Rgba};
