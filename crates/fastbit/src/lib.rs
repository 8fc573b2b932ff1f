//! A FastBit-style compressed bitmap index library.
//!
//! This crate reimplements, in safe Rust, the index/query machinery the paper
//! relies on for query-driven visualization:
//!
//! * [`bitvec::BitVec`] — plain uncompressed bit vectors.
//! * [`wah::Wah`] — Word-Aligned Hybrid (WAH) run-length compressed bit
//!   vectors with run-aware `AND`/`OR`/`NOT`, population count and set-bit
//!   iteration. WAH is the compression FastBit uses ("the fastest known
//!   bitmap compression technique").
//! * [`index::BitmapIndex`] — a binned bitmap index over one floating-point
//!   column: one compressed bitmap per bin, low-precision bin boundaries,
//!   candidate checks against the raw column for partially covered boundary
//!   bins. Supports two encodings side by side — the equality encoding (one
//!   bitmap per bin, ORed across the bins a range spans) and an optional
//!   range (cumulative) encoding answering any bin span with at most two WAH
//!   operations — with a per-query cost model
//!   ([`index::BitmapIndex::choose_encoding`]) picking the cheaper one.
//! * [`index::IdIndex`] — an index over the particle-identifier column that
//!   answers `ID IN (…)` queries in time proportional to the number of rows
//!   found, the operation behind particle tracking.
//! * [`query`] — compound Boolean range-query expressions
//!   (`px > 1e9 && py < 1e8 && y > 0`), a small parser for paper-style query
//!   strings, and [`ExecStrategy`], the one index-or-scan switch: `Auto`
//!   uses the indexes (FastBit), `ScanOnly` scans like the paper's "Custom"
//!   baseline (Figures 11–17).
//! * [`hist`] — unconditional and conditional 1D/2D histogram computation
//!   under either strategy.
//! * [`scan`] — row-at-a-time query and identifier scans of the "Custom"
//!   baseline.
//! * [`testing`] — the tree-walk evaluator the differential suites hold the
//!   compiled and chunked engines to; no product path calls it.
//! * [`persist`] — std-only binary encoders/decoders for `BitmapIndex`,
//!   `IdIndex` and `ZoneMaps` (WAH bitmaps written in their already-
//!   compressed form), hardened against hostile bytes: every failure is a
//!   typed `PersistError`, never a panic or an unbounded allocation. The
//!   datastore crate's `vdx` store builds its checksummed segment files on
//!   top of these.
//! * [`par`] — the chunked parallel evaluation engine: fixed-size row chunks
//!   carrying zone maps (min/max/NaN count), a std-only work-queue thread
//!   pool, and per-chunk query evaluation that skips chunks the zone map
//!   proves empty or full. Deterministic: the selected row set is identical
//!   to sequential evaluation for every thread count and chunk size.
//! * [`compile`] — query compilation: a normalized [`query::QueryExpr`] is
//!   lowered once into a linear bytecode [`compile::Program`] (predicate
//!   slots, AND/OR/NOT over mask registers, planner decisions bound per
//!   dataset) and evaluated with fused word-at-a-time kernels by both
//!   engines, with a deterministic plan printer and an LRU
//!   [`compile::PlanCache`] keyed by [`query::QueryExpr::cache_key`].

#![deny(missing_docs)]

pub mod bitvec;
pub mod compile;
pub mod error;
pub mod hist;
pub mod index;
pub mod par;
pub mod persist;
pub mod query;
pub mod scan;
pub mod selection;
pub mod testing;
pub mod wah;

pub use bitvec::BitVec;
pub use compile::{OpCode, PlanCache, PlanCacheStats, PlanMode, PredSource, Program, Root};
pub use error::{FastBitError, Result};
pub use hist::{BinSpec, EvaluatedCondition, HistogramEngine};
pub use index::{
    encoding_stats, register_encoding_metrics, BitmapIndex, EncodingStatsSnapshot, IdIndex,
    IndexEncoding,
};
pub use par::{ChunkMasks, ParExec, ParStatsSnapshot, Zone, ZoneMaps};
pub use persist::{PersistError, PersistResult};
pub use query::{parse_query, ColumnProvider, ExecStrategy, Predicate, QueryExpr, ValueRange};
pub use selection::Selection;
pub use wah::Wah;
