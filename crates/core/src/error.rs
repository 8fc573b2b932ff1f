//! Top-level error type.

use std::fmt;

/// Errors surfaced by the [`crate::DataExplorer`] facade.
#[derive(Debug)]
pub enum VdxError {
    /// Storage-layer failure.
    Store(datastore::DataStoreError),
    /// Index/query failure (including query-string parse errors and a
    /// panicked fan-out worker).
    Query(fastbit::FastBitError),
    /// I/O failure outside the storage layer (e.g. writing an image).
    Io(std::io::Error),
    /// The request was inconsistent with the catalog (missing axis, etc.).
    Invalid(String),
}

impl fmt::Display for VdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VdxError::Store(e) => write!(f, "{e}"),
            VdxError::Query(e) => write!(f, "{e}"),
            VdxError::Io(e) => write!(f, "{e}"),
            VdxError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for VdxError {}

impl From<datastore::DataStoreError> for VdxError {
    fn from(e: datastore::DataStoreError) -> Self {
        VdxError::Store(e)
    }
}

impl From<fastbit::FastBitError> for VdxError {
    fn from(e: fastbit::FastBitError) -> Self {
        VdxError::Query(e)
    }
}

impl From<std::io::Error> for VdxError {
    fn from(e: std::io::Error) -> Self {
        VdxError::Io(e)
    }
}

impl From<histogram::BinningError> for VdxError {
    fn from(e: histogram::BinningError) -> Self {
        VdxError::Query(fastbit::FastBitError::Binning(e))
    }
}

/// Result alias for the facade.
pub type Result<T> = std::result::Result<T, VdxError>;
