//! Error handling for the storage layer.

use std::fmt;
use std::io;

/// Errors produced by the storage and dataset layer.
#[derive(Debug)]
pub enum DataStoreError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// A table was assembled from columns that cannot form one.
    Format(String),
    /// A requested column does not exist in the table or file.
    UnknownColumn(String),
    /// Columns of one table had inconsistent lengths.
    LengthMismatch {
        /// Expected number of rows.
        expected: usize,
        /// Number of rows in the offending column.
        found: usize,
        /// Name of the offending column.
        column: String,
    },
    /// A query or histogram request failed in the index/query layer.
    Query(fastbit::FastBitError),
    /// The requested timestep is not present in the catalog.
    UnknownTimestep(usize),
    /// A catalog timestep's segment file failed validation. The file is
    /// the only copy of its timestep, so this is never healed.
    Store(crate::store::StoreError),
}

impl fmt::Display for DataStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataStoreError::Io(e) => write!(f, "I/O error: {e}"),
            DataStoreError::Format(msg) => write!(f, "file format error: {msg}"),
            DataStoreError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DataStoreError::LengthMismatch {
                expected,
                found,
                column,
            } => write!(f, "column '{column}' has {found} rows, expected {expected}"),
            DataStoreError::Query(e) => write!(f, "query error: {e}"),
            DataStoreError::UnknownTimestep(t) => write!(f, "unknown timestep {t}"),
            DataStoreError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for DataStoreError {}

impl From<io::Error> for DataStoreError {
    fn from(e: io::Error) -> Self {
        DataStoreError::Io(e)
    }
}

impl From<fastbit::FastBitError> for DataStoreError {
    fn from(e: fastbit::FastBitError) -> Self {
        DataStoreError::Query(e)
    }
}

impl From<crate::store::StoreError> for DataStoreError {
    fn from(e: crate::store::StoreError) -> Self {
        DataStoreError::Store(e)
    }
}

impl From<histogram::BinningError> for DataStoreError {
    fn from(e: histogram::BinningError) -> Self {
        DataStoreError::Query(fastbit::FastBitError::Binning(e))
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DataStoreError>;
