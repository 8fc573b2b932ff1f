//! Columnar particle storage and the implementation-neutral query API.
//!
//! The paper stores simulation output in HDF5 and accesses it through
//! HDF5-FastQuery, a veneer that exposes query evaluation and histogram
//! computation without tying callers to a specific index implementation.
//! This crate plays both roles:
//!
//! * [`table::ParticleTable`] — an in-memory columnar table of particles
//!   (positions, momenta, identifiers, derived quantities).
//! * [`catalog::Catalog`] — a directory of timestep files, one segment per
//!   timestep holding its columns and the WAH bitmap indexes of the
//!   one-time preprocessing step; the unit of parallel work distribution in
//!   the scalability experiments. Projected loads read only the named
//!   columns (and their indexes).
//! * [`contract::Contract`] — what a downstream computation needs from the
//!   reader (columns, indexes): the out-of-band information that keeps
//!   [`Catalog::load`] from touching data it does not need.
//! * [`dataset::Dataset`] — the FastQuery-style facade: it implements
//!   [`fastbit::ColumnProvider`] and offers query evaluation, conditional
//!   histograms and ID selection over one timestep.
//! * [`cache::DatasetCache`] — a sharded, byte-budgeted LRU cache of loaded
//!   datasets (columns plus indexes) shared as `Arc<Dataset>` across server
//!   workers, so repeated queries against hot timesteps never touch disk.
//! * [`store`] — the `vdx` segment codec: whole datasets (columns, bitmap
//!   indexes, identifier index, zone maps) in one checksummed, versioned
//!   file per timestep, written atomically (temp-then-rename) and validated
//!   section-by-section before a `Dataset` is constructed, so a warm
//!   restart rebuilds zero indexes and hostile bytes produce typed errors
//!   instead of panics. It is the only on-disk format, and a catalog's
//!   timestep file is the only copy of its timestep. [`store::Store`] is
//!   the write-back policy a catalog may carry: a full load of a timestep
//!   written without indexes builds them and rewrites that file.

#![deny(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod column;
pub mod contract;
pub mod dataset;
pub mod error;
pub mod store;
pub mod table;

pub use cache::{DatasetCache, DatasetCacheConfig, DatasetCacheStats};
pub use catalog::{Catalog, TimestepEntry};
pub use column::{Column, ColumnData};
pub use contract::Contract;
pub use dataset::Dataset;
pub use error::{DataStoreError, Result};
pub use store::{Store, StoreError, StoreStats};
pub use table::{ParticleTable, STANDARD_COLUMNS};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, ignoring poison: a thread that panicked while holding the
/// lock leaves the data as it was, and the caches and queues guarded this
/// way stay consistent between statements, so the lock stays usable.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *lock(&m) += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*lock(&m), 8000);
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison the std lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 5);
    }
}
