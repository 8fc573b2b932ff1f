//! Memoization of repeated query shapes.
//!
//! Interactive exploration replays the same query shapes constantly: every
//! client starting from the same context view issues the same SELECT, and a
//! slider that returns to a previous position re-issues a previous HIST. The
//! `QueryCache` memoizes the *reply payload* of deterministic operations
//! keyed by `(step, op, normalized query text)` — normalization via
//! [`fastbit::QueryExpr::cache_key`] flattens/sorts the expression so
//! `a && b` and `b && a` share an entry. A hit returns the stored reply
//! without re-evaluating any index, which the server surfaces through its
//! `evaluations` counter.
//!
//! Entries are capped per shard with LRU eviction; replies are shared as
//! `Arc<str>` so a hit is one clone of a pointer — which the event loop's
//! reactor appends straight to the connection's write buffer, probing with
//! [`QueryCache::probe`] so a miss it hands on to a worker is counted once.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datastore::lock;

/// Effectiveness counters of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Lookups answered from a memoized reply.
    pub hits: u64,
    /// Lookups that had to evaluate the query.
    pub misses: u64,
    /// Entries evicted by the per-shard capacity limit.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
}

#[derive(Debug)]
struct Entry {
    reply: Arc<str>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<String, Entry>,
}

/// A sharded LRU map from canonical query keys to reply payloads.
#[derive(Debug)]
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

const QUERY_CACHE_SHARDS: usize = 8;

impl QueryCache {
    /// A cache holding at most `max_entries` replies (rounded up to a
    /// multiple of the shard count; 0 disables memoization).
    pub fn new(max_entries: usize) -> Self {
        Self {
            shards: (0..QUERY_CACHE_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            capacity_per_shard: max_entries.div_ceil(QUERY_CACHE_SHARDS),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Fetch the memoized reply for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        let hit = self.probe(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`QueryCache::get`] that counts a hit but never a miss: for a lookup
    /// whose miss is handed on to a `get` of the same key, so the request
    /// still moves exactly one of the two counters.
    pub fn probe(&self, key: &str) -> Option<Arc<str>> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock(self.shard(key));
        let entry = shard.entries.get_mut(key)?;
        entry.last_used = now;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.reply))
    }

    /// Memoize `reply` under `key`, evicting the least-recently-used entry
    /// of the shard if it is full.
    pub fn insert(&self, key: String, reply: &str) {
        if self.capacity_per_shard == 0 {
            return;
        }
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock(self.shard(&key));
        while shard.entries.len() >= self.capacity_per_shard && !shard.entries.contains_key(&key) {
            let oldest = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("full shard is non-empty");
            shard.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.entries.insert(
            key,
            Entry {
                reply: Arc::from(reply),
                last_used: now,
            },
        );
    }

    /// Register this cache's effectiveness counters and length in an
    /// [`obs::Registry`] as snapshot collectors, so `METRICS` scrapes and
    /// `STATS` report from the same atomics.
    pub fn register_metrics(self: &Arc<Self>, registry: &obs::Registry) {
        for (event, pick) in [("hit", 0usize), ("miss", 1), ("eviction", 2)] {
            let cache = Arc::clone(self);
            registry.counter_fn(
                "vdx_query_cache_events_total",
                "Query-cache lookups and evictions, by event.",
                &[("event", event)],
                move || {
                    let s = cache.stats();
                    [s.hits, s.misses, s.evictions][pick]
                },
            );
        }
        let cache = Arc::clone(self);
        registry.gauge_fn(
            "vdx_query_cache_len",
            "Memoized replies currently held.",
            &[],
            move || cache.stats().len as f64,
        );
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.shards.iter().map(|s| lock(s).entries.len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_and_counts() {
        let cache = QueryCache::new(64);
        assert!(cache.get("select:1:px > 1").is_none());
        cache.insert("select:1:px > 1".to_string(), "OK\tSELECT\t0\t");
        let hit = cache.get("select:1:px > 1").expect("hit");
        assert_eq!(&*hit, "OK\tSELECT\t0\t");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!(cache.probe("select:1:px > 2").is_none());
        assert_eq!(&*cache.probe("select:1:px > 1").unwrap(), "OK\tSELECT\t0\t");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 1), "a probe never counts a miss");
    }

    #[test]
    fn capacity_evicts_lru() {
        // Single-entry shards: every shard holds at most one reply.
        let cache = QueryCache::new(QUERY_CACHE_SHARDS);
        for i in 0..64 {
            cache.insert(format!("k{i}"), "r");
        }
        let s = cache.stats();
        assert!(s.len <= QUERY_CACHE_SHARDS);
        assert!(s.evictions > 0);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let cache = QueryCache::new(0);
        cache.insert("k".to_string(), "r");
        assert!(cache.get("k").is_none());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn reinserting_same_key_does_not_evict_others() {
        let cache = QueryCache::new(8 * QUERY_CACHE_SHARDS);
        cache.insert("a".to_string(), "1");
        cache.insert("a".to_string(), "2");
        assert_eq!(&*cache.get("a").unwrap(), "2");
        assert_eq!(cache.stats().evictions, 0);
    }
}
