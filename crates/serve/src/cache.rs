//! The sharded KB-fragment cache (tier two of the serving cache).
//!
//! A bounded LRU ([`qkb_util::LruCache`] behind the crate's shared
//! sharded-store machinery) keyed by the fingerprint of a query's
//! retrieved-document set. Repeats of a popular query — or different
//! questions that retrieve the same documents — reuse the constructed
//! fragment KB without any rebuild; queries whose sets merely
//! *overlap* fall through to the per-document stage-1 tier
//! ([`crate::Stage1Cache`]). Its counters live in the server's metrics
//! registry under `serve_fragment_cache_*`.

use crate::sharded::{lookup_counts, occupancy_gauge, ShardedLru};
use qkb_kb::OnTheFlyKb;
use qkb_obs::{Registry, RegistrySnapshot};
use std::sync::Arc;

/// Metric-name prefix of the fragment tier.
const NAME: &str = "serve_fragment_cache";

/// Cache counter snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    /// Lookups that found a fragment.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Fragments evicted by capacity pressure.
    pub evictions: u64,
    /// Fragments currently cached.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

impl CacheCounters {
    /// Hits over lookups (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The fragment tier's counters and occupancy gauges in `snap`.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        let [hits, misses, evictions] = lookup_counts(snap, NAME);
        Self {
            hits,
            misses,
            evictions,
            entries: occupancy_gauge(snap, NAME, "entries") as usize,
            capacity: occupancy_gauge(snap, NAME, "capacity") as usize,
        }
    }
}

/// A sharded, bounded, counted LRU over fragment KBs (`Arc<OnTheFlyKb>`).
pub struct FragmentCache {
    store: ShardedLru<Arc<OnTheFlyKb>>,
}

impl FragmentCache {
    /// A cache holding at most `capacity` fragments, spread over
    /// `shards` independently locked LRUs (capacity 0 disables caching;
    /// shards are clamped to `1..=capacity.max(1)`), counting into
    /// `registry`. Per-shard capacities sum exactly to `capacity`; a
    /// key-skewed workload can therefore evict before the *total* is
    /// reached — the price of lock sharding.
    pub fn new(capacity: usize, shards: usize, registry: &Registry) -> Self {
        Self {
            store: ShardedLru::entry_bounded(NAME, capacity, shards, registry),
        }
    }

    /// True when the configured capacity is non-zero.
    pub fn is_enabled(&self) -> bool {
        self.store.is_enabled()
    }

    /// Promoting lookup that counts nothing: the server settles a miss
    /// against the in-flight table first (another shard may publish the
    /// fragment in between), then counts the outcome once with
    /// [`FragmentCache::count`].
    pub fn lookup(&self, key: u64) -> Option<Arc<OnTheFlyKb>> {
        self.store.lookup(key, true)
    }

    /// Counts one settled lookup as a hit or a miss.
    pub fn count(&self, hit: bool) {
        self.store.count(hit)
    }

    /// Uncounted lookup that does **not** perturb the LRU order (the
    /// in-flight claim's re-check).
    pub fn peek_get(&self, key: u64) -> Option<Arc<OnTheFlyKb>> {
        self.store.lookup(key, false)
    }

    /// Inserts a fragment, counting capacity evictions (a same-key
    /// replacement is a refresh and a bounced-back insert lost nothing
    /// cached; neither counts).
    pub fn insert(&self, key: u64, fragment: Arc<OnTheFlyKb>) {
        self.store.insert_weighted(key, fragment, 1);
    }

    /// Occupancy gauges, read from the shards now:
    /// `serve_fragment_cache_entries` and `serve_fragment_cache_capacity`.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.store.gauges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag() -> Arc<OnTheFlyKb> {
        Arc::new(OnTheFlyKb::new())
    }

    fn get(c: &FragmentCache, key: u64) -> Option<Arc<OnTheFlyKb>> {
        let found = c.lookup(key);
        c.count(found.is_some());
        found
    }

    fn counters(reg: &Registry, c: &FragmentCache) -> CacheCounters {
        CacheCounters::from_snapshot(&reg.snapshot().with_gauges(c.gauges()))
    }

    #[test]
    fn counts_hits_misses_evictions() {
        let reg = Registry::new();
        let c = FragmentCache::new(1, 4, &reg);
        assert!(get(&c, 1).is_none());
        c.insert(1, frag());
        assert!(get(&c, 1).is_some());
        c.insert(2, frag()); // evicts 1 (single slot after clamping)
        assert!(get(&c, 1).is_none());
        let k = counters(&reg, &c);
        assert_eq!(k.hits, 1);
        assert_eq!(k.misses, 2);
        assert_eq!(k.evictions, 1);
        assert_eq!((k.entries, k.capacity), (1, 1));
        assert!((k.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables() {
        let reg = Registry::new();
        let c = FragmentCache::new(0, 8, &reg);
        assert!(!c.is_enabled());
        c.insert(7, frag());
        assert!(get(&c, 7).is_none());
        assert_eq!(counters(&reg, &c).evictions, 0);
    }

    #[test]
    fn refresh_same_key_is_not_an_eviction() {
        let reg = Registry::new();
        let c = FragmentCache::new(2, 1, &reg);
        c.insert(5, frag());
        c.insert(5, frag());
        let k = counters(&reg, &c);
        assert_eq!((k.evictions, k.entries), (0, 1));
    }

    #[test]
    fn peek_get_does_not_perturb_lru_order() {
        let c = FragmentCache::new(2, 1, &Registry::new());
        c.insert(1, frag());
        c.insert(2, frag());
        // A promoting lookup would make key 1 most-recent; peek must not.
        assert!(c.peek_get(1).is_some());
        c.insert(3, frag());
        assert!(
            c.peek_get(1).is_none(),
            "key 1 stayed least-recent after the peek, so it must be evicted"
        );
        assert!(c.peek_get(2).is_some());
        // Contrast: a real lookup promotes.
        assert!(c.lookup(2).is_some());
        c.insert(4, frag());
        assert!(c.peek_get(2).is_some(), "promoted key must survive");
        assert!(c.peek_get(3).is_none(), "unpromoted key must be evicted");
    }
}
