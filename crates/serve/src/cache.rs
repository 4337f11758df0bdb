//! The sharded KB-fragment cache (tier two of the serving cache).
//!
//! A bounded LRU ([`qkb_util::LruCache`] behind the crate's shared
//! sharded-store machinery) keyed by the fingerprint of a query's
//! retrieved-document set. Repeats of a popular query — or different
//! questions that retrieve the same documents — reuse the constructed
//! fragment KB without any rebuild; queries whose sets merely
//! *overlap* fall through to the per-document stage-1 tier
//! ([`crate::Stage1Cache`]).

use crate::sharded::ShardedLru;
use qkb_kb::OnTheFlyKb;
use std::sync::Arc;

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
}

/// A sharded, bounded, counted LRU over fragment KBs (`Arc<OnTheFlyKb>`).
pub struct FragmentCache {
    store: ShardedLru<Arc<OnTheFlyKb>>,
    capacity: usize,
}

impl FragmentCache {
    /// A cache holding at most `capacity` fragments, spread over
    /// `shards` independently locked LRUs (capacity 0 disables caching;
    /// shards are clamped to `1..=capacity.max(1)`). Per-shard capacities
    /// sum exactly to `capacity`; a key-skewed workload can therefore
    /// evict before the *total* is reached — the price of lock sharding.
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self {
            store: ShardedLru::entry_bounded(capacity, shards),
            capacity,
        }
    }

    /// True when the configured capacity is non-zero.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Counted lookup; promotes the fragment on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<OnTheFlyKb>> {
        self.store.get(key)
    }

    /// Uncounted, non-promoting lookup (used inside the coalescing claim;
    /// the caller's fast path already counted this logical lookup and
    /// promoted on its hit — see [`FragmentCache::reclassify_miss_as_hit`]
    /// for the race case). Does **not** perturb the LRU order.
    pub fn peek_get(&self, key: u64) -> Option<Arc<OnTheFlyKb>> {
        self.store.peek(key)
    }

    /// Corrects the counters when a lookup counted as a miss turned out
    /// to be a hit after all (another shard published the fragment
    /// between the counted fast-path miss and the in-flight claim).
    pub fn reclassify_miss_as_hit(&self) {
        self.store.reclassify_miss_as_hit()
    }

    /// Inserts a fragment, counting capacity evictions (a same-key
    /// replacement is a refresh and a bounced-back insert lost nothing
    /// cached; neither counts).
    pub fn insert(&self, key: u64, fragment: Arc<OnTheFlyKb>) {
        self.store.insert_weighted(key, fragment, 1);
    }

    /// Cached fragments right now.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes the hit/miss/eviction counters; cached fragments stay.
    pub fn reset_counters(&self) {
        self.store.reset_counters()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        let totals = self.store.totals();
        CacheCounters {
            hits: totals.hits,
            misses: totals.misses,
            evictions: totals.evictions,
            entries: totals.entries,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag() -> Arc<OnTheFlyKb> {
        Arc::new(OnTheFlyKb::new())
    }

    #[test]
    fn counts_hits_misses_evictions() {
        let c = FragmentCache::new(1, 4);
        assert!(c.get(1).is_none());
        c.insert(1, frag());
        assert!(c.get(1).is_some());
        c.insert(2, frag()); // evicts 1 (single slot after clamping)
        assert!(c.get(1).is_none());
        let k = c.counters();
        assert_eq!(k.hits, 1);
        assert_eq!(k.misses, 2);
        assert_eq!(k.evictions, 1);
        assert_eq!(k.entries, 1);
        assert!((k.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables() {
        let c = FragmentCache::new(0, 8);
        assert!(!c.is_enabled());
        c.insert(7, frag());
        assert!(c.get(7).is_none());
        assert_eq!(c.counters().evictions, 0);
    }

    #[test]
    fn refresh_same_key_is_not_an_eviction() {
        let c = FragmentCache::new(2, 1);
        c.insert(5, frag());
        c.insert(5, frag());
        assert_eq!(c.counters().evictions, 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn peek_get_does_not_perturb_lru_order() {
        let c = FragmentCache::new(2, 1);
        c.insert(1, frag());
        c.insert(2, frag());
        // A promoting get would make key 1 most-recent; peek must not.
        assert!(c.peek_get(1).is_some());
        c.insert(3, frag());
        assert!(
            c.peek_get(1).is_none(),
            "key 1 stayed least-recent after the peek, so it must be evicted"
        );
        assert!(c.peek_get(2).is_some());
        // Contrast: a real get promotes.
        assert!(c.get(2).is_some());
        c.insert(4, frag());
        assert!(c.peek_get(2).is_some(), "promoted key must survive");
        assert!(c.peek_get(3).is_none(), "unpromoted key must be evicted");
    }
}
