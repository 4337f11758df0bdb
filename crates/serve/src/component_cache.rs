//! The component resolve cache — the serving layer's middle cache tier.
//!
//! Tier layering: the fragment cache memoizes whole *query fragments*
//! (exact document-set match), the stage-1 cache memoizes per-*document*
//! artifacts (exact text match), and this tier memoizes solved
//! *coupling components* of the joint NED+CR problem — the unit that
//! recurs even across documents that are merely similar (syndicated
//! boilerplate, edited articles, shared infoboxes). A fresh document
//! that shares components with anything previously resolved skips the
//! solver for exactly those components.
//!
//! The store is the same sharded byte-bounded LRU as the stage-1 tier,
//! counting into the server's metrics registry under
//! `serve_component_cache_*`; the payloads are `qkbfly::CachedComponent`
//! entries (canonical encoding + solved assignment). Collision safety:
//! a stored entry is only served after an exact byte comparison of its
//! canonical encoding with the fresh component's
//! ([`ResolveCacheProvider::get`]), so a key collision is counted as the
//! miss it is.
//!
//! One instance is shared process-wide across all serve shards and all
//! sessions (the provider keys abstract over the process's entity and
//! symbol interning, which every handle cloned from one `QaSystem`
//! shares) — cross-session component reuse is free.

use crate::sharded::ShardedLru;
use qkb_obs::Registry;
use qkbfly::{CachedComponent, ResolveCacheProvider};
use std::sync::Arc;

/// Metric-name prefix of the component tier.
pub(crate) const NAME: &str = "serve_component_cache";

/// A sharded, byte-bounded, counted LRU over solved coupling
/// components. Implements [`ResolveCacheProvider`], so a `Qkbfly`
/// handle plugs it in with `with_resolve_cache`. Its counters read as a
/// [`crate::Stage1Counters`], the shape both byte-bounded tiers share.
pub struct ComponentCache {
    store: ShardedLru<Arc<CachedComponent>>,
}

impl ComponentCache {
    /// A cache holding at most ~`capacity_bytes` of solved components,
    /// spread over `shards` independently locked byte-weighted LRUs
    /// (capacity 0 disables caching; shards are clamped to at least 1),
    /// counting into `registry`.
    pub fn new(capacity_bytes: u64, shards: usize, registry: &Registry) -> Self {
        Self {
            store: ShardedLru::weight_bounded(NAME, capacity_bytes, shards, registry),
        }
    }

    /// True when the configured capacity is non-zero.
    pub fn is_enabled(&self) -> bool {
        self.store.is_enabled()
    }

    /// Occupancy gauges, read from the shards now:
    /// `serve_component_cache_{entries,bytes,capacity_bytes}`.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.store.gauges()
    }
}

impl ResolveCacheProvider for ComponentCache {
    fn get(&self, key: u64, encoding: &[u8]) -> Option<Arc<CachedComponent>> {
        let hit = self
            .store
            .lookup(key, true)
            .filter(|entry| entry.matches(encoding));
        self.store.count(hit.is_some());
        hit
    }

    fn insert(&self, key: u64, entry: Arc<CachedComponent>) {
        let weight = entry.approx_bytes() as u64;
        self.store.insert_weighted(key, entry, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage1Counters;
    use qkb_kb::{EntityRepository, PatternRepository};
    use qkbfly::Qkbfly;
    use std::sync::Arc;

    fn tiny_system() -> Qkbfly {
        Qkbfly::new(
            EntityRepository::new(),
            PatternRepository::standard(),
            qkb_kb::BackgroundStats::empty(),
        )
    }

    fn counters(reg: &Registry, cache: &ComponentCache) -> Stage1Counters {
        Stage1Counters::from_snapshot(&reg.snapshot().with_gauges(cache.gauges()), NAME)
    }

    #[test]
    fn resolve_through_the_tier_hits_on_repeat_components() {
        let reg = Registry::new();
        let cache = Arc::new(ComponentCache::new(32 << 20, 4, &reg));
        let qkb = tiny_system().with_resolve_cache(cache.clone());
        let _ = qkb.process_doc_stage1("Ada Lovelace wrote the first program.");
        let cold = counters(&reg, &cache);
        assert!(cold.misses > 0, "cold doc must miss: {cold:?}");
        assert_eq!(cold.hits, 0);
        assert!(cold.approx_bytes > 0);
        let _ = qkb.process_doc_stage1("Ada Lovelace wrote the first program.");
        let warm = counters(&reg, &cache);
        assert_eq!(warm.misses, cold.misses, "repeat doc must not miss");
        assert_eq!(warm.hits, cold.misses, "every component replays");
        let resolve = qkb.counters().resolve();
        assert_eq!(resolve.cache_hits, warm.hits);
        assert_eq!(resolve.cache_misses, warm.misses);
        assert_eq!(resolve.cache_bypass, 0);
    }

    #[test]
    fn zero_capacity_reports_disabled() {
        let reg = Registry::new();
        let cache = ComponentCache::new(0, 4, &reg);
        assert!(!cache.is_enabled());
        let c = counters(&reg, &cache);
        assert_eq!((c.hits, c.misses, c.entries), (0, 0, 0));
        assert!((c.hit_rate() - 0.0).abs() < f64::EPSILON);
    }

    /// Records the keys `core` stores, so the test can later look up a
    /// known-resident entry.
    struct KeySpy {
        inner: Arc<ComponentCache>,
        keys: std::sync::Mutex<Vec<u64>>,
    }

    impl ResolveCacheProvider for KeySpy {
        fn get(&self, key: u64, encoding: &[u8]) -> Option<Arc<CachedComponent>> {
            self.inner.get(key, encoding)
        }

        fn insert(&self, key: u64, entry: Arc<CachedComponent>) {
            self.keys.lock().expect("spy lock").push(key);
            self.inner.insert(key, entry);
        }
    }

    #[test]
    fn failed_recheck_counts_one_miss_and_no_hit() {
        let reg = Registry::new();
        let tier = Arc::new(ComponentCache::new(1 << 20, 1, &reg));
        let spy = Arc::new(KeySpy {
            inner: tier.clone(),
            keys: std::sync::Mutex::new(Vec::new()),
        });
        let qkb = tiny_system().with_resolve_cache(spy.clone());
        let _ = qkb.process_doc_stage1("Ada Lovelace wrote the first program.");
        let key = *spy
            .keys
            .lock()
            .expect("spy lock")
            .first()
            .expect("at least one component cached");
        let before = counters(&reg, &tier);
        // A resident entry whose structural re-check fails (a fingerprint
        // collision) is settled before counting: one miss, no hit, and
        // no counter ever moves down.
        assert!(tier.get(key, b"some other component").is_none());
        let after = counters(&reg, &tier);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses + 1);
    }
}
