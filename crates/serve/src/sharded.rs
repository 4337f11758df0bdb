//! The sharded counted LRU machinery shared by both cache tiers.
//!
//! [`crate::FragmentCache`] (entry-bounded) and [`crate::Stage1Cache`]
//! (byte-bounded) are thin typed wrappers over this store: a
//! [`qkb_util::LruCache`] split across independently locked shards,
//! keyed by a 64-bit fingerprint. Its hit/miss/eviction counters are
//! handles into the server's metrics registry, named
//! `{name}_hits_total`, `{name}_misses_total` and
//! `{name}_evictions_total`; its occupancy is read from the shards when
//! a snapshot is taken ([`ShardedLru::gauges`]). Keeping the machinery
//! in one place means shard selection, counted lookups, eviction
//! accounting and metric names cannot drift apart between the tiers.

use qkb_obs::{Counter, Registry, RegistrySnapshot};
use qkb_util::LruCache;
use std::sync::Mutex;

/// A sharded, bounded, counted LRU over fingerprint keys.
pub(crate) struct ShardedLru<V> {
    /// Metric-name prefix, e.g. `serve_stage1_cache`.
    name: &'static str,
    shards: Vec<Mutex<LruCache<u64, V>>>,
    /// Configured bound: entries, or bytes when `weighted`.
    capacity: u64,
    weighted: bool,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl<V: Clone> ShardedLru<V> {
    /// A store bounded by **entry count**, split so per-shard capacities
    /// sum exactly to `capacity` (shards are clamped to
    /// `1..=capacity.max(1)`; capacity 0 disables caching).
    pub fn entry_bounded(
        name: &'static str,
        capacity: usize,
        shards: usize,
        registry: &Registry,
    ) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let (base, extra) = (capacity / shards, capacity % shards);
        let caches = (0..shards).map(|i| LruCache::new(base + usize::from(i < extra)));
        Self::from_caches(name, caches, capacity as u64, false, registry)
    }

    /// A store bounded by **total weight** (approximate bytes), split so
    /// per-shard budgets sum exactly to `capacity` (shards are clamped
    /// to at least 1; capacity 0 disables caching).
    pub fn weight_bounded(
        name: &'static str,
        capacity: u64,
        shards: usize,
        registry: &Registry,
    ) -> Self {
        let shards = shards.max(1) as u64;
        let (base, extra) = (capacity / shards, capacity % shards);
        let caches = (0..shards).map(|i| LruCache::weighted(base + u64::from(i < extra)));
        Self::from_caches(name, caches, capacity, true, registry)
    }

    fn from_caches(
        name: &'static str,
        caches: impl Iterator<Item = LruCache<u64, V>>,
        capacity: u64,
        weighted: bool,
        registry: &Registry,
    ) -> Self {
        let counter = |what: &str| registry.counter(&format!("{name}_{what}_total"));
        Self {
            name,
            shards: caches.map(Mutex::new).collect(),
            capacity,
            weighted,
            hits: counter("hits"),
            misses: counter("misses"),
            evictions: counter("evictions"),
        }
    }

    /// True when the configured capacity is non-zero.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    fn shard(&self, key: u64) -> &Mutex<LruCache<u64, V>> {
        // Keys are already fingerprints; fold the high bits so shard
        // choice uses entropy the per-shard LRU map doesn't.
        &self.shards[((key >> 32) ^ key) as usize % self.shards.len()]
    }

    /// Counted lookup; promotes the entry on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        let found = self.lookup(key, true);
        self.count(found.is_some());
        found
    }

    /// The one lookup primitive, uncounted: `touch` decides whether a
    /// hit is promoted in the recency order. A caller that settles the
    /// outcome later counts it once with [`ShardedLru::count`].
    pub fn lookup(&self, key: u64, touch: bool) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard");
        if touch {
            shard.get(&key).cloned()
        } else {
            shard.peek(&key).cloned()
        }
    }

    /// Counts one settled lookup as a hit or a miss.
    pub fn count(&self, hit: bool) {
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }

    /// Inserts `key → value` carrying `weight`, counting capacity
    /// evictions. A same-key replacement is a refresh and an insert
    /// bounced straight back out (zero capacity, or heavier than a
    /// shard's whole weight budget) is not an eviction — in neither
    /// case was a cached entry lost.
    pub fn insert_weighted(&self, key: u64, value: V, weight: u64) {
        let outcome = self
            .shard(key)
            .lock()
            .expect("cache shard")
            .insert_weighted(key, value, weight);
        let evicted_others = outcome.evicted.iter().filter(|(k, _)| *k != key).count() as u64;
        self.evictions.add(evicted_others);
    }

    /// Entries and total weight cached right now.
    pub fn occupancy(&self) -> (usize, u64) {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard");
                (shard.len(), shard.approx_bytes())
            })
            .fold((0, 0), |(n, b), (sn, sb)| (n + sn, b + sb))
    }

    /// Occupancy gauges for a registry snapshot: `{name}_entries`, then
    /// `{name}_bytes` and `{name}_capacity_bytes` for a byte-bounded
    /// store or `{name}_capacity` for an entry-bounded one.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let (entries, bytes) = self.occupancy();
        let gauge = |what: &str, v: u64| (format!("{}_{what}", self.name), v as i64);
        let mut out = vec![gauge("entries", entries as u64)];
        if self.weighted {
            out.push(gauge("bytes", bytes));
            out.push(gauge("capacity_bytes", self.capacity));
        } else {
            out.push(gauge("capacity", self.capacity));
        }
        out
    }
}

/// The hit, miss and eviction counts of the store named `name`.
pub(crate) fn lookup_counts(snap: &RegistrySnapshot, name: &str) -> [u64; 3] {
    ["hits", "misses", "evictions"].map(|what| snap.expect_counter(&format!("{name}_{what}_total")))
}

/// The occupancy gauge `{name}_{what}` of the store named `name`.
pub(crate) fn occupancy_gauge(snap: &RegistrySnapshot, name: &str, what: &str) -> u64 {
    snap.expect_gauge(&format!("{name}_{what}")) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evictions(reg: &Registry) -> u64 {
        lookup_counts(&reg.snapshot(), "t")[2]
    }

    #[test]
    fn oversized_bounce_is_not_an_eviction() {
        // Regression (PR 3 behavior): an entry heavier than the whole
        // weight budget bounces straight back without landing in the
        // eviction counter — no cached entry was lost — and without
        // flushing the resident working set.
        let reg = Registry::new();
        let store: ShardedLru<u32> = ShardedLru::weight_bounded("t", 100, 1, &reg);
        store.insert_weighted(1, 10, 60);
        store.insert_weighted(2, 20, 30);
        assert_eq!(store.occupancy().0, 2);
        store.insert_weighted(3, 30, 500); // heavier than the budget
        assert_eq!(evictions(&reg), 0, "a bounce must not count as eviction");
        assert_eq!(store.occupancy().0, 2, "residents must survive the bounce");
        assert_eq!(store.lookup(1, false), Some(10));
        assert_eq!(store.lookup(2, false), Some(20));
        assert_eq!(store.lookup(3, false), None);
        // Genuine weight pressure still counts.
        store.insert_weighted(4, 40, 90);
        assert!(evictions(&reg) >= 1);
    }

    #[test]
    fn zero_capacity_bounce_is_not_an_eviction() {
        let reg = Registry::new();
        let store: ShardedLru<u32> = ShardedLru::weight_bounded("t", 0, 1, &reg);
        store.insert_weighted(1, 10, 5);
        assert_eq!((evictions(&reg), store.occupancy().0), (0, 0));
    }
}
