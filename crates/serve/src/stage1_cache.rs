//! The per-document stage-1 cache — tier one of the serving layer's
//! two-tier cache.
//!
//! The fragment cache (tier two) only helps when a query's retrieved
//! document set matches a cached set *exactly*. Overlapping-but-distinct
//! queries re-paid stage 1 (preprocessing, semantic graph, joint NED+CR)
//! for every shared document — the dominant cost per `StageTimings`. This
//! cache memoizes the stage-1 artifact per *document*, keyed by
//! `fingerprint64` of the document text, so a fragment for a new document
//! set is built from cached artifacts plus stage-1 runs for the true
//! misses only.
//!
//! Capacity is bounded in **approximate bytes** ([`DocStage1::approx_bytes`]
//! is the eviction weight): artifacts vary by an order of magnitude with
//! document length, so counting entries would make the bound meaningless.
//! The store is split over independently locked shards like the fragment
//! cache.
//!
//! Determinism: stage 1 is a pure function of the document text under a
//! fixed configuration, so serving a memoized artifact is
//! indistinguishable — byte for byte — from recomputing it
//! (`Qkbfly::build_kb_with` contract; enforced by `crates/core`'s
//! property tests).

use crate::sharded::ShardedLru;
use qkb_util::fingerprint64;
use qkbfly::{DocStage1, Qkbfly, Stage1Provider};
use std::sync::Arc;

/// Stage-1 cache counter snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stage1Counters {
    /// Documents whose artifact was served from cache.
    pub hits: u64,
    /// Documents whose artifact had to be computed.
    pub misses: u64,
    /// Artifacts evicted by byte-capacity pressure.
    pub evictions: u64,
    /// Artifacts currently cached.
    pub entries: usize,
    /// Approximate bytes currently held.
    pub approx_bytes: u64,
    /// Configured byte capacity across shards.
    pub capacity_bytes: u64,
}

impl Stage1Counters {
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

/// A sharded, byte-bounded, counted LRU over `Arc<DocStage1>` keyed by
/// the document-text fingerprint. Implements [`Stage1Provider`], so the
/// build entry points (`build_kb_with`, `provide_stage1`,
/// `stream_into_kb`) use it directly as their compute-or-lookup source.
pub struct Stage1Cache {
    store: ShardedLru<Arc<DocStage1>>,
    capacity_bytes: u64,
}

impl Stage1Cache {
    /// A cache holding at most ~`capacity_bytes` of stage-1 artifacts,
    /// spread over `shards` independently locked byte-weighted LRUs
    /// (capacity 0 disables caching; shards are clamped to at least 1).
    /// Per-shard budgets sum to `capacity_bytes`; a key-skewed workload
    /// can evict before the total is reached — the price of lock
    /// sharding, as with the fragment cache.
    pub fn new(capacity_bytes: u64, shards: usize) -> Self {
        Self {
            store: ShardedLru::weight_bounded(capacity_bytes, shards),
            capacity_bytes,
        }
    }

    /// True when the configured capacity is non-zero.
    pub fn is_enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// The cache key for one document text.
    pub fn key_of(text: &str) -> u64 {
        fingerprint64(text.as_bytes())
    }

    /// Counted lookup; promotes the artifact on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<DocStage1>> {
        self.store.get(key)
    }

    /// Uncounted presence probe that does not perturb the LRU order
    /// (the server uses it to classify a build as assembled-vs-cold
    /// without double-counting lookups).
    pub fn contains_text(&self, text: &str) -> bool {
        self.store.peek(Self::key_of(text)).is_some()
    }

    /// Inserts an artifact weighted by its approximate byte size,
    /// counting capacity evictions (an oversized artifact that bounces
    /// straight back out is not counted — nothing cached was lost).
    pub fn insert(&self, key: u64, stage1: Arc<DocStage1>) {
        let weight = stage1.approx_bytes() as u64;
        self.store.insert_weighted(key, stage1, weight);
    }

    /// Artifacts cached right now.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes the hit/miss/eviction counters; cached artifacts stay.
    pub fn reset_counters(&self) {
        self.store.reset_counters()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> Stage1Counters {
        let totals = self.store.totals();
        Stage1Counters {
            hits: totals.hits,
            misses: totals.misses,
            evictions: totals.evictions,
            entries: totals.entries,
            approx_bytes: totals.weight,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

impl Stage1Provider for Stage1Cache {
    fn provide(&self, qkb: &Qkbfly, text: &str) -> Arc<DocStage1> {
        let mut span = qkb.recorder().span("stage1_doc");
        if !self.is_enabled() {
            // Disabled: pure compute, no counter noise.
            span.field("cache", "disabled");
            return Arc::new(qkb.process_doc_stage1(text));
        }
        let key = Self::key_of(text);
        if let Some(hit) = self.get(key) {
            span.field("cache", "hit");
            return hit;
        }
        span.field("cache", "miss");
        // Two shards racing on the same fresh document both compute; the
        // artifacts are identical (stage 1 is pure), so the double work is
        // benign and the second insert is a same-key refresh.
        let computed = Arc::new(qkb.process_doc_stage1(text));
        self.insert(key, computed.clone());
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkb_kb::{EntityRepository, PatternRepository};

    fn tiny_system() -> Qkbfly {
        Qkbfly::new(
            EntityRepository::new(),
            PatternRepository::standard(),
            qkb_kb::BackgroundStats::empty(),
        )
    }

    #[test]
    fn provide_computes_once_per_document() {
        let qkb = tiny_system();
        let cache = Stage1Cache::new(64 << 20, 4);
        let before = qkb.counters().stage1_computed();
        let a = cache.provide(&qkb, "Ada Lovelace wrote the first program.");
        let b = cache.provide(&qkb, "Ada Lovelace wrote the first program.");
        assert_eq!(qkb.counters().stage1_computed() - before, 1);
        assert!(Arc::ptr_eq(&a, &b), "the hit must share the artifact");
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert!(c.approx_bytes > 0);
        assert_eq!(c.entries, 1);
    }

    #[test]
    fn zero_capacity_disables_without_counting() {
        let qkb = tiny_system();
        let cache = Stage1Cache::new(0, 4);
        assert!(!cache.is_enabled());
        let _ = cache.provide(&qkb, "Some document.");
        let _ = cache.provide(&qkb, "Some document.");
        assert_eq!(qkb.counters().stage1_computed(), 2);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.entries), (0, 0, 0));
    }

    #[test]
    fn byte_pressure_evicts_cold_documents() {
        let qkb = tiny_system();
        let probe = Arc::new(qkb.process_doc_stage1("A short probe document."));
        let one_doc = probe.approx_bytes() as u64;
        // Room for ~2 artifacts of this size in a single shard.
        let cache = Stage1Cache::new(one_doc * 2 + one_doc / 2, 1);
        for text in ["Doc one here.", "Doc two here.", "Doc three here."] {
            let _ = cache.provide(&qkb, text);
        }
        let c = cache.counters();
        assert!(c.evictions >= 1, "counters: {c:?}");
        assert!(c.approx_bytes <= c.capacity_bytes, "counters: {c:?}");
        assert!(cache.len() < 3);
    }
}
