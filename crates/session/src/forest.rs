//! The process-wide **prefix forest**: a registry of frozen, `Arc`-shared
//! KB prefix chains keyed by the fingerprint of their merged-document
//! sequence ([`qkb_kb::KbPrefix::chain_key`]).
//!
//! Hot sessions accumulate near-identical opening document sets
//! (breaking-news Zipf traffic). The first session to build a given
//! opening sequence freezes its KB into a shared prefix and registers it
//! here; every later session whose opening turn resolves to the same
//! document sequence *forks* from the chain in O(1) instead of
//! rebuilding — resident bytes become shared-once + per-session-delta,
//! and warm-up is O(delta). Soundness is inherited from the append-only,
//! prefix-stable extend invariants: a forked KB extended with a delta is
//! byte-identical to a cold private build of the same document sequence
//! (property-gated in CI).
//!
//! # Eviction vs. refcounts
//!
//! The forest holds one `Arc` per chain layer; every live fork holds
//! its own. Evicting a chain from the forest (LRU under
//! [`ForestConfig::max_bytes`]) only drops the forest's references —
//! existing forks keep reading their layers untouched, and the layer
//! memory is reclaimed when the **last** fork dies. The
//! [`ForestStats::layer_refs`] gauge counts the fork-held references so
//! that protocol is observable.
//!
//! # Metrics
//!
//! The fork, freeze, miss and eviction counters are handles into the
//! serving tier's metrics registry (`serve_forest_*_total`); the
//! occupancy gauges — frozen layers, shared bytes, layer refs — are
//! read from the chains when a snapshot is taken
//! ([`PrefixForest::gauges`]).

use qkb_kb::KbPrefix;
use qkb_obs::{Counter, Registry, RegistrySnapshot};
use qkb_util::{FxHashMap, FxHashSet};
use std::sync::{Arc, Mutex};

/// Prefix-forest knobs of a session store.
#[derive(Clone, Copy, Debug)]
pub struct ForestConfig {
    /// Master switch: `false` gives every session a fully private KB
    /// (the pre-forest behavior).
    pub enabled: bool,
    /// Byte budget of the registered chains; least-recently-used chains
    /// are dropped beyond it. Live forks are unaffected — their layers
    /// die with the last fork.
    pub max_bytes: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            enabled: true,
            max_bytes: 64 << 20,
        }
    }
}

#[derive(Debug)]
struct ChainEntry {
    layers: Vec<Arc<KbPrefix>>,
    bytes: u64,
    /// LRU stamp (monotonic touch sequence).
    seq: u64,
}

#[derive(Debug, Default)]
struct ForestInner {
    chains: FxHashMap<u64, ChainEntry>,
    total_bytes: u64,
    seq: u64,
}

/// Point-in-time view of the forest (embedded in
/// [`crate::SessionStats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ForestStats {
    /// Sessions that started by forking a registered prefix: every
    /// opening-turn lookup that found a matching chain, journal replays
    /// included.
    pub forks: u64,
    /// Prefixes frozen and registered.
    pub freezes: u64,
    /// Opening-turn lookups that found no chain (the session built cold
    /// and registered its prefix).
    pub misses: u64,
    /// Chains dropped from the forest by the byte-budget LRU.
    pub evicted: u64,
    /// Distinct frozen layers currently registered.
    pub frozen_layers: usize,
    /// Bytes of distinct registered layers — counted **once** regardless
    /// of how many sessions fork them.
    pub shared_bytes: u64,
    /// Fork-held references to registered layers (Arc strong counts
    /// minus the forest's own) — the refcount gauge behind the eviction
    /// protocol.
    pub layer_refs: u64,
}

impl ForestStats {
    /// The forest's counters and occupancy gauges in `snap`.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        ForestStats {
            forks: snap.expect_counter("serve_forest_forks_total"),
            freezes: snap.expect_counter("serve_forest_freezes_total"),
            misses: snap.expect_counter("serve_forest_misses_total"),
            evicted: snap.expect_counter("serve_forest_evicted_total"),
            frozen_layers: snap.expect_gauge("serve_forest_frozen_layers") as usize,
            shared_bytes: snap.expect_gauge("serve_forest_shared_bytes") as u64,
            layer_refs: snap.expect_gauge("serve_forest_layer_refs") as u64,
        }
    }
}

/// The registry of frozen chains. One per [`crate::SessionManager`];
/// shared with every session it claims.
#[derive(Debug)]
pub struct PrefixForest {
    inner: Mutex<ForestInner>,
    max_bytes: u64,
    metrics: Registry,
    forks: Counter,
    freezes: Counter,
    misses: Counter,
    evicted: Counter,
}

impl PrefixForest {
    /// An empty forest with the given chain byte budget, counting into
    /// `registry`.
    pub fn new(max_bytes: u64, registry: &Registry) -> Self {
        PrefixForest {
            inner: Mutex::new(ForestInner::default()),
            max_bytes,
            metrics: registry.clone(),
            forks: registry.counter("serve_forest_forks_total"),
            freezes: registry.counter("serve_forest_freezes_total"),
            misses: registry.counter("serve_forest_misses_total"),
            evicted: registry.counter("serve_forest_evicted_total"),
        }
    }

    /// The chain whose full merged-document sequence fingerprints to
    /// `key`, if registered. A hit touches the LRU stamp and counts as a
    /// fork — the caller opens its session on the returned layers.
    pub fn lookup(&self, key: u64) -> Option<Vec<Arc<KbPrefix>>> {
        let mut inner = self.inner.lock().expect("forest lock");
        inner.seq += 1;
        let seq = inner.seq;
        match inner.chains.get_mut(&key) {
            Some(entry) => {
                entry.seq = seq;
                self.forks.inc();
                Some(entry.layers.clone())
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Registers a frozen chain under its last layer's
    /// [`qkb_kb::KbPrefix::chain_key`]. A key already registered is kept
    /// as-is (two sessions racing on the same cold opening register
    /// once; the loser's forks stay alive through their own `Arc`s).
    /// Registering may LRU-evict older chains beyond the byte budget.
    pub fn register(&self, layers: &[Arc<KbPrefix>]) {
        let Some(last) = layers.last() else {
            return;
        };
        let key = last.chain_key();
        let mut inner = self.inner.lock().expect("forest lock");
        if inner.chains.contains_key(&key) {
            return;
        }
        self.freezes.inc();
        inner.seq += 1;
        let seq = inner.seq;
        let bytes: u64 = layers.iter().map(|l| l.approx_bytes()).sum();
        inner.chains.insert(
            key,
            ChainEntry {
                layers: layers.to_vec(),
                bytes,
                seq,
            },
        );
        inner.total_bytes += bytes;
        while inner.total_bytes > self.max_bytes && inner.chains.len() > 1 {
            let lru = inner
                .chains
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.seq)
                .map(|(&k, _)| k);
            match lru {
                Some(k) => {
                    if let Some(e) = inner.chains.remove(&k) {
                        inner.total_bytes -= e.bytes;
                        self.evicted.inc();
                    }
                }
                None => break,
            }
        }
    }

    /// Drops every registered chain. Live forks keep their layers; the
    /// memory frees when the last fork dies.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("forest lock");
        inner.chains.clear();
        inner.total_bytes = 0;
    }

    /// Occupancy gauges, read from the chains now:
    /// `serve_forest_frozen_layers`, `serve_forest_shared_bytes` and
    /// `serve_forest_layer_refs`. Layers shared by several chains
    /// (multi-layer chains share prefixes) are de-duplicated by
    /// identity, so shared bytes charge each frozen layer once.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let inner = self.inner.lock().expect("forest lock");
        let mut seen: FxHashSet<*const KbPrefix> = FxHashSet::default();
        let mut forest_refs: FxHashMap<*const KbPrefix, u64> = FxHashMap::default();
        let mut distinct: Vec<&Arc<KbPrefix>> = Vec::new();
        for entry in inner.chains.values() {
            for layer in &entry.layers {
                let p = Arc::as_ptr(layer);
                *forest_refs.entry(p).or_insert(0) += 1;
                if seen.insert(p) {
                    distinct.push(layer);
                }
            }
        }
        let shared_bytes: u64 = distinct.iter().map(|l| l.approx_bytes()).sum();
        let layer_refs: u64 = distinct
            .iter()
            .map(|l| {
                let held = Arc::strong_count(l) as u64;
                held.saturating_sub(forest_refs[&Arc::as_ptr(l)])
            })
            .sum();
        vec![
            ("serve_forest_frozen_layers".into(), distinct.len() as i64),
            ("serve_forest_shared_bytes".into(), shared_bytes as i64),
            ("serve_forest_layer_refs".into(), layer_refs as i64),
        ]
    }

    /// Point-in-time stats: the counters from the metrics registry plus
    /// the occupancy gauges.
    pub fn stats(&self) -> ForestStats {
        ForestStats::from_snapshot(&self.metrics.snapshot().with_gauges(self.gauges()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkb_kb::OnTheFlyKb;

    fn frozen_chain(doc: u64, name: &str) -> Vec<Arc<KbPrefix>> {
        let mut kb = OnTheFlyKb::new();
        kb.add_emerging(&[name.to_string()]);
        kb.record_doc(doc);
        kb.freeze().expect("seal");
        kb.frozen_layers().to_vec()
    }

    #[test]
    fn register_then_lookup_round_trips_and_counts() {
        let forest = PrefixForest::new(u64::MAX, &Registry::new());
        let chain = frozen_chain(1, "Ada Lovelace");
        let key = chain.last().unwrap().chain_key();
        assert!(forest.lookup(key).is_none());
        forest.register(&chain);
        let got = forest.lookup(key).expect("registered");
        assert!(Arc::ptr_eq(&got[0], &chain[0]));
        let stats = forest.stats();
        assert_eq!((stats.forks, stats.misses, stats.freezes), (1, 1, 1));
        assert_eq!(stats.frozen_layers, 1);
        assert_eq!(stats.shared_bytes, chain[0].approx_bytes());
    }

    #[test]
    fn duplicate_registration_keeps_the_first_chain() {
        let forest = PrefixForest::new(u64::MAX, &Registry::new());
        let first = frozen_chain(1, "Ada Lovelace");
        let second = frozen_chain(1, "Ada Lovelace");
        let key = first.last().unwrap().chain_key();
        assert_eq!(key, second.last().unwrap().chain_key());
        forest.register(&first);
        forest.register(&second);
        let got = forest.lookup(key).expect("registered");
        assert!(Arc::ptr_eq(&got[0], &first[0]));
        assert_eq!(forest.stats().freezes, 1, "second registration is a no-op");
    }

    #[test]
    fn byte_budget_evicts_lru_chains_without_touching_forks() {
        let chain_a = frozen_chain(1, "Ada Lovelace");
        let budget = chain_a[0].approx_bytes() + 8; // room for ~one chain
        let forest = PrefixForest::new(budget, &Registry::new());
        forest.register(&chain_a);
        let fork = OnTheFlyKb::from_layers(forest.lookup(chain_a[0].chain_key()).unwrap());
        let chain_b = frozen_chain(2, "Grace Hopper with a much longer emerging mention list");
        forest.register(&chain_b);
        // A was the LRU chain and had to make room.
        assert!(forest.lookup(chain_a[0].chain_key()).is_none());
        assert!(forest.stats().evicted >= 1);
        // The live fork still reads the evicted layer.
        assert_eq!(fork.n_docs(), 1);
        assert!(fork.contains_doc(1));
    }

    #[test]
    fn layer_refs_gauge_counts_live_forks_only() {
        let forest = PrefixForest::new(u64::MAX, &Registry::new());
        let chain = frozen_chain(1, "Ada Lovelace");
        let key = chain.last().unwrap().chain_key();
        forest.register(&chain);
        drop(chain); // only the registry holds it now
        assert_eq!(forest.stats().layer_refs, 0);
        let fork_a = OnTheFlyKb::from_layers(forest.lookup(key).unwrap());
        let fork_b = OnTheFlyKb::from_layers(forest.lookup(key).unwrap());
        assert_eq!(forest.stats().layer_refs, 2);
        drop(fork_a);
        assert_eq!(forest.stats().layer_refs, 1);
        drop(fork_b);
        assert_eq!(forest.stats().layer_refs, 0);
    }
}
