//! Session-store statistics: a [`SessionStats`] view of a metrics
//! registry snapshot. The counters are handles the
//! [`crate::SessionManager`] took from the serving tier's registry
//! (`serve_session_*_total`, plus the forest's `serve_forest_*`); the
//! occupancy gauges are read from the live store when the snapshot is
//! taken.

use crate::forest::ForestStats;
use qkb_obs::RegistrySnapshot;
use qkb_util::json::Value;

/// A point-in-time view of the session store.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Sessions resident right now.
    pub live: usize,
    /// Approximate bytes held by resident session KBs.
    pub approx_bytes: u64,
    /// Configured byte budget (0 = unbounded).
    pub capacity_bytes: u64,
    /// Sessions created (including re-creations after eviction).
    pub created: u64,
    /// Sessions evicted by the idle-TTL sweep.
    pub evicted_ttl: u64,
    /// Sessions evicted by byte/count pressure.
    pub evicted_pressure: u64,
    /// Query turns that found an empty session KB (cold builds).
    pub turns_cold: u64,
    /// Query turns that extended an existing session KB.
    pub turns_extended: u64,
    /// Cold turns that forked a shared prefix from the forest instead of
    /// building the opening documents privately (a subset of
    /// `turns_cold`).
    pub turns_forked: u64,
    /// Documents newly merged into session KBs.
    pub docs_merged: u64,
    /// Documents skipped as already resident (streaming dedup).
    pub docs_deduped: u64,
    /// Prefix-forest view: forks, freezes, shared bytes, layer refcounts
    /// (all zero when the forest is disabled).
    pub forest: ForestStats,
}

impl SessionStats {
    /// The session store's counters and occupancy gauges in `snap`.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> Self {
        let count = |what: &str| snap.expect_counter(&format!("serve_session_{what}_total"));
        let gauge = |what: &str| snap.expect_gauge(&format!("serve_session_{what}")) as u64;
        SessionStats {
            live: gauge("live") as usize,
            approx_bytes: gauge("bytes"),
            capacity_bytes: gauge("capacity_bytes"),
            created: count("created"),
            evicted_ttl: count("evicted_ttl"),
            evicted_pressure: count("evicted_pressure"),
            turns_cold: count("turns_cold"),
            turns_extended: count("turns_extended"),
            turns_forked: count("turns_forked"),
            docs_merged: count("docs_merged"),
            docs_deduped: count("docs_deduped"),
            forest: ForestStats::from_snapshot(snap),
        }
    }

    /// Total query turns streamed through sessions.
    pub fn turns(&self) -> u64 {
        self.turns_cold + self.turns_extended
    }

    /// Share of documents a rebuild-per-query design would have re-paid
    /// (0 when no turn has run).
    pub fn dedup_rate(&self) -> f64 {
        let total = self.docs_merged + self.docs_deduped;
        if total == 0 {
            0.0
        } else {
            self.docs_deduped as f64 / total as f64
        }
    }

    /// JSON rendering for benchmark reports and dashboards.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("live", self.live)
            .with("approx_bytes", self.approx_bytes)
            .with("capacity_bytes", self.capacity_bytes)
            .with("created", self.created)
            .with("evicted_ttl", self.evicted_ttl)
            .with("evicted_pressure", self.evicted_pressure)
            .with("turns_cold", self.turns_cold)
            .with("turns_extended", self.turns_extended)
            .with("turns_forked", self.turns_forked)
            .with("docs_merged", self.docs_merged)
            .with("docs_deduped", self.docs_deduped)
            .with("dedup_rate", self.dedup_rate())
            .with("forest_forks", self.forest.forks)
            .with("forest_freezes", self.forest.freezes)
            .with("forest_evicted", self.forest.evicted)
            .with("forest_frozen_layers", self.forest.frozen_layers)
            .with("forest_shared_bytes", self.forest.shared_bytes)
            .with("forest_layer_refs", self.forest.layer_refs)
    }
}
