//! Serving metrics: lock-free counters while serving, a consistent-enough
//! [`ServeStats`] snapshot on demand (p50/p95 latency, throughput, cache
//! hit rate, per-stage build time).

use crate::cache::CacheCounters;
use crate::component_cache::ComponentCacheCounters;
use crate::stage1_cache::Stage1Counters;
use qkb_obs::{Counter, Histogram, Registry};
use qkb_session::SessionStats;
use qkb_util::json::Value;
use qkbfly::{ResolveCounters, StageTimings};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Latency samples resident for percentile snapshots. When a
/// long-running server overflows the window, the **oldest** samples are
/// overwritten (sliding window) and the snapshot reports how many were
/// displaced — percentiles track recent traffic instead of silently
/// freezing on the first 2^20 samples forever.
const MAX_LATENCY_SAMPLES: usize = 1 << 20;

/// A fixed-capacity ring of latency samples: the newest `capacity`
/// samples are resident, older ones are overwritten and counted in
/// `dropped`.
pub(crate) struct LatencyRing {
    samples: Vec<u64>,
    /// Next write position once the ring has wrapped.
    next: usize,
    /// Samples overwritten since the last reset (they no longer
    /// contribute to percentile snapshots).
    dropped: u64,
    capacity: usize,
}

impl LatencyRing {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            samples: Vec::new(),
            next: 0,
            dropped: 0,
            capacity,
        }
    }

    pub(crate) fn push(&mut self, sample: u64) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.next] = sample;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Resident samples (insertion order not preserved across wraps;
    /// callers sort for percentiles anyway).
    pub(crate) fn resident(&self) -> Vec<u64> {
        self.samples.clone()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn clear(&mut self) {
        self.samples.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

/// Shared interior-mutable metrics sink the worker shards write into.
///
/// Every cell lives in a [`qkb_obs::Registry`] under a stable
/// `serve_*` name; the struct holds pre-resolved handles so hot-path
/// updates stay single atomic ops. [`ServeStats`] aggregates the same
/// cells, and the registry snapshot (Prometheus text, all-zero reset
/// checks) is exposed through [`ServeMetrics::registry`].
pub(crate) struct ServeMetrics {
    registry: Registry,
    started: Mutex<Instant>,
    requests: Counter,
    batches: Counter,
    build_rounds: Counter,
    cold_builds: Counter,
    assembled_builds: Counter,
    docs_built: Counter,
    batch_coalesced: Counter,
    inflight_coalesced: Counter,
    build_preprocess_us: Counter,
    build_graph_us: Counter,
    build_resolve_us: Counter,
    build_canonicalize_us: Counter,
    resolve_components: Counter,
    ilp_variables: Counter,
    bnb_nodes: Counter,
    pruned_candidates: Counter,
    resolve_cache_hits: Counter,
    resolve_cache_misses: Counter,
    resolve_cache_bypass: Counter,
    forest_forks: Counter,
    /// Log-scale latency distribution for the text exposition; exact
    /// percentiles still come from the sample ring below.
    latency_hist: Histogram,
    latencies_us: Mutex<LatencyRing>,
}

impl ServeMetrics {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        Self {
            requests: registry.counter("serve_requests_total"),
            batches: registry.counter("serve_batches_total"),
            build_rounds: registry.counter("serve_build_rounds_total"),
            cold_builds: registry.counter("serve_cold_builds_total"),
            assembled_builds: registry.counter("serve_assembled_builds_total"),
            docs_built: registry.counter("serve_docs_built_total"),
            batch_coalesced: registry.counter("serve_batch_coalesced_total"),
            inflight_coalesced: registry.counter("serve_inflight_coalesced_total"),
            build_preprocess_us: registry.counter("serve_build_preprocess_us_total"),
            build_graph_us: registry.counter("serve_build_graph_us_total"),
            build_resolve_us: registry.counter("serve_build_resolve_us_total"),
            build_canonicalize_us: registry.counter("serve_build_canonicalize_us_total"),
            resolve_components: registry.counter("serve_resolve_components_total"),
            ilp_variables: registry.counter("serve_ilp_variables_total"),
            bnb_nodes: registry.counter("serve_bnb_nodes_total"),
            pruned_candidates: registry.counter("serve_pruned_candidates_total"),
            resolve_cache_hits: registry.counter("serve_resolve_cache_hits_total"),
            resolve_cache_misses: registry.counter("serve_resolve_cache_misses_total"),
            resolve_cache_bypass: registry.counter("serve_resolve_cache_bypass_total"),
            forest_forks: registry.counter("serve_forest_forks_total"),
            latency_hist: registry.histogram("serve_request_latency_us"),
            registry,
            started: Mutex::new(Instant::now()),
            latencies_us: Mutex::new(LatencyRing::with_capacity(MAX_LATENCY_SAMPLES)),
        }
    }

    /// The registry backing every counter above.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn note_batch(&self, jobs: u64, groups: u64) {
        self.batches.inc();
        // Requests beyond the first of each identical-query group were
        // coalesced at admission.
        self.batch_coalesced.add(jobs - groups);
    }

    /// One grouped build round: `groups` fragments were constructed, of
    /// which `assembled` reused at least one cached stage-1 artifact and
    /// the rest (`groups - assembled`) were fully cold.
    pub(crate) fn note_build_round(
        &self,
        groups: u64,
        assembled: u64,
        docs: u64,
        timings: StageTimings,
        resolve: ResolveCounters,
    ) {
        self.build_rounds.inc();
        self.cold_builds.add(groups - assembled);
        self.assembled_builds.add(assembled);
        self.docs_built.add(docs);
        self.note_stage_work(timings, resolve);
    }

    /// Stage time and resolve work of merged documents — a build round's
    /// or a session turn's — into the counters behind
    /// [`ServeStats::build_timings`] and [`ServeStats::resolve_counters`].
    pub(crate) fn note_stage_work(&self, timings: StageTimings, resolve: ResolveCounters) {
        self.build_preprocess_us
            .add(timings.preprocess.as_micros() as u64);
        self.build_graph_us.add(timings.graph.as_micros() as u64);
        self.build_resolve_us
            .add(timings.resolve.as_micros() as u64);
        self.build_canonicalize_us
            .add(timings.canonicalize.as_micros() as u64);
        self.resolve_components.add(resolve.components);
        self.ilp_variables.add(resolve.ilp_variables);
        self.bnb_nodes.add(resolve.bnb_nodes);
        self.pruned_candidates.add(resolve.pruned_candidates);
        self.resolve_cache_hits.add(resolve.cache_hits);
        self.resolve_cache_misses.add(resolve.cache_misses);
        self.resolve_cache_bypass.add(resolve.cache_bypass);
    }

    pub(crate) fn note_inflight_coalesced(&self) {
        self.inflight_coalesced.inc();
    }

    /// One session turn answered by forking a shared prefix from the
    /// prefix forest.
    pub(crate) fn note_forest_fork(&self) {
        self.forest_forks.inc();
    }

    pub(crate) fn note_request(&self, latency: Duration) {
        self.requests.inc();
        let us = latency.as_micros() as u64;
        self.latency_hist.observe(us);
        self.latencies_us.lock().expect("latency sink").push(us);
    }

    /// Zeroes every counter and restarts the throughput clock — the
    /// benchmark phase boundary (`QkbServer::reset_stats` also resets
    /// both cache tiers' and the session store's counters so phases
    /// never hand-subtract).
    pub(crate) fn reset(&self) {
        *self.started.lock().expect("metrics clock") = Instant::now();
        // Zeroes every registry cell in place — the pre-resolved
        // handles above (and any the registry hands out later) stay
        // valid across the reset.
        self.registry.reset();
        self.latencies_us.lock().expect("latency sink").clear();
    }

    pub(crate) fn snapshot(
        &self,
        cache: CacheCounters,
        stage1: Stage1Counters,
        component: ComponentCacheCounters,
        sessions: SessionStats,
    ) -> ServeStats {
        // Copy out under the lock, sort after releasing it: requests
        // completing during a snapshot must not stall on a 2^20-sample
        // sort inside note_request.
        let (mut samples, latency_samples_dropped) = {
            let ring = self.latencies_us.lock().expect("latency sink");
            (ring.resident(), ring.dropped())
        };
        samples.sort_unstable();
        let samples = samples;
        // Nearest-rank with clamped index: zero samples reports 0.0 for
        // every percentile (idle server, not NaN), and a single sample
        // reports itself as p50, p95 and mean alike.
        let pct = |q: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let idx = (((samples.len() as f64 - 1.0) * q).round() as usize).min(samples.len() - 1);
            samples[idx] as f64 / 1000.0
        };
        let mean_ms = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1000.0
        };
        let elapsed = self.started.lock().expect("metrics clock").elapsed();
        let requests = self.requests.get();
        ServeStats {
            requests,
            elapsed,
            throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
            latency_p50_ms: pct(0.50),
            latency_p95_ms: pct(0.95),
            latency_mean_ms: mean_ms,
            latency_samples: samples.len() as u64,
            latency_samples_dropped,
            cache,
            stage1,
            component,
            sessions,
            batches: self.batches.get(),
            build_rounds: self.build_rounds.get(),
            cold_builds: self.cold_builds.get(),
            assembled_builds: self.assembled_builds.get(),
            docs_built: self.docs_built.get(),
            batch_coalesced: self.batch_coalesced.get(),
            inflight_coalesced: self.inflight_coalesced.get(),
            build_timings: StageTimings {
                preprocess: Duration::from_micros(self.build_preprocess_us.get()),
                graph: Duration::from_micros(self.build_graph_us.get()),
                resolve: Duration::from_micros(self.build_resolve_us.get()),
                canonicalize: Duration::from_micros(self.build_canonicalize_us.get()),
            },
            resolve_counters: ResolveCounters {
                components: self.resolve_components.get(),
                ilp_variables: self.ilp_variables.get(),
                bnb_nodes: self.bnb_nodes.get(),
                pruned_candidates: self.pruned_candidates.get(),
                cache_hits: self.resolve_cache_hits.get(),
                cache_misses: self.resolve_cache_misses.get(),
                cache_bypass: self.resolve_cache_bypass.get(),
            },
        }
    }
}

/// A point-in-time view of the server's health.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests answered.
    pub requests: u64,
    /// Time since the server started.
    pub elapsed: Duration,
    /// Requests per second over the server's lifetime.
    pub throughput_rps: f64,
    /// Median queue-to-reply latency (ms).
    pub latency_p50_ms: f64,
    /// 95th-percentile queue-to-reply latency (ms).
    pub latency_p95_ms: f64,
    /// Mean queue-to-reply latency (ms).
    pub latency_mean_ms: f64,
    /// Latency samples resident in the percentile window (the
    /// percentiles above are computed over exactly this many samples;
    /// 0 means they all read 0.0 by convention).
    pub latency_samples: u64,
    /// Samples displaced from the latency window (percentiles cover the
    /// newest 2^20 samples; non-zero means the reported percentiles
    /// describe recent traffic, not the server's whole lifetime).
    pub latency_samples_dropped: u64,
    /// Fragment-cache counters (tier two: exact retrieved-set reuse).
    pub cache: CacheCounters,
    /// Per-document stage-1 cache counters (tier one: cross-query
    /// document reuse).
    pub stage1: Stage1Counters,
    /// Component resolve-cache counters (the tier below stage 1:
    /// cross-document coupling-component reuse in the NED+CR solver).
    pub component: ComponentCacheCounters,
    /// Session-store counters (session-scoped streaming KBs:
    /// live/evicted sessions, extend-vs-cold turns, streaming dedup).
    pub sessions: SessionStats,
    /// Admission batches processed.
    pub batches: u64,
    /// Grouped `build_kb` rounds executed.
    pub build_rounds: u64,
    /// Fragments built fully cold (no stage-1 artifact reused).
    pub cold_builds: u64,
    /// Fragments assembled with at least one cached stage-1 artifact.
    pub assembled_builds: u64,
    /// Documents fed through builds (assembled or computed).
    pub docs_built: u64,
    /// Requests that shared a fragment with an identical query in the
    /// same admission batch.
    pub batch_coalesced: u64,
    /// Query groups that piggybacked on another shard's in-flight build.
    pub inflight_coalesced: u64,
    /// Summed per-stage wall clock of every document merged by a build
    /// round or a session turn (stage-1 slots carry the artifact's
    /// original compute cost, so a cached artifact re-reports it).
    pub build_timings: StageTimings,
    /// Summed resolve-stage work counters (coupling components, ILP
    /// variables, branch-and-bound nodes, pruned candidates) of the same
    /// merged documents.
    pub resolve_counters: ResolveCounters,
}

impl ServeStats {
    /// Fragment-cache hit rate over all lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Stage-1 (per-document) cache hit rate over all lookups.
    pub fn stage1_hit_rate(&self) -> f64 {
        self.stage1.hit_rate()
    }

    /// Component resolve-cache hit rate over all lookups.
    pub fn component_hit_rate(&self) -> f64 {
        self.component.hit_rate()
    }

    /// JSON rendering for benchmark reports and dashboards.
    pub fn to_json(&self) -> Value {
        Value::object()
            .with("requests", self.requests)
            .with("elapsed_s", self.elapsed.as_secs_f64())
            .with("throughput_rps", self.throughput_rps)
            .with("latency_p50_ms", self.latency_p50_ms)
            .with("latency_p95_ms", self.latency_p95_ms)
            .with("latency_mean_ms", self.latency_mean_ms)
            .with("latency_samples", self.latency_samples)
            .with("latency_samples_dropped", self.latency_samples_dropped)
            .with("cache_hits", self.cache.hits)
            .with("cache_misses", self.cache.misses)
            .with("cache_evictions", self.cache.evictions)
            .with("cache_entries", self.cache.entries)
            .with("cache_hit_rate", self.cache_hit_rate())
            .with("stage1_hits", self.stage1.hits)
            .with("stage1_misses", self.stage1.misses)
            .with("stage1_evictions", self.stage1.evictions)
            .with("stage1_entries", self.stage1.entries)
            .with("stage1_bytes", self.stage1.approx_bytes)
            .with("stage1_capacity_bytes", self.stage1.capacity_bytes)
            .with("stage1_hit_rate", self.stage1_hit_rate())
            .with("component_hits", self.component.hits)
            .with("component_misses", self.component.misses)
            .with("component_evictions", self.component.evictions)
            .with("component_entries", self.component.entries)
            .with("component_bytes", self.component.approx_bytes)
            .with("component_capacity_bytes", self.component.capacity_bytes)
            .with("component_hit_rate", self.component_hit_rate())
            .with("sessions", self.sessions.to_json())
            .with("batches", self.batches)
            .with("build_rounds", self.build_rounds)
            .with("cold_builds", self.cold_builds)
            .with("assembled_builds", self.assembled_builds)
            .with("docs_built", self.docs_built)
            .with("batch_coalesced", self.batch_coalesced)
            .with("inflight_coalesced", self.inflight_coalesced)
            .with("build_timings", self.build_timings.to_json())
            .with("resolve_counters", self.resolve_counters.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_samples_and_counts_displaced() {
        let mut ring = LatencyRing::with_capacity(4);
        for v in 1..=4 {
            ring.push(v);
        }
        assert_eq!(ring.dropped(), 0);
        let mut resident = ring.resident();
        resident.sort_unstable();
        assert_eq!(resident, vec![1, 2, 3, 4]);
        // Overflow: the two oldest are displaced, the window slides.
        ring.push(5);
        ring.push(6);
        assert_eq!(ring.dropped(), 2);
        let mut resident = ring.resident();
        resident.sort_unstable();
        assert_eq!(resident, vec![3, 4, 5, 6]);
        ring.clear();
        assert_eq!((ring.resident().len(), ring.dropped()), (0, 0));
    }

    #[test]
    fn ring_wraps_repeatedly_without_growing() {
        let mut ring = LatencyRing::with_capacity(3);
        for v in 0..100 {
            ring.push(v);
        }
        assert_eq!(ring.resident().len(), 3);
        assert_eq!(ring.dropped(), 97);
        let mut resident = ring.resident();
        resident.sort_unstable();
        assert_eq!(resident, vec![97, 98, 99]);
    }

    #[test]
    fn snapshot_surfaces_dropped_count() {
        let metrics = ServeMetrics::new();
        metrics.note_request(Duration::from_micros(100));
        let stats = metrics.snapshot(
            CacheCounters::default(),
            Stage1Counters::default(),
            ComponentCacheCounters::default(),
            SessionStats::default(),
        );
        assert_eq!(stats.latency_samples_dropped, 0);
        assert_eq!(stats.to_json()["latency_samples_dropped"], 0u64);
    }

    fn plain_snapshot(metrics: &ServeMetrics) -> ServeStats {
        metrics.snapshot(
            CacheCounters::default(),
            Stage1Counters::default(),
            ComponentCacheCounters::default(),
            SessionStats::default(),
        )
    }

    #[test]
    fn percentiles_with_zero_samples_read_zero() {
        let metrics = ServeMetrics::new();
        let stats = plain_snapshot(&metrics);
        assert_eq!(stats.latency_samples, 0);
        assert_eq!(stats.latency_p50_ms, 0.0);
        assert_eq!(stats.latency_p95_ms, 0.0);
        assert_eq!(stats.latency_mean_ms, 0.0);
        assert_eq!(stats.to_json()["latency_samples"], 0u64);
    }

    #[test]
    fn percentiles_with_one_sample_report_it_everywhere() {
        let metrics = ServeMetrics::new();
        metrics.note_request(Duration::from_micros(2500));
        let stats = plain_snapshot(&metrics);
        assert_eq!(stats.latency_samples, 1);
        assert_eq!(stats.latency_p50_ms, 2.5);
        assert_eq!(stats.latency_p95_ms, 2.5);
        assert_eq!(stats.latency_mean_ms, 2.5);
    }

    #[test]
    fn registry_mirrors_counters_and_reset_zeroes_everything() {
        let metrics = ServeMetrics::new();
        metrics.note_batch(5, 3);
        metrics.note_request(Duration::from_micros(10));
        metrics.note_inflight_coalesced();
        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter("serve_requests_total"), Some(1));
        assert_eq!(snap.counter("serve_batches_total"), Some(1));
        assert_eq!(snap.counter("serve_batch_coalesced_total"), Some(2));
        assert_eq!(snap.counter("serve_inflight_coalesced_total"), Some(1));
        assert_eq!(snap.histogram("serve_request_latency_us").unwrap().count, 1);
        let text = snap.to_prometheus_text();
        assert!(text.contains("serve_requests_total 1"));
        assert!(text.contains("serve_request_latency_us_count 1"));

        metrics.reset();
        assert!(metrics.registry().snapshot().is_zero());
        let stats = plain_snapshot(&metrics);
        assert_eq!(
            (stats.requests, stats.batches, stats.latency_samples),
            (0, 0, 0)
        );
        // Pre-reset handles keep working after the in-place zeroing.
        metrics.note_request(Duration::from_micros(7));
        assert_eq!(plain_snapshot(&metrics).requests, 1);
    }
}
