//! Serving metrics: every serving counter lives once, in the
//! [`qkb_obs::Registry`] of `ServeConfig::registry`. The request path
//! writes its own `serve_*` counters here; the two cache tiers, the
//! session store, the prefix forest, and under `qkb_net` the network
//! tier and its journal take their handles from the same registry.
//! Occupancy (entries, bytes, capacity, live sessions, frozen layers) is
//! read from the live stores when a snapshot is taken and never stored
//! in the registry, so one [`Registry::reset`] zeroes exactly the
//! counters.
//!
//! One [`RegistrySnapshot`] feeds both renderings: [`ServeStats`] reads
//! its values by name (p50/p95 latency still come from the sample ring)
//! and `QkbServer::metrics_text` prints it as Prometheus text.

use crate::cache::CacheCounters;
use crate::stage1_cache::Stage1Counters;
use qkb_obs::{Counter, Histogram, Registry, RegistrySnapshot};
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

/// The registry plus the request path's own metrics: pre-resolved
/// counter handles (hot-path updates stay single atomic ops), the
/// throughput clock and the latency ring.
pub(crate) struct ServeMetrics {
    registry: Registry,
    started: Mutex<Instant>,
    requests: Counter,
    request_panics: Counter,
    cold_builds: Counter,
    assembled_builds: Counter,
    docs_built: Counter,
    inflight_coalesced: Counter,
    build_preprocess_us: Counter,
    build_graph_us: Counter,
    build_resolve_us: Counter,
    build_canonicalize_us: Counter,
    resolve_components: Counter,
    ilp_variables: Counter,
    bnb_nodes: Counter,
    pruned_candidates: Counter,
    /// Log-scale latency distribution for the text exposition; exact
    /// percentiles still come from the sample ring below.
    latency_hist: Histogram,
    latencies_us: Mutex<LatencyRing>,
}

impl ServeMetrics {
    /// Registers the request path's counters in `registry`.
    pub(crate) fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("serve_requests_total"),
            request_panics: registry.counter("serve_request_panics_total"),
            cold_builds: registry.counter("serve_cold_builds_total"),
            assembled_builds: registry.counter("serve_assembled_builds_total"),
            docs_built: registry.counter("serve_docs_built_total"),
            inflight_coalesced: registry.counter("serve_inflight_coalesced_total"),
            build_preprocess_us: registry.counter("serve_build_preprocess_us_total"),
            build_graph_us: registry.counter("serve_build_graph_us_total"),
            build_resolve_us: registry.counter("serve_build_resolve_us_total"),
            build_canonicalize_us: registry.counter("serve_build_canonicalize_us_total"),
            resolve_components: registry.counter("serve_resolve_components_total"),
            ilp_variables: registry.counter("serve_ilp_variables_total"),
            bnb_nodes: registry.counter("serve_bnb_nodes_total"),
            pruned_candidates: registry.counter("serve_pruned_candidates_total"),
            latency_hist: registry.histogram("serve_request_latency_us"),
            registry: registry.clone(),
            started: Mutex::new(Instant::now()),
            latencies_us: Mutex::new(LatencyRing::with_capacity(MAX_LATENCY_SAMPLES)),
        }
    }

    /// The registry every serving counter lives in.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// One fragment build over `docs` documents: assembled when it reused
    /// at least one cached stage-1 artifact, fully cold otherwise.
    pub(crate) fn note_build(
        &self,
        assembled: bool,
        docs: u64,
        timings: StageTimings,
        resolve: ResolveCounters,
    ) {
        if assembled {
            self.assembled_builds.inc();
        } else {
            self.cold_builds.inc();
        }
        self.docs_built.add(docs);
        self.note_stage_work(timings, resolve);
    }

    /// Stage time and resolve work of merged documents — a fragment
    /// build's or a session turn's — into the counters behind
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
    }

    pub(crate) fn note_inflight_coalesced(&self) {
        self.inflight_coalesced.inc();
    }

    /// One request whose serving panicked: it got no reply.
    pub(crate) fn note_panic(&self) {
        self.request_panics.inc();
    }

    pub(crate) fn note_request(&self, latency: Duration) {
        self.requests.inc();
        let us = latency.as_micros() as u64;
        self.latency_hist.observe(us);
        self.latencies_us.lock().expect("latency sink").push(us);
    }

    /// Zeroes every serving counter — one [`Registry::reset`] — and
    /// restarts the throughput clock and the latency ring: the benchmark
    /// phase boundary. Occupancy is not in the registry, so cached
    /// entries and live sessions read the same before and after.
    pub(crate) fn reset(&self) {
        *self.started.lock().expect("metrics clock") = Instant::now();
        // Zeroes every registry cell in place — the pre-resolved
        // handles above (and any the registry hands out later) stay
        // valid across the reset.
        self.registry.reset();
        self.latencies_us.lock().expect("latency sink").clear();
    }

    /// The [`ServeStats`] view of `snap`, a snapshot of this registry
    /// with the stores' occupancy gauges added.
    pub(crate) fn stats(&self, snap: &RegistrySnapshot) -> ServeStats {
        // Copy out under the lock, sort after releasing it: requests
        // completing during a snapshot must not stall on a 2^20-sample
        // sort inside note_request.
        let (samples, latency_samples_dropped) = {
            let ring = self.latencies_us.lock().expect("latency sink");
            (ring.resident(), ring.dropped())
        };
        let latency_samples = samples.len() as u64;
        let [latency_p50_ms, latency_p95_ms, latency_mean_ms] = latency_ms(samples);
        let elapsed = self.started.lock().expect("metrics clock").elapsed();
        let c = |name: &str| snap.expect_counter(name);
        let us = |name: &str| Duration::from_micros(c(name));
        let requests = c("serve_requests_total");
        ServeStats {
            requests,
            elapsed,
            throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
            latency_p50_ms,
            latency_p95_ms,
            latency_mean_ms,
            latency_samples,
            latency_samples_dropped,
            cache: CacheCounters::from_snapshot(snap),
            stage1: Stage1Counters::from_snapshot(snap),
            component: Stage1Counters::default(),
            sessions: SessionStats::from_snapshot(snap),
            request_panics: c("serve_request_panics_total"),
            batches: requests,
            cold_builds: c("serve_cold_builds_total"),
            assembled_builds: c("serve_assembled_builds_total"),
            docs_built: c("serve_docs_built_total"),
            batch_coalesced: 0,
            inflight_coalesced: c("serve_inflight_coalesced_total"),
            build_timings: StageTimings {
                preprocess: us("serve_build_preprocess_us_total"),
                graph: us("serve_build_graph_us_total"),
                resolve: us("serve_build_resolve_us_total"),
                canonicalize: us("serve_build_canonicalize_us_total"),
            },
            resolve_counters: ResolveCounters {
                components: c("serve_resolve_components_total"),
                ilp_variables: c("serve_ilp_variables_total"),
                bnb_nodes: c("serve_bnb_nodes_total"),
                pruned_candidates: c("serve_pruned_candidates_total"),
            },
        }
    }
}

/// Nearest-rank p50 and p95 and the mean of latency samples (µs), in ms,
/// with a clamped index: zero samples report 0.0 everywhere (idle
/// server, not NaN), and a single sample reports itself everywhere.
fn latency_ms(mut samples: Vec<u64>) -> [f64; 3] {
    if samples.is_empty() {
        return [0.0; 3];
    }
    samples.sort_unstable();
    let pct = |q: f64| {
        let idx = (((samples.len() as f64 - 1.0) * q).round() as usize).min(samples.len() - 1);
        samples[idx] as f64 / 1000.0
    };
    let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1000.0;
    [pct(0.50), pct(0.95), mean]
}

/// A point-in-time view of the server's health.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests answered.
    pub requests: u64,
    /// Time since the server started, or since the last
    /// `QkbServer::reset_stats`, which restarts this clock.
    pub elapsed: Duration,
    /// Requests per second over `elapsed`.
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
    /// Always zero: there is no component resolve cache any more. Kept
    /// only because `bench_e2e/src/run.rs` reads it (its `approx_bytes`
    /// is a term of the `resident_mib` sum).
    pub component: Stage1Counters,
    /// Session-store counters (session-scoped streaming KBs:
    /// live/evicted sessions, extend-vs-cold turns, streaming dedup).
    pub sessions: SessionStats,
    /// Requests whose serving panicked. Each failed alone, without a
    /// reply; its shard went on serving.
    pub request_panics: u64,
    /// Always equals `requests`: a shard serves one request at a time.
    /// Kept only because `bench_e2e/src/run.rs` reads it (as the
    /// denominator of `serve.batch_size`, which so reads 1).
    pub batches: u64,
    /// Fragments built fully cold (no stage-1 artifact reused).
    pub cold_builds: u64,
    /// Fragments assembled with at least one cached stage-1 artifact.
    pub assembled_builds: u64,
    /// Documents fed through builds (assembled or computed).
    pub docs_built: u64,
    /// Always zero: there are no admission batches to share a fragment
    /// in. Kept only because `bench_e2e/src/run.rs` reads it (a term of
    /// `serve.coalesced`, which so counts in-flight followers only).
    pub batch_coalesced: u64,
    /// Requests that waited on another shard's in-flight build of their
    /// fragment.
    pub inflight_coalesced: u64,
    /// Summed per-stage wall clock of every document merged by a
    /// fragment build or a session turn (stage-1 slots carry the artifact's
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

    /// Always 0.0: there is no component resolve cache any more. Kept
    /// only because `bench_e2e/src/run.rs` reports it as
    /// `serve.component_hit_rate`.
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
            .with("sessions", self.sessions.to_json())
            .with("request_panics", self.request_panics)
            .with("cold_builds", self.cold_builds)
            .with("assembled_builds", self.assembled_builds)
            .with("docs_built", self.docs_built)
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

    /// The stats of a server whose tiers are all empty: the tiers
    /// register their names in the metrics' registry and report their
    /// occupancy, as `QkbServer::start` and `QkbServer::stats` do.
    fn plain_snapshot(metrics: &ServeMetrics) -> ServeStats {
        let reg = metrics.registry();
        let gauges = [
            crate::FragmentCache::new(0, 1, reg).gauges(),
            crate::Stage1Cache::new(0, 1, reg).gauges(),
            qkb_session::SessionManager::new(Default::default(), reg).gauges(),
        ];
        metrics.stats(&reg.snapshot().with_gauges(gauges.concat()))
    }

    #[test]
    fn snapshot_surfaces_dropped_count() {
        let metrics = ServeMetrics::new(&Registry::new());
        metrics.note_request(Duration::from_micros(100));
        let stats = plain_snapshot(&metrics);
        assert_eq!(stats.latency_samples_dropped, 0);
        assert_eq!(stats.to_json()["latency_samples_dropped"], 0u64);
    }

    #[test]
    fn percentiles_with_zero_samples_read_zero() {
        let metrics = ServeMetrics::new(&Registry::new());
        let stats = plain_snapshot(&metrics);
        assert_eq!(stats.latency_samples, 0);
        assert_eq!(stats.latency_p50_ms, 0.0);
        assert_eq!(stats.latency_p95_ms, 0.0);
        assert_eq!(stats.latency_mean_ms, 0.0);
        assert_eq!(stats.to_json()["latency_samples"], 0u64);
    }

    #[test]
    fn percentiles_with_one_sample_report_it_everywhere() {
        let metrics = ServeMetrics::new(&Registry::new());
        metrics.note_request(Duration::from_micros(2500));
        let stats = plain_snapshot(&metrics);
        assert_eq!(stats.latency_samples, 1);
        assert_eq!(stats.latency_p50_ms, 2.5);
        assert_eq!(stats.latency_p95_ms, 2.5);
        assert_eq!(stats.latency_mean_ms, 2.5);
    }

    #[test]
    fn registry_mirrors_counters_and_reset_zeroes_everything() {
        let metrics = ServeMetrics::new(&Registry::new());
        metrics.note_panic();
        metrics.note_request(Duration::from_micros(10));
        metrics.note_inflight_coalesced();
        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter("serve_requests_total"), Some(1));
        assert_eq!(snap.counter("serve_request_panics_total"), Some(1));
        assert_eq!(snap.counter("serve_inflight_coalesced_total"), Some(1));
        assert_eq!(snap.histogram("serve_request_latency_us").unwrap().count, 1);
        let text = snap.to_prometheus_text();
        assert!(text.contains("serve_requests_total 1"));
        assert!(text.contains("serve_request_latency_us_count 1"));

        metrics.reset();
        assert!(metrics.registry().snapshot().is_zero());
        let stats = plain_snapshot(&metrics);
        assert_eq!(
            (stats.requests, stats.request_panics, stats.latency_samples),
            (0, 0, 0)
        );
        // Pre-reset handles keep working after the in-place zeroing.
        metrics.note_request(Duration::from_micros(7));
        assert_eq!(plain_snapshot(&metrics).requests, 1);
    }
}
