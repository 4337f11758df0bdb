//! Unified metrics registry: named counters, gauges, and log-scale
//! histograms with atomic updates and point-in-time snapshots.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones resolved once at construction; hot-path updates are single
//! atomic ops with no name lookup. `counter("x")` called twice returns
//! handles to the same underlying cell, so aggregation across components
//! falls out of shared names. [`Registry::reset`] zeroes every cell in
//! place, which keeps previously handed-out handles valid.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` (for `i >= 1`) holds values
/// whose bit length is `i`, i.e. `[2^(i-1), 2^i - 1]`; bucket 0 holds 0.
/// 40 buckets cover ~15 minutes in microseconds.
pub const HIST_BUCKETS: usize = 40;

/// Monotonic counter handle.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value handle.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
    /// Raises the gauge to `v` if `v` is larger — a lock-free
    /// high-watermark tracker (e.g. peak queue depth under load).
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }
}

struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Lower bound (inclusive) of bucket `i`.
fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Upper bound (inclusive) of bucket `i`, `None` for the open last bucket.
fn bucket_hi(i: usize) -> Option<u64> {
    if i == 0 {
        Some(0)
    } else if i == HIST_BUCKETS - 1 {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// Fixed-bucket log-scale (power-of-two) histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCore>);

impl std::fmt::Debug for HistCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistCore")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Approximate quantile: the midpoint of the bucket holding the
    /// `q`-th ranked observation. `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i).unwrap_or(lo.saturating_mul(2));
                return Some((lo as f64 + hi as f64) / 2.0);
            }
        }
        None
    }
}

/// Point-in-time view of the whole registry, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The named counter for a reader whose names are fixed in code:
    /// a missing name is a typo, not an idle metric, so it panics.
    pub fn expect_counter(&self, name: &str) -> u64 {
        self.counter(name)
            .unwrap_or_else(|| panic!("no counter named {name}"))
    }

    /// The named gauge; panics like [`RegistrySnapshot::expect_counter`].
    pub fn expect_gauge(&self, name: &str) -> i64 {
        self.gauge(name)
            .unwrap_or_else(|| panic!("no gauge named {name}"))
    }

    /// Adds gauges read from outside the registry at snapshot time
    /// (state such as occupancy, which a [`Registry::reset`] must not
    /// touch), keeping the gauges sorted by name.
    pub fn with_gauges(mut self, gauges: impl IntoIterator<Item = (String, i64)>) -> Self {
        self.gauges.extend(gauges);
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// True when every counter, gauge, and histogram reads zero.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.iter().all(|(_, v)| *v == 0)
            && self.histograms.iter().all(|(_, h)| h.count == 0)
    }

    /// Flat Prometheus-style text exposition (counters as `# TYPE x
    /// counter`, histograms with cumulative `_bucket{le=...}` lines).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (i, n) in h.buckets.iter().enumerate() {
                cum += n;
                if *n == 0 && i != HIST_BUCKETS - 1 {
                    continue;
                }
                match bucket_hi(i) {
                    Some(hi) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        out
    }
}

#[derive(Default)]
struct RegState {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<HistCore>>,
}

/// Shared registry of named metrics. Clones share the same state.
#[derive(Clone, Default)]
pub struct Registry {
    state: Arc<Mutex<RegState>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap();
        f.debug_struct("Registry")
            .field("counters", &state.counters.len())
            .field("gauges", &state.gauges.len())
            .field("histograms", &state.histograms.len())
            .finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut state = self.state.lock().unwrap();
        let cell = state
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Get-or-create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut state = self.state.lock().unwrap();
        let cell = state
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// Get-or-create the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut state = self.state.lock().unwrap();
        let cell = state
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCore::new()));
        Histogram(Arc::clone(cell))
    }

    /// Zero every metric in place; existing handles remain valid.
    pub fn reset(&self) {
        let state = self.state.lock().unwrap();
        for c in state.counters.values() {
            c.store(0, Ordering::Relaxed);
        }
        for g in state.gauges.values() {
            g.store(0, Ordering::Relaxed);
        }
        for h in state.histograms.values() {
            h.reset();
        }
    }

    pub fn snapshot(&self) -> RegistrySnapshot {
        let state = self.state.lock().unwrap();
        RegistrySnapshot {
            counters: state
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(n, h)| {
                    (
                        n.clone(),
                        HistogramSnapshot {
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                            buckets: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                        },
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(2);
        b.inc();
        assert_eq!(reg.counter("x").get(), 3);
        let g = reg.gauge("y");
        g.set(-4);
        g.add(1);
        assert_eq!(reg.gauge("y").get(), -3);
    }

    #[test]
    fn gauge_fetch_max_tracks_the_high_watermark() {
        let reg = Registry::new();
        let g = reg.gauge("peak");
        g.fetch_max(3);
        g.fetch_max(7);
        g.fetch_max(5); // lower values never regress the watermark
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for i in 1..HIST_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_lo(i)), i);
            assert_eq!(bucket_of(bucket_hi(i).unwrap()), i);
        }
    }

    #[test]
    fn histogram_quantiles_and_reset() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        assert_eq!(h.snapshot().quantile(0.5), None);
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1106);
        let p50 = snap.quantile(0.5).unwrap();
        assert!((2.0..=3.0).contains(&p50), "p50 bucket midpoint: {p50}");
        let p100 = snap.quantile(1.0).unwrap();
        assert!(p100 >= 512.0, "p100 in the 512..1023 bucket: {p100}");
        reg.reset();
        assert!(reg.snapshot().is_zero());
        // the pre-reset handle still works
        h.observe(7);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn prometheus_text_renders_sorted_and_cumulative() {
        let reg = Registry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total").inc();
        reg.gauge("resident").set(5);
        let h = reg.histogram("lat_us");
        h.observe(0);
        h.observe(3);
        let text = reg.snapshot().to_prometheus_text();
        let a = text.find("a_total 1").unwrap();
        let b = text.find("b_total 2").unwrap();
        assert!(a < b, "names sorted");
        assert!(text.contains("resident 5"));
        assert!(text.contains("lat_us_bucket{le=\"0\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"3\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_us_sum 3"));
        assert!(text.contains("lat_us_count 2"));
    }

    #[test]
    fn outside_gauges_merge_sorted_and_stay_outside() {
        let reg = Registry::new();
        reg.gauge("m_depth").set(2);
        let snap = reg
            .snapshot()
            .with_gauges([("z_bytes".to_string(), 9), ("a_entries".to_string(), 4)]);
        let names: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_entries", "m_depth", "z_bytes"]);
        assert_eq!(snap.expect_gauge("z_bytes"), 9);
        assert!(reg.snapshot().gauge("z_bytes").is_none(), "never stored");
    }

    #[test]
    #[should_panic(expected = "no counter named missing_total")]
    fn expect_counter_panics_on_an_unknown_name() {
        Registry::new().snapshot().expect_counter("missing_total");
    }
}
