//! Bench-regression checking: compares fresh `BENCH_*.json` reports
//! against the baselines committed at the repo root and fails on a >25%
//! regression of any headline speedup/latency metric.
//!
//! The committed baselines are produced in quick mode to match the
//! quick-mode fresh runs CI performs, and the gate compares *ratios*
//! (speedups) and relative latencies — quantities that are stable
//! across machines — rather than absolute wall-clock. A speedup measured
//! at one worker, or on one core, is no speedup: a report whose
//! `workers` or `cores` is at most 1 has its speedup metrics skipped,
//! with the reason reported instead of a verdict.

use qkb_util::json::Value;

/// Maximum tolerated relative regression of a headline metric.
pub const TOLERANCE: f64 = 0.25;

/// Whether a bigger or a smaller value is better for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Speedups, throughputs.
    HigherIsBetter,
    /// Latencies.
    LowerIsBetter,
}

/// A headline metric of one bench report, addressed by a dot-separated
/// path into the JSON object.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub path: &'static str,
    pub direction: Direction,
}

const fn higher(path: &'static str) -> MetricSpec {
    MetricSpec {
        path,
        direction: Direction::HigherIsBetter,
    }
}

const fn lower(path: &'static str) -> MetricSpec {
    MetricSpec {
        path,
        direction: Direction::LowerIsBetter,
    }
}

const PARALLEL_METRICS: &[MetricSpec] = &[higher("speedup")];
const SERVE_METRICS: &[MetricSpec] = &[
    higher("speedup"),
    lower("served_p50_ms"),
    lower("served_p95_ms"),
];
const SESSION_METRICS: &[MetricSpec] = &[higher("speedup"), higher("session_rps")];
const INCREMENTAL_METRICS: &[MetricSpec] = &[higher("speedup"), higher("twotier_rps")];
const RESOLVE_METRICS: &[MetricSpec] = &[higher("greedy.speedup"), higher("ilp.speedup")];
const NET_METRICS: &[MetricSpec] = &[higher("replay_speedup")];
// `warmup_speedup` is asserted (≥2x) inside the bin rather than gated
// here: its denominator is a microseconds-scale fork, too jittery for a
// 25% band, while the byte accounting is deterministic.
const FOREST_METRICS: &[MetricSpec] = &[higher("bytes_reduction")];

/// The headline metrics per bench (keyed by the report's `bench` field).
pub fn metrics_for(bench: &str) -> &'static [MetricSpec] {
    match bench {
        "build_kb_parallel" => PARALLEL_METRICS,
        "serve" => SERVE_METRICS,
        "session" => SESSION_METRICS,
        "incremental" => INCREMENTAL_METRICS,
        "resolve" => RESOLVE_METRICS,
        "net" => NET_METRICS,
        "forest" => FOREST_METRICS,
        _ => &[],
    }
}

/// One detected regression.
#[derive(Clone, Debug)]
pub struct Regression {
    pub bench: String,
    pub path: String,
    pub baseline: f64,
    pub fresh: f64,
    /// Relative change in the *bad* direction (0.30 = 30% worse).
    pub regression: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} regressed {:.0}% (baseline {:.3}, fresh {:.3})",
            self.bench,
            self.path,
            self.regression * 100.0,
            self.baseline,
            self.fresh
        )
    }
}

/// The outcome of comparing one report pair.
#[derive(Clone, Debug, Default)]
pub struct Checked {
    /// Headline metrics that regressed beyond [`TOLERANCE`].
    pub regressions: Vec<Regression>,
    /// Headline metrics left ungated, each with the reason.
    pub skipped: Vec<String>,
}

/// Why a report's speedup metrics cannot be gated, if they cannot: the
/// report ran with at most one worker (`workers`) or on at most one core
/// (`cores`), so its parallel arm had nothing to run in parallel on.
pub fn speedup_skip_reason(report: &Value) -> Option<String> {
    ["workers", "cores"].into_iter().find_map(|key| {
        let n = lookup(report, key)?;
        (n <= 1.0).then(|| format!("the report ran with {key} = {n}"))
    })
}

/// Resolves a dot-separated path in a JSON object to a number.
pub fn lookup(v: &Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    cur.as_f64()
}

/// Compares a fresh report against its committed baseline. Returns the
/// regressions beyond [`TOLERANCE`]; improvements and small wobbles
/// pass. Speedup metrics of a report pair where either side ran on one
/// worker or core are skipped, and the skip is returned with its reason.
/// Errors on malformed reports (missing `bench` tag, mismatched bench
/// kinds, or a headline metric absent from either side) — a gate that
/// silently checks nothing must not look green.
pub fn check_pair(baseline: &Value, fresh: &Value) -> Result<Checked, String> {
    let bench = baseline
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("baseline report has no `bench` tag")?
        .to_string();
    let fresh_bench = fresh
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("fresh report has no `bench` tag")?;
    if bench != fresh_bench {
        return Err(format!(
            "bench kind mismatch: baseline `{bench}` vs fresh `{fresh_bench}`"
        ));
    }
    let specs = metrics_for(&bench);
    if specs.is_empty() {
        return Err(format!("no headline metrics known for bench `{bench}`"));
    }
    let serial = speedup_skip_reason(baseline).or_else(|| speedup_skip_reason(fresh));
    let mut out = Checked::default();
    for spec in specs {
        if let Some(reason) = serial.as_ref().filter(|_| spec.path.ends_with("speedup")) {
            out.skipped.push(format!(
                "{bench}: `{}` not gated: {reason}, so it measures no parallelism",
                spec.path
            ));
            continue;
        }
        let base = lookup(baseline, spec.path)
            .ok_or_else(|| format!("{bench}: baseline is missing `{}`", spec.path))?;
        let new = lookup(fresh, spec.path)
            .ok_or_else(|| format!("{bench}: fresh report is missing `{}`", spec.path))?;
        if !base.is_finite() || !new.is_finite() || base <= 0.0 {
            return Err(format!(
                "{bench}: `{}` is not a positive finite number (baseline {base}, fresh {new})",
                spec.path
            ));
        }
        let regression = match spec.direction {
            Direction::HigherIsBetter => (base - new) / base,
            Direction::LowerIsBetter => (new - base) / base,
        };
        if regression > TOLERANCE {
            out.regressions.push(Regression {
                bench: bench.clone(),
                path: spec.path.to_string(),
                baseline: base,
                fresh: new,
                regression,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bench: &str, speedup: f64) -> Value {
        Value::object()
            .with("bench", bench)
            .with("speedup", speedup)
    }

    #[test]
    fn improvement_and_small_wobble_pass() {
        let base = report("build_kb_parallel", 4.0);
        assert!(check_pair(&base, &report("build_kb_parallel", 5.0))
            .expect("ok")
            .regressions
            .is_empty());
        // 20% down is within the 25% tolerance.
        assert!(check_pair(&base, &report("build_kb_parallel", 3.2))
            .expect("ok")
            .regressions
            .is_empty());
    }

    #[test]
    fn large_speedup_drop_is_flagged() {
        let base = report("build_kb_parallel", 4.0);
        let regs = check_pair(&base, &report("build_kb_parallel", 2.4))
            .expect("ok")
            .regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "speedup");
        assert!(regs[0].regression > 0.25);
    }

    #[test]
    fn latency_direction_is_inverted() {
        let mk = |speedup: f64, p50: f64, p95: f64| {
            Value::object()
                .with("bench", "serve")
                .with("speedup", speedup)
                .with("served_p50_ms", p50)
                .with("served_p95_ms", p95)
        };
        let base = mk(5.0, 10.0, 40.0);
        // Lower latency is an improvement, not a regression.
        assert!(check_pair(&base, &mk(5.0, 5.0, 20.0))
            .expect("ok")
            .regressions
            .is_empty());
        // 50% slower p95 trips the gate.
        let regs = check_pair(&base, &mk(5.0, 10.0, 60.0))
            .expect("ok")
            .regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "served_p95_ms");
    }

    #[test]
    fn nested_paths_resolve() {
        let mk = |g: f64, i: f64| {
            Value::object()
                .with("bench", "resolve")
                .with("greedy", Value::object().with("speedup", g))
                .with("ilp", Value::object().with("speedup", i))
        };
        let base = mk(3.5, 27.0);
        assert!(check_pair(&base, &mk(3.4, 26.0))
            .expect("ok")
            .regressions
            .is_empty());
        let regs = check_pair(&base, &mk(1.5, 26.0)).expect("ok").regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "greedy.speedup");
        // A collapsed ILP speedup trips its own headline.
        let regs = check_pair(&base, &mk(3.5, 10.0)).expect("ok").regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "ilp.speedup");
    }

    #[test]
    fn net_replay_speedup_is_gated() {
        let mk = |s: f64| {
            Value::object()
                .with("bench", "net")
                .with("replay_speedup", s)
        };
        let base = mk(8.0);
        // Small wobble and improvement both pass.
        assert!(check_pair(&base, &mk(7.0))
            .expect("ok")
            .regressions
            .is_empty());
        assert!(check_pair(&base, &mk(12.0))
            .expect("ok")
            .regressions
            .is_empty());
        // A collapsed replay speedup trips the gate.
        let regs = check_pair(&base, &mk(4.0)).expect("ok").regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "replay_speedup");
    }

    #[test]
    fn forest_sharing_metrics_are_gated() {
        let mk = |bytes: f64| {
            Value::object()
                .with("bench", "forest")
                .with("bytes_reduction", bytes)
        };
        let base = mk(3.0);
        assert!(check_pair(&base, &mk(2.8))
            .expect("ok")
            .regressions
            .is_empty());
        // A collapsed sharing ratio trips its own headline.
        let regs = check_pair(&base, &mk(1.2)).expect("ok").regressions;
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "bytes_reduction");
    }

    #[test]
    fn speedup_at_one_worker_or_core_is_skipped_with_its_reason() {
        let mk =
            |key: &str, n: f64, speedup: f64| report("build_kb_parallel", speedup).with(key, n);
        for key in ["workers", "cores"] {
            // One worker: even a collapsed speedup is reported, not gated.
            let checked = check_pair(&mk(key, 1.0, 1.17), &mk(key, 1.0, 0.5)).expect("ok");
            assert!(checked.regressions.is_empty());
            assert_eq!(checked.skipped.len(), 1);
            assert!(checked.skipped[0].contains("`speedup` not gated"));
            assert!(checked.skipped[0].contains(&format!("{key} = 1")));
            // Either side at one worker is enough to skip.
            let checked = check_pair(&mk(key, 4.0, 3.0), &mk(key, 1.0, 1.0)).expect("ok");
            assert_eq!((checked.regressions.len(), checked.skipped.len()), (0, 1));
            // With real parallelism the speedup is gated as before.
            let checked = check_pair(&mk(key, 4.0, 3.0), &mk(key, 4.0, 1.0)).expect("ok");
            assert!(checked.skipped.is_empty());
            assert_eq!(checked.regressions.len(), 1);
        }
        // Latency headlines of a one-worker report are still gated.
        let mk = |p95: f64| {
            Value::object()
                .with("bench", "serve")
                .with("shards", 1.0)
                .with("workers", 1.0)
                .with("speedup", 5.0)
                .with("served_p50_ms", 10.0)
                .with("served_p95_ms", p95)
        };
        let checked = check_pair(&mk(40.0), &mk(60.0)).expect("ok");
        assert_eq!(checked.skipped.len(), 1);
        assert_eq!(checked.regressions.len(), 1);
        assert_eq!(checked.regressions[0].path, "served_p95_ms");
    }

    #[test]
    fn malformed_reports_error_instead_of_passing() {
        let base = report("build_kb_parallel", 4.0);
        // Missing metric on the fresh side.
        let fresh = Value::object().with("bench", "build_kb_parallel");
        assert!(check_pair(&base, &fresh).is_err());
        // Mismatched bench kinds.
        assert!(check_pair(&base, &report("serve", 4.0)).is_err());
        // Unknown bench.
        assert!(check_pair(&report("nope", 1.0), &report("nope", 1.0)).is_err());
        // Non-positive baseline.
        assert!(check_pair(&report("build_kb_parallel", 0.0), &base).is_err());
    }
}
