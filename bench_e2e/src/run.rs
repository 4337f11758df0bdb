//! One workload, end to end: set up (several times, for `setup_s`), run
//! the measured phase over two connections, check the outputs, and turn
//! the client samples, the public stats and (traced) the spans into
//! metrics.

use crate::attrib::{split_requests, Split, LAYERS};
use crate::awake::KeepAwake;
use crate::check::check;
use crate::client::{drive, Clock, ConnPlan, Hook, Reply, Sample};
use crate::fixture::Env;
use crate::gen::{LaneSource, Workload, HOT_DEPTH, SESSION_LANES};
use crate::stats::{median, quantile, sorted, supported};
use qkb_net::{JournalStats, NetStats};
use qkb_obs::{Recorder, RecorderConfig, SpanRecord};
use qkb_serve::Served;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Connections (and client threads) the load generator uses.
const CONNS: usize = 2;
/// How long the client waits for stragglers after the last send.
const DRAIN_SECS: u64 = 60;
/// An open-loop run whose throughput falls this far below the offered
/// rate is saturated.
const SATURATION_SLACK: f64 = 0.02;
/// Per-thread span ring of the traced run: large enough that a shard
/// thread never overwrites a span before export.
const TRACE_RING: usize = 1 << 18;
/// The upper percentile most timed layer metrics report.
const P95: (&str, f64) = ("p95", 0.95);
/// Rounding slack when mapping client times onto the recorder clock.
const CLOCK_SLACK_US: u64 = 2;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A workload's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` declares for this mode.
    pub metrics: Vec<Metric>,
    /// Everything else worth printing (support counts, phases, config).
    pub extras: Vec<Metric>,
    /// Chrome trace of the traced phase.
    pub trace: Option<String>,
}

/// A measured phase's raw results.
struct PhaseRun {
    samples: Vec<Sample>,
    stats: NetStats,
    journal: Option<JournalStats>,
    ramp_ns: u64,
    end_ns: u64,
    /// Recorder microseconds at the phase clock's epoch.
    rec_epoch_us: u64,
    records: Vec<SpanRecord>,
    dropped: u64,
}

impl PhaseRun {
    fn in_window(&self, s: &Sample) -> bool {
        (self.ramp_ns..self.end_ns).contains(&s.due_ns)
    }

    fn window_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| self.in_window(s))
    }

    fn to_rec_us(&self, ns: u64) -> u64 {
        self.rec_epoch_us + ns / 1000
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The two connections' send plans.
fn plans(env: &Env, secs: f64) -> Vec<ConnPlan> {
    let mut plans: Vec<ConnPlan> = (0..CONNS).map(|_| ConnPlan::default()).collect();
    let gen = &env.gen;
    match env.workload {
        Workload::QaHot => {
            for lane in 0..CONNS * HOT_DEPTH {
                plans[lane % CONNS]
                    .closed
                    .push((lane, LaneSource::Hot(gen.lane_rng(lane))));
            }
        }
        Workload::SessionDurable => {
            for lane in 0..SESSION_LANES {
                plans[lane % CONNS].closed.push((
                    lane,
                    LaneSource::Sessions {
                        next_session: lane,
                        stride: SESSION_LANES,
                        turn: 0,
                    },
                ));
            }
        }
        Workload::QaFresh | Workload::Mixed => {
            for (i, (due, lane, op)) in gen
                .open_schedule(env.workload, secs)
                .into_iter()
                .enumerate()
            {
                let conn = lane.unwrap_or(i) % CONNS;
                plans[conn].open.push(((due * 1e9) as u64, lane, op));
            }
        }
    }
    plans
}

/// Runs ramp + `secs` of traffic against `env`, then drains.
fn run_phase(env: &Env, secs: f64) -> Result<PhaseRun, String> {
    let ramp_ns = (env.workload.ramp_secs() * 1e9) as u64;
    let end_ns = ramp_ns + (secs * 1e9) as u64;
    let drain_ns = end_ns + DRAIN_SECS * 1_000_000_000;
    let mut plans = plans(env, secs).into_iter();
    let (mine, theirs) = (plans.next().expect("conn 0"), plans.next().expect("conn 1"));
    let snapshot: RefCell<Option<(NetStats, Option<JournalStats>)>> = RefCell::new(None);
    env.recorder.clear();
    let clock = Clock {
        epoch: Instant::now(),
    };
    let rec_epoch_us = env.recorder.now_us();
    let server = &env.server;
    // Counters cover exactly the window: reset as it opens, read as it
    // closes (before the drain).
    let hooks: Vec<Hook<'_>> = vec![
        (ramp_ns, Box::new(|| server.reset_stats())),
        (
            end_ns,
            Box::new(|| {
                let journal = env.timed_journal.as_ref().map(|j| j.journal.stats());
                *snapshot.borrow_mut() = Some((server.stats(), journal));
            }),
        ),
    ];
    let addr = server.local_addr();
    let (gen, questions) = (&*env.gen, &env.corpus.questions);
    let samples = std::thread::scope(|s| {
        let other = s.spawn(|| {
            drive(
                addr,
                theirs,
                gen,
                questions,
                clock,
                end_ns,
                drain_ns,
                Vec::new(),
            )
        });
        let a = drive(addr, mine, gen, questions, clock, end_ns, drain_ns, hooks);
        let b = other.join().expect("connection thread");
        a.and_then(|mut a| {
            a.extend(b?);
            Ok(a)
        })
    })
    .map_err(|e| format!("{}: connection failed: {e}", env.workload.name()))?;
    let (stats, timed) = snapshot.into_inner().expect("window-end snapshot taken");
    let journal = timed.or(stats.journal);
    Ok(PhaseRun {
        samples,
        stats,
        journal,
        ramp_ns,
        end_ns,
        rec_epoch_us,
        records: env.recorder.records(),
        dropped: env.recorder.dropped(),
    })
}

/// Answered window latencies (ms), sorted.
fn latencies(run: &PhaseRun, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    sorted(
        run.window_samples()
            .filter(|s| s.answered() && keep(s))
            .map(|s| ms(s.latency_ns()))
            .collect(),
    )
}

/// End-to-end metrics of an untraced phase.
fn end_to_end(workload: Workload, run: &PhaseRun, out: &mut Outcome, setup_s: f64) {
    let window: Vec<&Sample> = run.window_samples().collect();
    let answered = window.iter().filter(|s| s.answered()).count();
    let failed = window.len() - answered;
    out.attempted = window.len() as u64;
    out.failed = failed as u64;
    let lat = latencies(run, |_| true);
    let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| supported(&lat, q));
    // Completion rate inside the window: replies between the first and
    // the last one there, over the time between them.
    let mut done: Vec<u64> = run
        .samples
        .iter()
        .filter(|s| s.answered() && (run.ramp_ns..run.end_ns).contains(&s.done_ns))
        .map(|s| s.done_ns)
        .collect();
    done.sort_unstable();
    let rps = match (done.first(), done.last()) {
        (Some(&a), Some(&b)) if b > a => (done.len() - 1) as f64 / ((b - a) as f64 / 1e9),
        _ => 0.0,
    };
    let sv = &run.stats.serve;
    let resident = sv.sessions.approx_bytes
        + sv.sessions.forest.shared_bytes
        + sv.stage1.approx_bytes
        + sv.component.approx_bytes;
    out.metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_ms", p50.map_or(0.0, |p| p.value), "ms"),
        metric("throughput_rps", rps, "1/s"),
        metric("resident_mib", resident as f64 / (1 << 20) as f64, "MiB"),
    ];
    // The tail is printed, not gated: it follows the shared host's speed
    // at least one for one, and its ten-seed spread on `qa_fresh` reached
    // 28% (see README.md).
    for (name, p) in [("p95_ms", p95), ("p99_ms", p99)] {
        if let Some(p) = p {
            out.extras.push(metric(name, p.value, "ms"));
        }
    }
    for (name, p) in [("p50_ms", p50), ("p95_ms", p95), ("p99_ms", p99)] {
        if let Some(p) = p {
            out.extras
                .push(metric(format!("{name}.percentile"), p.q * 100.0, "%"));
            out.extras
                .push(metric(format!("{name}.beyond"), p.beyond as f64, "count"));
        }
    }
    out.extras.push(metric(
        "failed_share",
        failed as f64 / window.len().max(1) as f64,
        "ratio",
    ));
    let cached = latencies(run, |s| {
        matches!(
            s.reply,
            Reply::Answer {
                served: Served::CacheHit,
                ..
            }
        )
    });
    if let Some(p) = supported(&cached, 0.99) {
        out.extras.push(metric("cached_p99_ms", p.value, "ms"));
        out.extras
            .push(metric("cached_p99_ms.percentile", p.q * 100.0, "%"));
        out.extras
            .push(metric("cached_p99_ms.beyond", p.beyond as f64, "count"));
    }
    if let Some(rate) = workload.rate() {
        out.extras.push(metric("offered_rps", rate, "1/s"));
        if rps < rate * (1.0 - SATURATION_SLACK) {
            out.errors.push(format!(
                "saturated: answered {rps:.1}/s of {rate:.1}/s offered"
            ));
        }
    }
    phase_counts(run, out);
}

/// Sent / answered / failed per phase.
fn phase_counts(run: &PhaseRun, out: &mut Outcome) {
    for (phase, range) in [
        ("ramp", 0..run.ramp_ns),
        ("window", run.ramp_ns..run.end_ns),
    ] {
        let sent: Vec<&Sample> = run
            .samples
            .iter()
            .filter(|s| range.contains(&s.due_ns))
            .collect();
        let answered = sent.iter().filter(|s| s.answered()).count();
        out.extras
            .push(metric(format!("{phase}.sent"), sent.len() as f64, "count"));
        out.extras.push(metric(
            format!("{phase}.answered"),
            answered as f64,
            "count",
        ));
        out.extras.push(metric(
            format!("{phase}.failed"),
            (sent.len() - answered) as f64,
            "count",
        ));
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-layer counters from an untraced phase's public stats.
fn layer_counters(run: &PhaseRun, out: &mut Outcome) {
    let s = &run.stats;
    let sv = &s.serve;
    let j = run.journal.unwrap_or_default();
    let push = |out: &mut Outcome, name: &str, v: f64, unit: &'static str| {
        out.metrics.push(metric(name, v, unit));
    };
    push(
        out,
        "net.shed",
        (s.shed_connection + s.shed_global) as f64,
        "count",
    );
    push(
        out,
        "serve.batch_size",
        ratio(sv.requests, sv.batches),
        "count",
    );
    push(out, "serve.fragment_hit_rate", sv.cache_hit_rate(), "ratio");
    push(out, "serve.stage1_hit_rate", sv.stage1_hit_rate(), "ratio");
    push(
        out,
        "serve.component_hit_rate",
        sv.component_hit_rate(),
        "ratio",
    );
    push(
        out,
        "serve.coalesced",
        (sv.batch_coalesced + sv.inflight_coalesced) as f64,
        "count",
    );
    push(
        out,
        "core.stage1_docs",
        ratio(sv.stage1.misses, sv.requests),
        "count",
    );
    push(
        out,
        "session.fork_share",
        ratio(sv.sessions.turns_forked, sv.sessions.turns_cold),
        "ratio",
    );
    push(
        out,
        "session.evictions",
        (sv.sessions.evicted_pressure + sv.sessions.evicted_ttl) as f64,
        "count",
    );
    push(out, "journal.fsyncs", j.fsyncs as f64, "count");
    push(out, "journal.snapshots", j.snapshots as f64, "count");
    push(
        out,
        "journal.bytes_per_turn",
        ratio(j.appended_bytes, j.appends),
        "B",
    );
    let lag = sorted(
        run.window_samples()
            .map(|s| ms(s.sent_ns.saturating_sub(s.ready_ns)))
            .collect(),
    );
    push(out, "client.send_lag_ms", quantile(&lag, 0.99), "ms");
}

/// Pushes the median and one upper percentile (`suffix`, `q`) of
/// microsecond samples.
fn push_pcts(out: &mut Outcome, name: &str, v: Vec<u64>, (suffix, q): (&str, f64)) {
    let v = sorted(v.into_iter().map(|us| us as f64).collect());
    out.metrics
        .push(metric(format!("{name}.p50"), quantile(&v, 0.5), "us"));
    out.metrics
        .push(metric(format!("{name}.{suffix}"), quantile(&v, q), "us"));
}

/// Per-layer timings from a traced phase.
fn layer_timings(traced: &PhaseRun, untraced: &PhaseRun, out: &mut Outcome) {
    // Every answered request takes part in matching (a ramp request's
    // root must not claim a window request); only window splits count.
    let answered: Vec<&Sample> = traced.samples.iter().filter(|s| s.answered()).collect();
    let clients: Vec<(u64, u64)> = answered
        .iter()
        // Widened by the µs rounding between the two clocks.
        .map(|s| {
            (
                traced.to_rec_us(s.sent_ns).saturating_sub(CLOCK_SLACK_US),
                traced.to_rec_us(s.done_ns) + CLOCK_SLACK_US,
            )
        })
        .collect();
    let (mut splits, _) = split_requests(&traced.records, &clients);
    splits.retain(|s| traced.in_window(answered[s.client]));
    let unmatched = answered.iter().filter(|s| traced.in_window(s)).count() - splits.len();
    let push = |out: &mut Outcome, name: &str, v: f64, unit: &'static str| {
        out.metrics.push(metric(name, v, unit));
    };
    let per_request = |f: fn(&Split) -> u64| -> Vec<u64> { splits.iter().map(f).collect() };
    push_pcts(out, "net.wire_us", per_request(|s| s.wire_us), P95);
    push_pcts(out, "net.dispatch_us", per_request(|s| s.dispatch_us), P95);
    push_pcts(
        out,
        "serve.admission_wait_us",
        per_request(|s| s.admission_us),
        P95,
    );
    let by_metric: Vec<HashMap<&str, u64>> = splits.iter().map(Split::by_metric).collect();
    for name in [
        "serve.lookup_us",
        "qa.retrieve_us",
        "qa.answer_us",
        "core.preprocess_us",
        "core.graph_us",
        "core.resolve_us",
        "core.canonicalize_us",
        "session.turn_wait_us",
    ] {
        // Over the requests whose critical path touched the layer.
        let v: Vec<u64> = by_metric
            .iter()
            .filter_map(|m| m.get(name).copied())
            .filter(|&us| us > 0)
            .collect();
        push_pcts(out, name, v, P95);
    }
    let (lo, hi) = (
        traced.to_rec_us(traced.ramp_ns),
        traced.to_rec_us(traced.end_ns),
    );
    let spans = |name: &str| -> Vec<u64> {
        traced
            .records
            .iter()
            .filter(|r| r.name == name && (lo..hi).contains(&r.start_us))
            .map(|r| r.dur_us)
            .collect()
    };
    for (metric_name, span, upper) in [
        ("session.extend_us", "session_extend", P95),
        ("session.fork_us", "session_fork", P95),
        ("session.freeze_us", "prefix_freeze", P95),
        ("journal.append_us", "journal.append", ("p99", 0.99)),
    ] {
        push_pcts(out, metric_name, spans(span), upper);
    }
    push(
        out,
        "core.resolve_components",
        ratio(
            spans("resolve_component").len() as u64,
            spans("stage1").len() as u64,
        ),
        "count",
    );

    let total: u64 = splits.iter().map(|s| s.client_us).sum();
    let mut layer_us: HashMap<&str, u64> = HashMap::new();
    for s in &splits {
        for (layer, us) in s.by_layer() {
            *layer_us.entry(layer).or_default() += us;
        }
    }
    for layer in LAYERS {
        push(
            out,
            &format!("share.{layer}"),
            ratio(layer_us.get(layer).copied().unwrap_or(0), total),
            "ratio",
        );
    }
    let unattributed: u64 = splits.iter().map(|s| s.unattributed_us).sum();
    push(
        out,
        "obs.unattributed_share",
        ratio(unattributed, total),
        "ratio",
    );
    push(out, "obs.dropped_spans", traced.dropped as f64, "count");
    // Same traffic prefix on both sides: the untraced phase's first
    // quarter against the whole traced phase.
    let quarter_end = untraced.ramp_ns + (traced.end_ns - traced.ramp_ns);
    let base: Vec<f64> = sorted(
        untraced
            .samples
            .iter()
            .filter(|s| s.answered() && (untraced.ramp_ns..quarter_end).contains(&s.due_ns))
            .map(|s| ms(s.latency_ns()))
            .collect(),
    );
    let traced_lat = latencies(traced, |_| true);
    let (b, t) = (quantile(&base, 0.5), quantile(&traced_lat, 0.5));
    push(
        out,
        "obs.trace_overhead_pct",
        if b > 0.0 { (t - b) / b * 100.0 } else { 0.0 },
        "%",
    );
    out.extras
        .push(metric("obs.split_requests", splits.len() as f64, "count"));
    out.extras
        .push(metric("obs.unmatched_requests", unmatched as f64, "count"));
    out.extras.push(metric("traced.p50_ms", t, "ms"));
    out.extras.push(metric("untraced.quarter_p50_ms", b, "ms"));
    if traced.dropped > 0 {
        out.errors.push(format!(
            "{} spans dropped from the flight recorder",
            traced.dropped
        ));
    }
}

/// Peak resident set of this process (MiB), from `/proc` where present.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs one workload. `trace` selects the per-layer mode.
pub fn run_workload(workload: Workload, seed: u64, secs: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        workload: workload.name(),
        ..Outcome::default()
    };
    if let Err(e) = run_into(workload, seed, secs, trace, &mut out) {
        out.errors.push(e);
    }
    if let Some(rss) = peak_rss_mib() {
        out.extras.push(metric("peak_rss_mib", rss, "MiB"));
    }
    out
}

fn run_into(
    workload: Workload,
    seed: u64,
    secs: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let _awake = KeepAwake::start(cores());
    let mut setups = Vec::new();
    let mut untraced: Option<PhaseRun> = None;
    for rep in 0..SETUP_REPS {
        let traced = trace && rep == SETUP_REPS - 1;
        let recorder = if traced {
            Recorder::enabled(RecorderConfig {
                ring_capacity: TRACE_RING,
                slow_threshold: None,
                ..RecorderConfig::default()
            })
        } else {
            Recorder::disabled()
        };
        let t = Instant::now();
        let env = Env::setup(workload, seed, secs, recorder, rep)?;
        setups.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            out.extras.push(metric("cores", cores() as f64, "count"));
            out.extras
                .push(metric("shards", env.shards as f64, "count"));
            out.extras
                .push(metric("client_threads", CONNS as f64, "count"));
            out.extras.push(metric(
                "questions",
                env.corpus.questions.len() as f64,
                "count",
            ));
        }
        let measured = if trace {
            SETUP_REPS - 2
        } else {
            SETUP_REPS - 1
        };
        if rep == measured {
            let run = run_phase(&env, secs)?;
            out.errors.extend(check(&env, &run.samples, seed));
            if trace {
                layer_counters(&run, out);
            }
            untraced = Some(run);
        }
        if traced {
            let run = run_phase(&env, secs / 4.0)?;
            out.errors.extend(check(&env, &run.samples, seed ^ 1));
            let base = untraced.as_ref().expect("untraced phase ran first");
            layer_timings(&run, base, out);
            phase_counts(&run, out);
            out.attempted = run.window_samples().count() as u64;
            out.failed = run.window_samples().filter(|s| !s.answered()).count() as u64;
            out.trace = Some(env.recorder.chrome_trace().to_string());
        }
        drop(env);
    }
    if !trace {
        let run = untraced.expect("measured phase ran");
        end_to_end(workload, &run, out, median(&setups));
    }
    for (i, s) in setups.iter().enumerate() {
        out.extras.push(metric(format!("setup_s.rep{i}"), *s, "s"));
    }
    Ok(())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
