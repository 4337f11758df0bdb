//! Observability contracts of the serving path:
//!
//! 1. **trace export** — a served request with tracing enabled produces
//!    Chrome-trace JSON whose span tree (reconstructed from the parsed
//!    export alone) contains the admission wait, the per-stage build
//!    spans, per-component resolve spans, and the cache-outcome lookup
//!    span, all correctly nested under the request root;
//! 2. **one exposition** — every counter and gauge of the `ServeStats`
//!    JSON, and every net and journal value of the `NetStats` JSON, is
//!    exactly one Prometheus series with the same value, and every
//!    series line of the network tier's text follows a `# TYPE` line;
//! 3. **reset audit** — `QkbServer::reset_stats` zeroes every counter and
//!    histogram of the one registry — request path, both cache
//!    tiers, the session store and the forest — while every occupancy
//!    gauge keeps its value and resident state survives, and
//!    `QkbNetServer::reset_stats` does the same with the net and journal
//!    counters in that registry too.

use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_net::{JournalConfig, NetClient, NetConfig, QkbNetServer};
use qkb_obs::Recorder;
use qkb_qa::QaSystem;
use qkb_serve::{QkbServer, QueryRequest, ServeConfig, Served};
use qkb_util::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small but real engine: generated world, BM25 corpus, QKBfly system.
fn engine() -> QaSystem {
    let world = Arc::new(World::generate(WorldConfig::default()));
    let mut docs = qkb_corpus::docgen::wiki_corpus(&world, 12, 3).docs;
    docs.extend(qkb_corpus::docgen::news_corpus(&world, 8, 4).docs);
    let bg = qkb_corpus::background::background_corpus(&world, 10, 5);
    let stats = qkb_corpus::background::build_stats(&world, &bg);
    let mut repo = qkb_kb::EntityRepository::new();
    for e in world.repo.iter() {
        let aliases: Vec<&str> = e.aliases.iter().map(String::as_str).collect();
        repo.add_entity(&e.canonical, &aliases, e.gender, e.types.clone());
    }
    let mut patterns = qkb_kb::PatternRepository::standard();
    qkb_corpus::render::extend_patterns(&mut patterns);
    let qkb = qkbfly::Qkbfly::new(repo, patterns, stats);
    let mut sys = QaSystem::new(world, docs, qkb);
    sys.top_k = 4;
    sys
}

fn question(sys: &QaSystem) -> String {
    trends_test(sys.world(), 1, 13).remove(0).text
}

/// A one-shot miss and hit, then a cold, a forked and an extended
/// session turn: traffic that moves every tier. Returns the one-shot
/// question.
fn drive_every_tier(server: &QkbServer<Arc<QaSystem>>, sys: &QaSystem) -> String {
    let qs: Vec<String> = trends_test(sys.world(), 2, 13)
        .into_iter()
        .map(|q| q.text)
        .collect();
    let ask = |q: &str| server.query(QueryRequest::question(q)).served;
    assert_eq!(ask(&qs[0]), Served::ColdBuild);
    assert_eq!(ask(&qs[0]), Served::CacheHit);
    let turn = |id: &str, q: &str| {
        server
            .query_in_session(id, QueryRequest::question(q))
            .served
    };
    assert_eq!(turn("alice", &qs[0]), Served::SessionCold);
    assert_eq!(turn("bob", &qs[0]), Served::SessionForked);
    assert_eq!(turn("alice", &qs[1]), Served::SessionExtended);
    qs[0].clone()
}

/// One span event decoded back out of the exported JSON.
#[derive(Debug)]
struct Event {
    name: String,
    id: u64,
    parent: u64,
    trace: u64,
    start: u64,
    end: u64,
    instant: bool,
    args: Value,
}

fn decode_events(doc: &Value) -> Vec<Event> {
    doc.get("traceEvents")
        .expect("traceEvents key")
        .as_array()
        .expect("traceEvents array")
        .iter()
        .map(|e| {
            let num = |v: &Value, k: &str| {
                v.get(k)
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("numeric {k} in {e:?}")) as u64
            };
            let args = e.get("args").expect("args").clone();
            let instant = e.get("ph").and_then(Value::as_str) == Some("i");
            let start = num(e, "ts");
            let dur = if instant { 0 } else { num(e, "dur") };
            Event {
                name: e
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                id: num(&args, "id"),
                parent: num(&args, "parent"),
                trace: num(&args, "trace"),
                start,
                end: start + dur,
                instant,
                args,
            }
        })
        .collect()
}

/// Ids of every span in `events` reachable from (and including) `root`.
fn descendants(events: &[Event], root: u64) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::new();
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        for (i, e) in events.iter().enumerate() {
            if (e.id == id || e.parent == id) && !out.contains(&i) {
                out.push(i);
                if e.id != id {
                    frontier.push(e.id);
                }
            }
        }
    }
    out
}

#[test]
fn traced_request_exports_a_well_formed_span_tree() {
    let sys = Arc::new(engine());
    let q = question(&sys);
    let recorder = Recorder::flight();
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            recorder: recorder.clone(),
            ..ServeConfig::default()
        },
    );
    let cold = server.query(QueryRequest::question(&q));
    assert_eq!(cold.served, Served::ColdBuild);
    let warm = server.query(QueryRequest::question(&q));
    assert_eq!(warm.served, Served::CacheHit);
    server.shutdown();

    // Everything below is asserted against the re-parsed JSON export,
    // not the in-memory records.
    let exported = recorder.chrome_trace().to_string();
    let parsed = Value::parse(&exported).expect("chrome trace parses back");
    let events = decode_events(&parsed);
    assert!(!events.is_empty());

    // Nesting is correct across the whole export: every non-root event's
    // parent exists, shares its trace id, and contains its interval.
    for e in &events {
        if e.parent == 0 {
            continue;
        }
        let parent = events
            .iter()
            .find(|p| p.id == e.parent)
            .unwrap_or_else(|| panic!("orphan parent for {e:?}"));
        assert_eq!(e.trace, parent.trace, "trace bleed: {e:?} under {parent:?}");
        assert!(e.start >= parent.start, "{e:?} starts before {parent:?}");
        if !e.instant {
            assert!(e.end <= parent.end, "{e:?} outlives {parent:?}");
        }
    }

    // Two request roots: the cold build and the cache hit.
    let roots: Vec<&Event> = events
        .iter()
        .filter(|e| e.name == "request" && e.parent == 0)
        .collect();
    assert_eq!(roots.len(), 2, "one root per served request");
    let served_of = |root: &Event| {
        root.args
            .get("served")
            .and_then(Value::as_str)
            .expect("served field on the request root")
            .to_string()
    };
    let cold_root = roots
        .iter()
        .find(|r| served_of(r) == "ColdBuild")
        .expect("cold request root");
    let warm_root = roots
        .iter()
        .find(|r| served_of(r) == "CacheHit")
        .expect("warm request root");

    // The cold request's tree walks the whole pipeline: admission wait,
    // cache-outcome lookup, fragment build with the core build inside it
    // (per-doc stage 1 with its per-stage children, per-component
    // resolve, the fold into the fragment KB), and the answer phase.
    let tree = descendants(&events, cold_root.id);
    let names: Vec<&str> = tree.iter().map(|&i| events[i].name.as_str()).collect();
    for expected in [
        "admission_wait",
        "fragment_lookup",
        "solo_build",
        "extend_kb",
        "stage1_doc",
        "stage1",
        "preprocess",
        "graph",
        "resolve",
        "resolve_component",
        "answer",
    ] {
        assert!(
            names.contains(&expected),
            "cold request tree must contain {expected:?}, got {names:?}"
        );
    }
    assert!(
        names.contains(&"canonicalize"),
        "cold request tree must contain a canonicalize-stage span: {names:?}"
    );
    let lookup = tree
        .iter()
        .map(|&i| &events[i])
        .find(|e| e.name == "fragment_lookup")
        .expect("lookup span");
    assert_eq!(
        lookup.args.get("outcome").and_then(Value::as_str),
        Some("lead_build"),
        "the cold query leads its own build"
    );
    let stage1_doc = tree
        .iter()
        .map(|&i| &events[i])
        .find(|e| e.name == "stage1_doc")
        .expect("per-doc stage-1 span");
    assert_eq!(
        stage1_doc.args.get("cache").and_then(Value::as_str),
        Some("miss"),
        "first sight of every document is a stage-1 miss"
    );
    // Every per-component resolve span under the request root names its
    // component and its mention count.
    let resolve_components: Vec<&Event> = tree
        .iter()
        .map(|&i| &events[i])
        .filter(|e| e.name == "resolve_component")
        .collect();
    assert!(!resolve_components.is_empty());
    for rc in &resolve_components {
        for field in ["component", "mentions"] {
            assert!(
                rc.args.get(field).and_then(Value::as_f64).is_some(),
                "resolve_component must report {field:?}, got {:?}",
                rc.args
            );
        }
    }

    // The warm request never builds: its lookup reports the fragment
    // cache hit and no build spans hang under it.
    let tree = descendants(&events, warm_root.id);
    let warm_events: Vec<&Event> = tree.iter().map(|&i| &events[i]).collect();
    let lookup = warm_events
        .iter()
        .find(|e| e.name == "fragment_lookup")
        .expect("warm lookup span");
    assert_eq!(
        lookup.args.get("outcome").and_then(Value::as_str),
        Some("cache_hit")
    );
    assert_eq!(
        lookup.args.get("tier").and_then(Value::as_str),
        Some("fragment")
    );
    assert!(
        warm_events.iter().all(|e| e.name != "solo_build"),
        "a cache hit must not build"
    );
    assert!(warm_events.iter().any(|e| e.name == "answer"));
}

/// Session turns trace too: the turn span nests the session-extend and
/// core streaming spans under the request root.
#[test]
fn traced_session_turn_nests_the_streaming_build() {
    let sys = Arc::new(engine());
    let q = question(&sys);
    let recorder = Recorder::flight();
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            recorder: recorder.clone(),
            ..ServeConfig::default()
        },
    );
    let turn = server.query_in_session("alice", QueryRequest::question(&q));
    assert_eq!(turn.served, Served::SessionCold);
    server.shutdown();

    let parsed = Value::parse(&recorder.chrome_trace().to_string()).expect("parses");
    let events = decode_events(&parsed);
    let root = events
        .iter()
        .find(|e| e.name == "request" && e.parent == 0)
        .expect("request root");
    let tree = descendants(&events, root.id);
    let names: Vec<&str> = tree.iter().map(|&i| events[i].name.as_str()).collect();
    for expected in [
        "admission_wait",
        "session_turn",
        "session_extend",
        "stream_into_kb",
    ] {
        assert!(
            names.contains(&expected),
            "session tree must contain {expected:?}, got {names:?}"
        );
    }
    let turn_span = tree
        .iter()
        .map(|&i| &events[i])
        .find(|e| e.name == "session_turn")
        .expect("turn span");
    assert_eq!(
        turn_span.args.get("session").and_then(Value::as_str),
        Some("alice")
    );
}

/// The prefix forest traces and meters: a cold opening emits a
/// `prefix_freeze` span, a second session with the same opening emits a
/// `session_fork` span carrying the **same** layer fingerprint, and the
/// forest gauges show up in the Prometheus text exposition.
#[test]
fn forked_sessions_trace_the_freeze_and_fork_with_matching_fingerprints() {
    let sys = Arc::new(engine());
    let q = question(&sys);
    let recorder = Recorder::flight();
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            recorder: recorder.clone(),
            ..ServeConfig::default()
        },
    );
    let alice = server.query_in_session("alice", QueryRequest::question(&q));
    assert_eq!(alice.served, Served::SessionCold);
    let bob = server.query_in_session("bob", QueryRequest::question(&q));
    assert_eq!(bob.served, Served::SessionForked);

    // Metrics: the fork counters live in the registry, the occupancy
    // gauges come from the live forest. One fork moves exactly two
    // counters: the live turn it served and the forest's fork.
    let snap = server.registry_snapshot();
    let forks: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.contains("fork"))
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    assert_eq!(
        forks,
        [
            ("serve_forest_forks_total", 1),
            ("serve_session_turns_forked_total", 1)
        ]
    );
    let text = server.metrics_text();
    assert!(text.contains("serve_forest_forks_total 1"));
    assert!(text.contains("serve_forest_freezes_total 1"));
    assert!(text.contains("serve_forest_frozen_layers 1"));
    assert!(!text.contains("serve_forest_shared_bytes 0\n"));
    assert!(text.contains("serve_forest_layer_refs"));
    let stats = server.stats();
    assert_eq!(stats.sessions.forest.forks, 1);
    assert_eq!(stats.sessions.forest.frozen_layers, 1);
    assert!(stats.sessions.forest.shared_bytes > 0);
    assert_eq!(
        stats.sessions.forest.layer_refs, 2,
        "both live sessions hold the shared layer"
    );
    server.shutdown();

    // Traces: freeze under Alice's turn, fork under Bob's, one
    // fingerprint.
    let parsed = Value::parse(&recorder.chrome_trace().to_string()).expect("parses");
    let events = decode_events(&parsed);
    let span_of = |name: &str| -> &Event {
        events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing {name} span"))
    };
    let freeze = span_of("prefix_freeze");
    let fork = span_of("session_fork");
    let prefix_of = |e: &Event| {
        e.args
            .get("prefix")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("prefix field on {:?}", e.name))
    };
    assert_eq!(
        prefix_of(freeze),
        prefix_of(fork),
        "the fork must name the fingerprint the freeze registered"
    );
    assert!(freeze.args.get("bytes").and_then(Value::as_f64).unwrap() > 0.0);
    assert_eq!(fork.args.get("layers").and_then(Value::as_f64), Some(1.0));
    // Each hangs under its own session turn.
    let turn_of = |spine: &Event| {
        events
            .iter()
            .find(|e| e.id == spine.parent)
            .map(|e| e.name.as_str())
            .unwrap_or("?")
    };
    assert_eq!(turn_of(freeze), "session_turn");
    assert_eq!(turn_of(fork), "session_turn");
}

/// `reset_stats` is one audited call: every counter and histogram of
/// the one registry reads zero afterwards — the request path, both
/// cache tiers, the session store and the forest — while every
/// occupancy gauge keeps its value and resident state (cached
/// fragments, live sessions) survives.
#[test]
fn reset_stats_zeroes_the_registry_and_every_counter_tier() {
    let sys = Arc::new(engine());
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let q = drive_every_tier(&server, &sys);
    let busy = server.registry_snapshot();
    for name in [
        "serve_requests_total",
        "serve_fragment_cache_hits_total",
        "serve_fragment_cache_misses_total",
        "serve_stage1_cache_misses_total",
        "serve_session_created_total",
        "serve_session_turns_cold_total",
        "serve_session_turns_extended_total",
        "serve_session_docs_merged_total",
        "serve_forest_forks_total",
        "serve_forest_freezes_total",
    ] {
        assert!(busy.expect_counter(name) > 0, "traffic must reach {name}");
    }
    assert_eq!(busy.expect_counter("serve_requests_total"), 5);

    server.reset_stats();
    let reset = server.registry_snapshot();
    for (name, v) in &reset.counters {
        assert_eq!(*v, 0, "reset must zero {name}");
    }
    for (name, h) in &reset.histograms {
        assert_eq!(h.count, 0, "reset must zero {name}");
    }
    assert_eq!(
        reset.gauges, busy.gauges,
        "occupancy is read from the stores and survives the reset"
    );
    assert!(reset.expect_gauge("serve_stage1_cache_entries") > 0);
    assert_eq!(reset.expect_gauge("serve_session_live"), 2);
    let stats = server.stats();
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.latency_samples, 0);
    assert_eq!(stats.cache.hits + stats.cache.misses, 0);
    assert_eq!(
        (
            stats.stage1.hits,
            stats.stage1.misses,
            stats.stage1.evictions
        ),
        (0, 0, 0),
        "reset must zero the stage-1 cache counters"
    );
    assert!(
        stats.stage1.entries > 0,
        "reset must not evict cached stage-1 artifacts"
    );
    assert_eq!(stats.sessions.turns(), 0);
    assert_eq!(stats.to_json()["latency_samples"], 0u64);
    // Resident state survives: the repeat still hits, the session still
    // extends, and the registry fills back up from the same handles.
    let warm = server.query(QueryRequest::question(&q));
    assert_eq!(warm.served, Served::CacheHit);
    let turn = server.query_in_session("alice", QueryRequest::question(&q));
    assert_eq!(turn.served, Served::SessionExtended);
    let snap = server.registry_snapshot();
    assert_eq!(snap.counter("serve_requests_total"), Some(2));
    server.shutdown();
}

/// The Prometheus series of each counter and gauge in the
/// `ServeStats` JSON, keyed by JSON path. Ratios and rates, `elapsed_s`,
/// `build_timings.total_us` and the latency-ring fields are derived or
/// windowed values, not series, and are exempt.
const SERIES: &[(&str, &str)] = &[
    ("requests", "serve_requests_total"),
    ("cache_hits", "serve_fragment_cache_hits_total"),
    ("cache_misses", "serve_fragment_cache_misses_total"),
    ("cache_evictions", "serve_fragment_cache_evictions_total"),
    ("cache_entries", "serve_fragment_cache_entries"),
    ("stage1_hits", "serve_stage1_cache_hits_total"),
    ("stage1_misses", "serve_stage1_cache_misses_total"),
    ("stage1_evictions", "serve_stage1_cache_evictions_total"),
    ("stage1_entries", "serve_stage1_cache_entries"),
    ("stage1_bytes", "serve_stage1_cache_bytes"),
    ("stage1_capacity_bytes", "serve_stage1_cache_capacity_bytes"),
    ("sessions.live", "serve_session_live"),
    ("sessions.approx_bytes", "serve_session_bytes"),
    ("sessions.capacity_bytes", "serve_session_capacity_bytes"),
    ("sessions.created", "serve_session_created_total"),
    ("sessions.evicted_ttl", "serve_session_evicted_ttl_total"),
    (
        "sessions.evicted_pressure",
        "serve_session_evicted_pressure_total",
    ),
    ("sessions.turns_cold", "serve_session_turns_cold_total"),
    (
        "sessions.turns_extended",
        "serve_session_turns_extended_total",
    ),
    ("sessions.turns_forked", "serve_session_turns_forked_total"),
    ("sessions.docs_merged", "serve_session_docs_merged_total"),
    ("sessions.docs_deduped", "serve_session_docs_deduped_total"),
    ("sessions.forest_forks", "serve_forest_forks_total"),
    ("sessions.forest_freezes", "serve_forest_freezes_total"),
    ("sessions.forest_evicted", "serve_forest_evicted_total"),
    (
        "sessions.forest_frozen_layers",
        "serve_forest_frozen_layers",
    ),
    ("sessions.forest_shared_bytes", "serve_forest_shared_bytes"),
    ("sessions.forest_layer_refs", "serve_forest_layer_refs"),
    ("request_panics", "serve_request_panics_total"),
    ("cold_builds", "serve_cold_builds_total"),
    ("assembled_builds", "serve_assembled_builds_total"),
    ("docs_built", "serve_docs_built_total"),
    ("inflight_coalesced", "serve_inflight_coalesced_total"),
    (
        "build_timings.preprocess_us",
        "serve_build_preprocess_us_total",
    ),
    ("build_timings.graph_us", "serve_build_graph_us_total"),
    ("build_timings.resolve_us", "serve_build_resolve_us_total"),
    (
        "build_timings.canonicalize_us",
        "serve_build_canonicalize_us_total",
    ),
    (
        "resolve_counters.components",
        "serve_resolve_components_total",
    ),
    (
        "resolve_counters.ilp_variables",
        "serve_ilp_variables_total",
    ),
    ("resolve_counters.bnb_nodes", "serve_bnb_nodes_total"),
    (
        "resolve_counters.pruned_candidates",
        "serve_pruned_candidates_total",
    ),
];

const EXEMPT: &[&str] = &[
    "elapsed_s",
    "throughput_rps",
    "latency_p50_ms",
    "latency_p95_ms",
    "latency_mean_ms",
    "latency_samples",
    "latency_samples_dropped",
    "cache_hit_rate",
    "stage1_hit_rate",
    "sessions.dedup_rate",
    "build_timings.total_us",
];

/// Names the serve tier has exported since before its counters moved
/// into one registry: none may disappear.
const EXPORTED_BEFORE: &[&str] = &[
    "serve_requests_total",
    "serve_cold_builds_total",
    "serve_assembled_builds_total",
    "serve_docs_built_total",
    "serve_inflight_coalesced_total",
    "serve_build_preprocess_us_total",
    "serve_build_graph_us_total",
    "serve_build_resolve_us_total",
    "serve_build_canonicalize_us_total",
    "serve_resolve_components_total",
    "serve_ilp_variables_total",
    "serve_bnb_nodes_total",
    "serve_pruned_candidates_total",
    "serve_forest_forks_total",
    "serve_request_latency_us",
    "serve_forest_freezes_total",
    "serve_forest_evicted_total",
    "serve_forest_frozen_layers",
    "serve_forest_shared_bytes",
    "serve_forest_layer_refs",
];

/// Numeric leaves of a JSON object, keyed by dotted path.
fn json_leaves(v: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let Value::Object(fields) = v else {
        panic!("object expected at {prefix:?}");
    };
    for (key, value) in fields {
        let path = if prefix.is_empty() {
            key.clone()
        } else {
            format!("{prefix}.{key}")
        };
        match value {
            Value::Object(_) => json_leaves(value, &path, out),
            other => {
                let n = other
                    .as_f64()
                    .unwrap_or_else(|| panic!("numeric {path}: {other:?}"));
                out.insert(path, n);
            }
        }
    }
}

/// Unlabelled series of a Prometheus text, with how often each appears.
fn series(text: &str) -> BTreeMap<&str, (f64, usize)> {
    let mut out: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("series line");
        if name.contains('{') {
            continue;
        }
        let entry = out.entry(name).or_insert((0.0, 0));
        *entry = (value.parse().expect("numeric series value"), entry.1 + 1);
    }
    out
}

#[test]
fn every_stats_value_is_exactly_one_prometheus_series() {
    let sys = Arc::new(engine());
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    drive_every_tier(&server, &sys);
    // One snapshot behind both renderings, so no traffic in between.
    let stats = server.stats();
    let text = server.metrics_text();
    server.shutdown();

    let mut json = BTreeMap::new();
    json_leaves(&stats.to_json(), "", &mut json);
    let mapped: BTreeMap<&str, &str> = SERIES.iter().copied().collect();
    assert_eq!(mapped.len(), SERIES.len(), "one entry per JSON path");
    let counted: Vec<&str> = json
        .keys()
        .map(String::as_str)
        .filter(|k| !EXEMPT.contains(k))
        .collect();
    assert_eq!(
        counted,
        mapped.keys().copied().collect::<Vec<_>>(),
        "every counter and gauge in the JSON has a series, and no other"
    );
    let mut names: Vec<&str> = mapped.values().copied().collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), SERIES.len(), "no series stands for two values");

    let exposed = series(&text);
    let mut wrong = Vec::new();
    for (path, name) in SERIES {
        let value = json[*path];
        match exposed.get(name) {
            Some(&(v, 1)) if v == value => {}
            got => wrong.push(format!("{path} = {value}: {name} -> {got:?}")),
        }
    }
    assert!(
        wrong.is_empty(),
        "{} values without their one series:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    assert!(
        stats.sessions.turns_forked == 1 && stats.cache.hits == 1,
        "the traffic reached every tier: {stats:?}"
    );
    for name in EXPORTED_BEFORE {
        assert!(
            text.contains(&format!("# TYPE {name} ")),
            "{name} is no longer exported"
        );
    }
}

/// A fresh journal directory for one test.
fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qkb_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A one-shard network server journaling into `dir`, on a fresh config
/// (and so a fresh registry).
fn net_server(sys: &Arc<QaSystem>, dir: &Path) -> QkbNetServer<Arc<QaSystem>> {
    let mut journal = JournalConfig::new(dir);
    journal.fsync = false;
    QkbNetServer::start(
        sys.clone(),
        NetConfig {
            journal: Some(journal),
            serve: ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("net server starts")
}

/// A one-shot query and a turn of session `session` over the wire, then
/// waits until every frame read has its reply counted as written. That
/// count moves after the reply is on the wire, the final step of a
/// request, so no counter moves afterwards.
fn drive_the_wire(server: &QkbNetServer<Arc<QaSystem>>, q: &str, session: &str) {
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    client.query(QueryRequest::question(q)).expect("query");
    client
        .query_in_session(session, QueryRequest::question(q))
        .expect("session turn");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.frames_written >= stats.frames_read {
            break;
        }
        assert!(Instant::now() < deadline, "requests never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The series kind of each name in a Prometheus text, from its `# TYPE`
/// lines.
fn kinds(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|decl| decl.split_once(' ').expect("# TYPE name kind"))
        .collect()
}

/// The series of each net and journal value in the `NetStats` JSON,
/// keyed by JSON path. `serve.*` is `SERIES`' business.
const NET_SERIES: &[(&str, &str)] = &[
    ("connections_accepted", "net_connections_accepted_total"),
    ("connections_rejected", "net_connections_rejected_total"),
    ("frames_read", "net_frames_read_total"),
    ("frames_written", "net_frames_written_total"),
    ("frame_errors", "net_frame_errors_total"),
    ("requests", "net_requests_total"),
    ("shed_connection", "net_shed_connection_total"),
    ("shed_global", "net_shed_global_total"),
    ("queue_depth", "net_queue_depth"),
    ("queue_depth_peak", "net_queue_depth_peak"),
    ("replayed_turns", "net_replayed_turns_total"),
    ("replay_dropped_records", "net_replay_dropped_records_total"),
    ("journal.appends", "journal_appends_total"),
    ("journal.appended_bytes", "journal_appended_bytes_total"),
    ("journal.fsyncs", "journal_fsyncs_total"),
    ("journal.snapshots", "journal_snapshots_total"),
    ("journal.snapshot_records", "journal_snapshot_records_total"),
    ("journal.torn_tails", "journal_torn_tails_total"),
    (
        "journal.recovered_records",
        "journal_recovered_records_total",
    ),
    ("journal.io_errors", "journal_io_errors_total"),
];

#[test]
fn every_net_stats_value_is_exactly_one_prometheus_series() {
    let sys = Arc::new(engine());
    let q = question(&sys);
    let dir = journal_dir("net_series");
    // Two lives, so the restarted server has replayed a journaled turn.
    drive_the_wire(&net_server(&sys, &dir), &q, "s");
    let server = net_server(&sys, &dir);
    drive_the_wire(&server, &q, "s");
    let stats = server.stats();
    let text = server.metrics_text();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    let mut json = BTreeMap::new();
    json_leaves(&stats.to_json(), "", &mut json);
    let mapped: BTreeMap<&str, &str> = NET_SERIES.iter().copied().collect();
    let net_paths: Vec<&str> = json
        .keys()
        .map(String::as_str)
        .filter(|k| !k.starts_with("serve."))
        .collect();
    assert_eq!(
        net_paths,
        mapped.keys().copied().collect::<Vec<_>>(),
        "every net and journal value in the JSON has a series, and no other"
    );
    let exposed = series(&text);
    let mut wrong = Vec::new();
    for (path, name) in NET_SERIES {
        let value = json[*path];
        match exposed.get(name) {
            Some(&(v, 1)) if v == value => {}
            got => wrong.push(format!("{path} = {value}: {name} -> {got:?}")),
        }
    }
    assert!(
        wrong.is_empty(),
        "{} values without their one series:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    for (path, v) in [
        ("replayed_turns", 1.0),
        ("journal.recovered_records", 1.0),
        ("journal.appends", 1.0),
        ("requests", 2.0),
        ("queue_depth_peak", 1.0),
    ] {
        assert_eq!(json[path], v, "the traffic reached {path}");
    }
    let repeated: Vec<_> = exposed.iter().filter(|(_, &(_, n))| n != 1).collect();
    assert!(repeated.is_empty(), "series exported twice: {repeated:?}");
    let declared = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(declared, kinds(&text).len(), "a name declared twice");
}

/// `QkbNetServer::reset_stats` is the one registry's reset: every serve,
/// net and journal counter and histogram reads zero afterwards, the
/// queue depth reads the live depth (none in flight), and every
/// occupancy gauge keeps its value.
#[test]
fn net_reset_zeroes_exactly_the_counters() {
    let sys = Arc::new(engine());
    let q = question(&sys);
    let dir = journal_dir("net_reset");
    let server = net_server(&sys, &dir);
    drive_the_wire(&server, &q, "s");
    let busy_text = server.metrics_text();
    server.reset_stats();
    let text = server.metrics_text();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    let (busy, after) = (series(&busy_text), series(&text));
    let declared = kinds(&text);
    assert_eq!(declared, kinds(&busy_text), "the reset keeps every series");
    for name in [
        "serve_requests_total",
        "net_requests_total",
        "journal_appends_total",
        "serve_request_latency_us_count",
        "serve_session_live",
        "net_queue_depth_peak",
    ] {
        assert!(busy[name].0 > 0.0, "traffic must reach {name}");
    }
    for prefix in ["serve_", "net_", "journal_"] {
        assert!(
            declared
                .iter()
                .any(|(n, k)| n.starts_with(prefix) && *k == "counter"),
            "{prefix}* counters are in the one exposition"
        );
    }
    for (name, kind) in &declared {
        match *kind {
            "counter" => assert_eq!(after[name].0, 0.0, "reset must zero {name}"),
            "histogram" => {
                for part in ["count", "sum"] {
                    let series = format!("{name}_{part}");
                    assert_eq!(after[series.as_str()].0, 0.0, "reset must zero {series}");
                }
            }
            "gauge" if name.starts_with("net_queue_depth") => {
                assert_eq!(after[name].0, 0.0, "{name} reads the idle depth")
            }
            "gauge" => assert_eq!(after[name].0, busy[name].0, "occupancy {name} survives"),
            other => panic!("{name} has unknown kind {other}"),
        }
    }
}

#[test]
fn every_network_tier_series_follows_its_type_line() {
    let sys = Arc::new(engine());
    let dir = journal_dir("types");
    let server = net_server(&sys, &dir);
    drive_the_wire(&server, &question(&sys), "s");
    let text = server.metrics_text();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    for name in [
        "serve_requests_total",
        "net_requests_total",
        "journal_appends_total",
    ] {
        assert!(text.contains(&format!("# TYPE {name} counter")), "{name}");
    }
    let mut typed: Option<(&str, &str)> = None;
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').expect("# TYPE name kind");
            typed = Some((name, kind));
            continue;
        }
        let name = line.split([' ', '{']).next().expect("series name");
        let (declared, kind) = typed.unwrap_or_else(|| panic!("untyped series: {line}"));
        let ok = match kind {
            "histogram" => ["_bucket", "_sum", "_count"]
                .iter()
                .any(|suffix| name.strip_suffix(suffix) == Some(declared)),
            _ => name == declared,
        };
        assert!(
            ok,
            "{line:?} does not follow its # TYPE line ({declared} {kind})"
        );
    }
}
