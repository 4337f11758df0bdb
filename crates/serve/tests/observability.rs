//! Observability contracts of the serving path:
//!
//! 1. **trace export** — a served request with tracing enabled produces
//!    Chrome-trace JSON whose span tree (reconstructed from the parsed
//!    export alone) contains the admission wait, the per-stage build
//!    spans, per-component resolve spans, and the cache-outcome lookup
//!    span, all correctly nested under the request root;
//! 2. **reset audit** — `QkbServer::reset_stats` zeroes the metrics
//!    registry, both cache tiers and the session store in one call
//!    (all-zero snapshots afterwards), without touching resident state.

use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_obs::Recorder;
use qkb_qa::QaSystem;
use qkb_serve::{QkbServer, QueryRequest, ServeConfig, Served};
use qkb_util::json::Value;
use std::sync::Arc;

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
            batch_max: 1,
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
    // cache-outcome lookup, grouped build with the core build inside it
    // (per-doc stage 1 with its per-stage children, per-component
    // resolve, the fold into the fragment KB), and the answer phase.
    let tree = descendants(&events, cold_root.id);
    let names: Vec<&str> = tree.iter().map(|&i| events[i].name.as_str()).collect();
    for expected in [
        "admission_wait",
        "fragment_lookup",
        "grouped_build",
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
    // Every per-component resolve span under the request root reports
    // its component-cache outcome; with the tier enabled (the default)
    // that is hit or miss, never bypass, and a cold server must miss at
    // least once.
    let resolve_components: Vec<&Event> = tree
        .iter()
        .map(|&i| &events[i])
        .filter(|e| e.name == "resolve_component")
        .collect();
    assert!(!resolve_components.is_empty());
    for rc in &resolve_components {
        let cache = rc.args.get("cache").and_then(Value::as_str);
        assert!(
            matches!(cache, Some("hit") | Some("miss")),
            "resolve_component must report a cache outcome, got {:?}",
            rc.args
        );
    }
    assert!(
        resolve_components
            .iter()
            .any(|rc| rc.args.get("cache").and_then(Value::as_str) == Some("miss")),
        "a cold build must miss the component cache at least once"
    );

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
        warm_events.iter().all(|e| e.name != "grouped_build"),
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

    // Metrics: the fork counter lives in the registry, the occupancy
    // gauges come from the live forest.
    let snap = server.registry_snapshot();
    assert_eq!(snap.counter("serve_forest_forks_total"), Some(1));
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

/// `reset_stats` is one audited call: the metrics registry, both cache
/// tiers and the session store all read zero afterwards, while resident
/// state (cached fragments, live sessions) survives.
#[test]
fn reset_stats_zeroes_the_registry_and_every_counter_tier() {
    let sys = Arc::new(engine());
    let q = question(&sys);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            batch_max: 1,
            ..ServeConfig::default()
        },
    );
    let _ = server.query(QueryRequest::question(&q));
    let _ = server.query(QueryRequest::question(&q));
    let _ = server.query_in_session("s", QueryRequest::question(&q));
    let busy = server.registry_snapshot();
    assert!(!busy.is_zero(), "traffic must reach the registry");
    assert_eq!(busy.counter("serve_requests_total"), Some(3));
    let text = server.metrics_text();
    assert!(text.contains("serve_requests_total 3"));
    let busy_stats = server.stats();
    assert!(
        busy_stats.component.hits + busy_stats.component.misses > 0,
        "builds must reach the component resolve cache"
    );
    assert!(text.contains("serve_component_cache_hits_total"));
    assert!(text.contains("serve_component_cache_bytes"));

    server.reset_stats();
    assert!(
        server.registry_snapshot().is_zero(),
        "reset must zero every registry cell"
    );
    let stats = server.stats();
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.latency_samples, 0);
    assert_eq!(stats.cache.hits + stats.cache.misses, 0);
    assert_eq!(stats.stage1.hits + stats.stage1.misses, 0);
    assert_eq!(
        stats.component.hits + stats.component.misses + stats.component.evictions,
        0,
        "reset must zero the component-cache counters"
    );
    assert!(
        stats.component.entries > 0,
        "reset must not evict cached components"
    );
    assert_eq!(stats.sessions.turns(), 0);
    assert_eq!(stats.to_json()["latency_samples"], 0u64);
    // Resident state survives: the repeat still hits, the session still
    // extends, and the registry fills back up from the same handles.
    let warm = server.query(QueryRequest::question(&q));
    assert_eq!(warm.served, Served::CacheHit);
    let turn = server.query_in_session("s", QueryRequest::question(&q));
    assert_eq!(turn.served, Served::SessionExtended);
    let snap = server.registry_snapshot();
    assert_eq!(snap.counter("serve_requests_total"), Some(2));
    server.shutdown();
}
