//! **Session-streaming microbench** — the paper's interactive-exploration
//! scenario (§6) as a multi-turn workload: each client session issues a
//! *drifting* sequence of queries whose retrieved sets overlap heavily
//! turn over turn.
//!
//! Per-query isolated serving (the baseline) rebuilds a KB fragment from
//! scratch every turn, re-paying stage 1 (preprocess + graph + NED/CR,
//! the dominant cost) for every document of every turn. Session
//! streaming (`query_in_session`) keeps one growing KB per session and
//! extends it incrementally — a warm turn pays stage 1 only for the one
//! or two documents that drifted in. The report asserts a ≥2× throughput
//! win on warm turns, plus the byte-identity of session answers with
//! offline cold builds of the accumulated union.
//!
//! Both configurations run with the fragment and stage-1 caches *off*,
//! so the measured gap is the session streaming itself, not cache
//! interplay (`bench_incremental` measures the caches).
//!
//! Phase accounting uses `QkbServer::reset_stats` at the warm-up/measure
//! boundary — phase stats are read directly, never hand-subtracted.
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_session
//!       [-- --quick] [-- --clients N] [-- --out FILE.json]`
//!
//! The JSON report (default `BENCH_session.json`) rides next to the
//! other reports in the CI bench-smoke artifacts.

use qkb_bench::{build_fixture, clone_repo, Table};
use qkb_qa::QaSystem;
use qkb_serve::{QkbServer, QueryEngine, QueryRequest, ServeConfig, ServeStats};
use qkb_util::json::Value;
use qkbfly::{ComputeStage1, Qkbfly};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// An engine whose retrieval returns precomputed drifting windows:
/// query `q<i>` (with `i = session * turns + turn`) maps to `sets[i]`,
/// a window over the document pool that slides by one document per
/// turn — consecutive turns of one session overlap in all but one
/// document. Build and answer paths delegate to the real `QaSystem`.
struct DriftEngine {
    sys: Arc<QaSystem>,
    sets: Vec<Vec<usize>>,
}

impl DriftEngine {
    fn new(sys: Arc<QaSystem>, sessions: usize, turns: usize, pool: usize, k: usize) -> Self {
        let pool = pool.min(sys.n_docs());
        let k = k.min(pool);
        let mut sets = Vec::with_capacity(sessions * turns);
        for s in 0..sessions {
            // Sessions start at spread-out offsets so cross-session
            // overlap stays incidental; each turn slides the window.
            let base = s * pool / sessions.max(1);
            for t in 0..turns {
                sets.push((0..k).map(|j| (base + t + j) % pool).collect());
            }
        }
        Self { sys, sets }
    }

    fn query_index(text: &str) -> usize {
        text.trim_start_matches('q').parse().expect("q<i> query")
    }
}

impl QueryEngine for DriftEngine {
    fn qkbfly(&self) -> &Qkbfly {
        self.sys.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        self.sets[Self::query_index(&request.text)].clone()
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        self.sys.doc_texts(doc_ids)
    }

    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        self.sys.doc_fingerprint(doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &qkb_kb::OnTheFlyKb) -> Vec<String> {
        self.sys.answer_in_kb(&request.text, kb)
    }
}

/// Plays query turns `lo..hi` of every session across `clients`
/// closed-loop threads; each thread owns a disjoint set of sessions and
/// plays their turns in order (turn order matters — it is the session's
/// history). `in_session` switches between the streaming path and the
/// isolated per-query baseline.
fn run_turns(
    server: &QkbServer<Arc<DriftEngine>>,
    sessions: usize,
    turns: usize,
    lo: usize,
    hi: usize,
    clients: usize,
    in_session: bool,
) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = server.client();
            scope.spawn(move || {
                for s in (0..sessions).skip(c).step_by(clients) {
                    for t in lo..hi {
                        let request = QueryRequest::question(format!("q{}", s * turns + t));
                        let _ = if in_session {
                            client.query_in_session(&format!("session-{s}"), request)
                        } else {
                            client.query(request)
                        };
                    }
                }
            });
        }
    });
    t0.elapsed()
}

fn main() {
    let quick = arg_flag("--quick") || std::env::var("QKB_BENCH_QUICK").as_deref() == Ok("1");
    let clients: usize = arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_session.json".to_string());
    let sessions = if quick { 6 } else { 8 };
    let turns = if quick { 4 } else { 6 };
    let per_query = if quick { 4 } else { 5 };
    let pool = if quick { 16 } else { 24 };

    println!("== session-scoped streaming KB vs per-query isolated builds ==\n");
    let fx = build_fixture();
    // Concatenate generated articles into paper-sized documents so stage 1
    // dominates the per-turn cost, as it does on real news text.
    let concat = 3;
    let wiki = fx.wiki(pool * concat, 97).docs;
    let docs: Vec<qkb_corpus::GoldDoc> = wiki
        .chunks(concat)
        .map(|chunk| {
            let mut doc = chunk[0].clone();
            doc.text = chunk
                .iter()
                .map(|d| d.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            doc
        })
        .collect();
    let qkb = Qkbfly::new(clone_repo(&fx.world), fx.patterns(), fx.stats());
    let sys = Arc::new(QaSystem::new(fx.world.clone(), docs, qkb));
    let engine = Arc::new(DriftEngine::new(
        sys.clone(),
        sessions,
        turns,
        pool,
        per_query,
    ));
    println!(
        "{sessions} sessions x {turns} turns, {per_query}-doc windows drifting over a \
         {pool}-doc pool (warm turns share {} docs with their predecessor)",
        per_query - 1
    );

    // Caches off in both configurations: the measured gap is session
    // streaming itself, not fragment/stage-1 cache reuse.
    let config = || ServeConfig {
        shards: 2,
        cache_capacity: 0,
        stage1_cache_bytes: 0,
        ..ServeConfig::default()
    };

    // --- determinism: every session answer equals answering over an
    // offline cold build of the documents accumulated so far ---
    {
        let server = QkbServer::start(engine.clone(), config());
        let mut union: Vec<String> = Vec::new();
        for t in 0..turns.min(3) {
            let response =
                server.query_in_session("probe", QueryRequest::question(format!("q{t}")));
            for text in sys.doc_texts(&engine.sets[t]) {
                if !union.contains(&text) {
                    union.push(text);
                }
            }
            let expected = sys.answer_in_kb(&format!("q{t}"), &sys.qkbfly().build_kb(&union).kb);
            assert_eq!(
                response.answers, expected,
                "session turn {t} ≠ offline cold union build"
            );
        }
        server.shutdown();
        println!("determinism: OK (session answers == offline cold union builds)\n");
    }

    let mut walls: Vec<Duration> = Vec::new();
    let mut stats_json: Vec<Value> = Vec::new();
    let mut table = Table::new(["Config", "Warm req/s", "Docs built", "Deduped", "Extends"]);
    let warm_requests = sessions * (turns - 1);
    for (name, in_session) in [
        ("isolated per-query builds", false),
        ("session streaming", true),
    ] {
        let server = QkbServer::start(engine.clone(), config());
        // Turn 0 of every session: cold in both configurations.
        let _ = run_turns(&server, sessions, turns, 0, 1, clients, in_session);
        // Phase boundary: warm-turn stats are read directly.
        server.reset_stats();
        let wall = run_turns(&server, sessions, turns, 1, turns, clients, in_session);
        let stats: ServeStats = server.stats();
        server.shutdown();
        let rps = warm_requests as f64 / wall.as_secs_f64();
        let (deduped, extends) = (stats.sessions.docs_deduped, stats.sessions.turns_extended);
        table.row([
            name.to_string(),
            format!("{rps:.1}"),
            format!("{}", stats.docs_built + stats.sessions.docs_merged),
            format!("{deduped}"),
            format!("{extends}"),
        ]);
        walls.push(wall);
        stats_json.push(stats.to_json());
    }
    table.print();

    let speedup = walls[0].as_secs_f64() / walls[1].as_secs_f64();
    println!("\nwarm-turn speedup of session streaming: {speedup:.2}x");

    // --- per-turn answer latency vs KB size: the indexed probe must stay
    // flat while the session KB grows ≥10x; the pre-index full scan (the
    // bug this series pins) grows with the fact store ---
    let series_turns = if quick { 41 } else { 61 };
    let series_k = 4usize;
    let series_pool = series_turns - 1 + series_k;
    println!(
        "\n== per-turn answer latency vs session-KB size ({series_turns} turns, \
         {series_k}-doc window drifting over {series_pool} docs) =="
    );
    // The first window holds real-world (wiki) documents the probe
    // questions retrieve from; the drift then streams in *fiction-domain*
    // (wikia) documents whose entity space is disjoint — the session
    // accumulates knowledge unrelated to the probes, which is exactly
    // when per-turn answer cost must not scale with |KB|.
    let mut series_wiki = fx.wiki(series_k * concat, 131).docs;
    series_wiki.extend(fx.wikia((series_pool - series_k) * concat, 137).docs);
    let series_docs: Vec<qkb_corpus::GoldDoc> = series_wiki
        .chunks(concat)
        .map(|chunk| {
            let mut doc = chunk[0].clone();
            doc.text = chunk
                .iter()
                .map(|d| d.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            doc
        })
        .collect();
    let series_sys = QaSystem::new(fx.world.clone(), series_docs, sys.qkbfly().clone());
    // A fixed probe set of real questions, asked after every turn so the
    // per-turn numbers compare like with like. Their retrievals target
    // the early pool, which stays resident from turn 1.
    let probe_questions: Vec<String> = qkb_corpus::questions::trends_test(&fx.world, 6, 17)
        .into_iter()
        .map(|q| q.text)
        .collect();
    let reps = 9usize;
    let time_probe = |answer: &dyn Fn(&str)| -> f64 {
        // One untimed warmup pass, then min over repetitions of the
        // whole probe set: robust to scheduler noise and cold caches
        // without hiding real growth.
        for q in &probe_questions {
            answer(q);
        }
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                for q in &probe_questions {
                    answer(q);
                }
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min)
    };
    let mut kb = qkb_kb::OnTheFlyKb::new();
    let mut series = Vec::new();
    let (mut first_bytes, mut first_indexed, mut first_scan) = (0u64, 0.0f64, 0.0f64);
    for t in 0..series_turns {
        let window: Vec<usize> = (0..series_k).map(|j| t + j).collect();
        series_sys.extend_kb_for_docs_with(&ComputeStage1, &mut kb, &window);
        let indexed_us = time_probe(&|q| {
            let _ = series_sys.answer_in_kb(q, &kb);
        });
        let scan_us = time_probe(&|q| {
            let _ = series_sys.answer_in_kb_scan(q, &kb);
        });
        if t == 0 {
            (first_bytes, first_indexed, first_scan) = (kb.approx_bytes(), indexed_us, scan_us);
        }
        series.push(
            Value::object()
                .with("turn", t + 1)
                .with("docs", kb.n_docs())
                .with("facts", kb.n_facts())
                .with("kb_bytes", kb.approx_bytes())
                .with("indexed_us", indexed_us)
                .with("scan_us", scan_us),
        );
    }
    let (last_bytes, last_indexed, last_scan) = (
        kb.approx_bytes(),
        series.last().expect("turns")["indexed_us"]
            .as_f64()
            .expect("f64"),
        series.last().expect("turns")["scan_us"]
            .as_f64()
            .expect("f64"),
    );
    let growth = last_bytes as f64 / first_bytes as f64;
    let indexed_ratio = last_indexed / first_indexed;
    let scan_ratio = last_scan / first_scan;
    println!(
        "KB grew {growth:.1}x ({} -> {} docs); per-turn answer latency: \
         indexed {first_indexed:.0}us -> {last_indexed:.0}us ({indexed_ratio:.2}x), \
         scan {first_scan:.0}us -> {last_scan:.0}us ({scan_ratio:.2}x)",
        series_k, series_pool
    );

    let report = Value::object()
        .with("bench", "session")
        .with("quick", quick)
        .with("clients", clients)
        .with("sessions", sessions)
        .with("turns", turns)
        .with("docs_per_query", per_query)
        .with("doc_pool", pool)
        .with("warm_requests", warm_requests)
        .with("isolated_wall_s", walls[0].as_secs_f64())
        .with("session_wall_s", walls[1].as_secs_f64())
        .with(
            "isolated_rps",
            warm_requests as f64 / walls[0].as_secs_f64(),
        )
        .with("session_rps", warm_requests as f64 / walls[1].as_secs_f64())
        .with("speedup", speedup)
        .with("determinism", "ok")
        .with("isolated_stats", stats_json.remove(0))
        .with("session_stats", stats_json.remove(0))
        .with(
            "latency_vs_size",
            Value::object()
                .with("turns", series_turns)
                .with("window_docs", series_k)
                .with("doc_pool", series_pool)
                .with("probe_questions", probe_questions.len())
                .with("kb_growth", growth)
                .with("indexed_ratio", indexed_ratio)
                .with("scan_ratio", scan_ratio)
                .with("series", Value::array(series)),
        );
    std::fs::write(&out_path, report.to_string()).expect("write bench report");
    println!("report written to {out_path}");

    assert!(
        speedup >= 2.0,
        "session streaming must yield ≥2x over per-query isolated builds on warm \
         multi-turn traffic, got {speedup:.2}x"
    );
    assert!(
        growth >= 10.0,
        "the latency series must grow the session KB ≥10x, got {growth:.1}x"
    );
    assert!(
        indexed_ratio <= 1.5,
        "indexed per-turn answer latency must stay flat (≤1.5x turn-1) as the \
         session KB grows {growth:.1}x, got {indexed_ratio:.2}x"
    );
    assert!(
        scan_ratio >= 2.0,
        "the pre-index scan path should degrade with KB size (the bug this \
         series pins); got only {scan_ratio:.2}x on a {growth:.1}x KB"
    );
}
