//! **Serving-throughput microbench** — closed-loop clients firing a
//! Zipf-skewed query mix at `qkb-serve`, comparing the full configuration
//! (fragment cache + coalescing) against a
//! no-cache/no-coalescing baseline, plus a determinism cross-check
//! (served answers must be byte-identical to offline cold builds at any
//! shard count).
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_serve
//!       [-- --quick] [-- --clients N] [-- --distinct N] [-- --reps N]
//!       [-- --out FILE.json] [-- --trace FILE.json]`
//!
//! `--trace FILE` runs an extra short traced pass *after* the measured
//! workloads (so the recorder never touches the timed arms) and writes
//! its Chrome-trace export there — CI uploads it with the reports.
//!
//! The JSON report (default `BENCH_serve.json`) rides next to
//! `BENCH_parallel.json` in the CI bench-smoke artifacts.

use qkb_bench::{build_fixture, clone_repo, Table};
use qkb_corpus::questions::trends_test;
use qkb_qa::QaSystem;
use qkb_serve::{QkbServer, QueryRequest, ServeConfig, Served};
use qkb_util::json::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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

/// A Zipf(s = 1) sampler over ranks `0..n`: rank r has weight 1/(r+1).
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty mix");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// The offline reference path a served answer must reproduce.
fn cold_answers(sys: &QaSystem, question: &str) -> Vec<String> {
    let doc_ids = sys.retrieve_docs(question);
    let texts = sys.doc_texts(&doc_ids);
    let kb = sys.qkbfly().build_kb(&texts).kb;
    sys.answer_in_kb(question, &kb)
}

/// Runs `clients` closed-loop client threads, each issuing `reps`
/// Zipf-sampled queries; returns (wall-clock, per-request latencies).
fn run_workload(
    server: &QkbServer<Arc<QaSystem>>,
    questions: &[String],
    clients: usize,
    reps: usize,
) -> (Duration, Vec<Duration>) {
    let zipf = Zipf::new(questions.len());
    let t0 = Instant::now();
    let latencies = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for c in 0..clients {
            let client = server.client();
            let zipf = &zipf;
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC11E57 + c as u64);
                let mut lat = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let q = &questions[zipf.sample(&mut rng)];
                    let response = client.query(QueryRequest::question(q));
                    lat.push(response.latency);
                }
                lat
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    (t0.elapsed(), latencies)
}

fn percentile_ms(latencies: &mut [Duration], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
    latencies[idx].as_secs_f64() * 1000.0
}

fn main() {
    let quick = arg_flag("--quick") || std::env::var("QKB_BENCH_QUICK").as_deref() == Ok("1");
    let clients: usize = arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let distinct: usize = arg_value("--distinct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 12 } else { 32 });
    let reps: usize = arg_value("--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 6 } else { 16 });
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());

    println!("== qkb-serve throughput: cache+coalescing vs baseline ==\n");
    let fx = build_fixture();
    let mut docs = fx.wiki(if quick { 20 } else { 40 }, 91).docs;
    docs.extend(fx.news(if quick { 10 } else { 20 }, 92).docs);
    let qkb = qkbfly::Qkbfly::new(clone_repo(&fx.world), fx.patterns(), fx.stats());
    let mut sys = QaSystem::new(fx.world.clone(), docs, qkb);
    sys.top_k = if quick { 4 } else { 6 };
    let sys = Arc::new(sys);
    let questions: Vec<String> = trends_test(&fx.world, distinct, 95)
        .into_iter()
        .map(|q| q.text)
        .collect();
    println!(
        "corpus: {} docs, {} distinct questions, top-{} retrieval",
        sys.n_docs(),
        questions.len(),
        sys.top_k
    );

    // --- determinism: served == offline cold build, at 1 and 4 shards ---
    for shards in [1usize, 4] {
        let server = QkbServer::start(
            sys.clone(),
            ServeConfig {
                shards,
                ..ServeConfig::default()
            },
        );
        for q in questions.iter().take(3) {
            let expected = cold_answers(&sys, q);
            let cold = server.query(QueryRequest::question(q));
            let warm = server.query(QueryRequest::question(q));
            assert_eq!(
                cold.answers, expected,
                "served ≠ offline at {shards} shards"
            );
            assert_eq!(
                warm.answers, expected,
                "cache hit ≠ cold at {shards} shards"
            );
            assert_eq!(warm.served, Served::CacheHit);
        }
        server.shutdown();
    }
    println!("determinism: OK (served == offline cold build at 1 and 4 shards)\n");

    let shards = 4;
    // --- baseline: no cache, no coalescing (both off at capacity 0) ---
    let baseline_server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let (base_wall, mut base_lat) = run_workload(&baseline_server, &questions, clients, reps);
    let baseline_stats = baseline_server.stats();
    baseline_server.shutdown();
    assert_eq!(
        baseline_stats.inflight_coalesced, 0,
        "the cache-off baseline must not share in-flight builds"
    );

    // --- full serving configuration, warmed ---
    let served_server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards,
            cache_capacity: 64,
            ..ServeConfig::default()
        },
    );
    for q in &questions {
        let _ = served_server.query(QueryRequest::question(q)); // warm the cache
    }
    let (serve_wall, mut serve_lat) = run_workload(&served_server, &questions, clients, reps);
    let served_stats = served_server.stats();
    served_server.shutdown();

    let n_requests = (clients * reps) as f64;
    let base_rps = n_requests / base_wall.as_secs_f64();
    let serve_rps = n_requests / serve_wall.as_secs_f64();
    let speedup = serve_rps / base_rps;

    let mut table = Table::new(["Config", "Req/s", "p50", "p95", "Cache hit rate"]);
    table.row([
        "baseline (no cache/coalesce)".to_string(),
        format!("{base_rps:.1}"),
        format!("{:.1} ms", percentile_ms(&mut base_lat, 0.50)),
        format!("{:.1} ms", percentile_ms(&mut base_lat, 0.95)),
        "—".to_string(),
    ]);
    table.row([
        "cache + coalesce".to_string(),
        format!("{serve_rps:.1}"),
        format!("{:.1} ms", percentile_ms(&mut serve_lat, 0.50)),
        format!("{:.1} ms", percentile_ms(&mut serve_lat, 0.95)),
        format!("{:.0}%", served_stats.cache_hit_rate() * 100.0),
    ]);
    table.print();
    println!("\nwarm-cache speedup over baseline at {clients} closed-loop clients: {speedup:.2}x");

    let report = Value::object()
        .with("bench", "serve")
        .with("quick", quick)
        .with("clients", clients)
        .with("reps_per_client", reps)
        .with("distinct_questions", distinct)
        .with("shards", shards)
        .with("baseline_rps", base_rps)
        .with("served_rps", serve_rps)
        .with("speedup", speedup)
        .with("baseline_p50_ms", percentile_ms(&mut base_lat, 0.50))
        .with("baseline_p95_ms", percentile_ms(&mut base_lat, 0.95))
        .with("served_p50_ms", percentile_ms(&mut serve_lat, 0.50))
        .with("served_p95_ms", percentile_ms(&mut serve_lat, 0.95))
        .with("determinism", "ok")
        .with("baseline_stats", baseline_stats.to_json())
        .with("served_stats", served_stats.to_json());
    std::fs::write(&out_path, report.to_string()).expect("write bench report");
    println!("report written to {out_path}");

    // Optional traced pass, after (and isolated from) the timed arms:
    // a fresh server with a flight recorder serves each question once
    // cold and once warm, and the span trees land in --trace FILE.
    if let Some(trace_path) = arg_value("--trace") {
        let recorder = qkb_obs::Recorder::flight();
        let traced_server = QkbServer::start(
            sys.clone(),
            ServeConfig {
                shards,
                cache_capacity: 64,
                recorder: recorder.clone(),
                ..ServeConfig::default()
            },
        );
        for q in questions.iter().take(4).chain(questions.first()) {
            let _ = traced_server.query(QueryRequest::question(q));
        }
        traced_server.shutdown();
        let records = recorder.records();
        if let Some(dir) = std::path::Path::new(&trace_path).parent() {
            std::fs::create_dir_all(dir).expect("trace output dir");
        }
        std::fs::write(&trace_path, qkb_obs::chrome_trace(&records).to_string())
            .expect("write trace");
        println!(
            "traced pass: {} spans ({} dropped) -> {trace_path}",
            records.len(),
            recorder.dropped()
        );
    }

    assert!(
        speedup >= 2.0,
        "fragment cache + coalescing must yield ≥2x over the baseline, got {speedup:.2}x"
    );
}
