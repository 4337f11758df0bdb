//! **Incremental-construction microbench** — overlap-heavy warm traffic
//! against the two-tier cache (per-document stage-1 LRU + fragment LRU)
//! versus the PR 2 fragment-only cache.
//!
//! Workload: every query is *distinct* and retrieves a Zipf-skewed
//! subset of a shared document pool, so the fragment cache (exact
//! retrieved-set reuse) almost never hits, while the retrieved sets
//! overlap heavily document-by-document. The fragment-only baseline
//! re-pays stage 1 (preprocess + graph + NED/CR, the dominant cost) for
//! every document of every query; the two-tier configuration assembles
//! each fragment from memoized stage-1 artifacts and re-pays only the
//! cheap canonicalize phase. The report asserts a ≥2× throughput win,
//! plus the byte-identity of assembled answers with offline cold builds.
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_incremental
//!       [-- --quick] [-- --clients N] [-- --queries N] [-- --out FILE.json]`
//!
//! The JSON report (default `BENCH_incremental.json`) rides next to
//! `BENCH_parallel.json` / `BENCH_serve.json` in the CI bench-smoke
//! artifacts.

use qkb_bench::{build_fixture, clone_repo, Table};
use qkb_qa::QaSystem;
use qkb_serve::{QkbServer, QueryEngine, QueryRequest, ServeConfig};
use qkb_util::json::Value;
use qkbfly::Qkbfly;
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

/// An engine whose retrieval returns precomputed, Zipf-overlapping
/// document subsets: query `q<i>` maps to `sets[i]`. Build and answer
/// paths delegate to the real `QaSystem`, so fragments and answers are
/// exactly what production serving would produce for those documents.
struct OverlapEngine {
    sys: Arc<QaSystem>,
    sets: Vec<Vec<usize>>,
}

impl OverlapEngine {
    /// `n_sets` subsets of `k` distinct documents each, drawn from a
    /// `pool`-sized prefix of the corpus with Zipf(s=1) popularity —
    /// hot documents appear in most sets, cold ones in few.
    fn new(sys: Arc<QaSystem>, n_sets: usize, pool: usize, k: usize, seed: u64) -> Self {
        let pool = pool.min(sys.n_docs());
        let k = k.min(pool);
        let weights: Vec<f64> = (0..pool).map(|r| 1.0 / (r + 1) as f64).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let sets = (0..n_sets)
            .map(|_| {
                let mut set: Vec<usize> = Vec::with_capacity(k);
                while set.len() < k {
                    let mut u = rng.gen_range(0.0..weights.iter().sum::<f64>());
                    let mut pick = pool - 1;
                    for (d, w) in weights.iter().enumerate() {
                        if u < *w {
                            pick = d;
                            break;
                        }
                        u -= *w;
                    }
                    if !set.contains(&pick) {
                        set.push(pick);
                    }
                }
                set
            })
            .collect();
        Self { sys, sets }
    }

    fn query_index(text: &str) -> usize {
        text.trim_start_matches('q').parse().expect("q<i> query")
    }
}

impl QueryEngine for OverlapEngine {
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

/// Issues queries `lo..hi` (each exactly once — every request is a
/// fragment-cache miss) across `clients` closed-loop threads.
fn run_distinct_queries(
    server: &QkbServer<Arc<OverlapEngine>>,
    lo: usize,
    hi: usize,
    clients: usize,
) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let client = server.client();
            scope.spawn(move || {
                for i in (lo..hi).skip(c).step_by(clients) {
                    let _ = client.query(QueryRequest::question(format!("q{i}")));
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
        .unwrap_or(4);
    let queries: usize = arg_value("--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 24 } else { 64 });
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_incremental.json".to_string());

    println!("== incremental fragment construction: two-tier vs fragment-only cache ==\n");
    let fx = build_fixture();
    let pool = if quick { 12 } else { 24 };
    let per_query = if quick { 4 } else { 6 };
    // Concatenate generated articles into paper-sized documents: stage 1
    // (preprocess + graph + NED/CR) must dominate the per-query cost the
    // way it does on real news text, so the bench measures the pipeline,
    // not the miniature corpus generator's answer overhead.
    let concat = 4;
    let wiki = fx.wiki(pool * concat, 71).docs;
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
    // Warm-up queries (0..queries) and measured queries (queries..2*queries)
    // draw from the same Zipf pool, so measured sets overlap warmed ones.
    let engine = Arc::new(OverlapEngine::new(
        sys.clone(),
        2 * queries,
        pool,
        per_query,
        0x1C4E,
    ));
    println!(
        "corpus pool: {pool} docs, {} distinct queries x {per_query} docs each (Zipf overlap)",
        2 * queries
    );

    // --- determinism: an assembled fragment answers exactly like an
    // offline cold build over the same documents ---
    {
        let server = QkbServer::start(
            engine.clone(),
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
        );
        for i in [0usize, 1, 2] {
            let warm = server.query(QueryRequest::question(format!("q{i}")));
            let texts = sys.doc_texts(&engine.sets[i]);
            let expected = sys.answer_in_kb(&format!("q{i}"), &sys.qkbfly().build_kb(&texts).kb);
            assert_eq!(warm.answers, expected, "assembled ≠ offline cold build");
        }
        server.shutdown();
        println!("determinism: OK (assembled == offline cold build)\n");
    }

    let configs = [
        ("fragment-only (PR 2)", 0u64),
        ("two-tier (stage-1 + fragment)", 256 << 20),
    ];
    let mut walls = Vec::new();
    let mut stats_json = Vec::new();
    let mut table = Table::new(["Config", "Req/s", "Stage-1 hit rate", "Assembled", "Cold"]);
    for (name, stage1_bytes) in configs {
        let server = QkbServer::start(
            engine.clone(),
            ServeConfig {
                shards: 2,
                cache_capacity: 2 * queries,
                stage1_cache_bytes: stage1_bytes,
                ..ServeConfig::default()
            },
        );
        // Warm phase: distinct queries covering the pool populate the
        // stage-1 cache (two-tier) or just the useless exact-set
        // fragment cache (baseline).
        let _ = run_distinct_queries(&server, 0, queries, clients);
        // Measured phase: fresh distinct queries — all fragment misses.
        let wall = run_distinct_queries(&server, queries, 2 * queries, clients);
        let stats = server.stats();
        server.shutdown();
        let rps = queries as f64 / wall.as_secs_f64();
        table.row([
            name.to_string(),
            format!("{rps:.1}"),
            format!("{:.0}%", stats.stage1_hit_rate() * 100.0),
            format!("{}", stats.assembled_builds),
            format!("{}", stats.cold_builds),
        ]);
        walls.push(wall);
        stats_json.push(stats.to_json());
    }
    table.print();

    let speedup = walls[0].as_secs_f64() / walls[1].as_secs_f64();
    println!("\nwarm overlap-traffic speedup of the two-tier cache: {speedup:.2}x");

    let report = Value::object()
        .with("bench", "incremental")
        .with("quick", quick)
        .with("clients", clients)
        .with("distinct_queries", queries)
        .with("doc_pool", pool)
        .with("docs_per_query", per_query)
        .with("baseline_wall_s", walls[0].as_secs_f64())
        .with("twotier_wall_s", walls[1].as_secs_f64())
        .with("baseline_rps", queries as f64 / walls[0].as_secs_f64())
        .with("twotier_rps", queries as f64 / walls[1].as_secs_f64())
        .with("speedup", speedup)
        .with("determinism", "ok")
        .with("baseline_stats", stats_json.remove(0))
        .with("twotier_stats", stats_json.remove(0));
    std::fs::write(&out_path, report.to_string()).expect("write bench report");
    println!("report written to {out_path}");

    assert!(
        speedup >= 2.0,
        "two-tier cache must yield ≥2x over fragment-only on overlap-heavy warm traffic, \
         got {speedup:.2}x"
    );
}
