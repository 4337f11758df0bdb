//! **Prefix-forest microbench** — many concurrent sessions whose opening
//! document sets follow a Zipf distribution over a small topic pool, the
//! shape of real interactive traffic (a few hot stories, a long tail).
//!
//! With the forest *off*, every session cold-builds its opening topic
//! privately: N sessions over T topics hold up to N full copies of T
//! distinct KBs, and every opening pays stage 1 from scratch. With the
//! forest *on*, the first session per topic freezes its opening prefix
//! into the process-wide registry and every later session with the same
//! opening forks it — the layers are `Arc`-shared (resident once) and
//! the fork itself is O(1), so warm-up latency collapses to the fork
//! plus answering.
//!
//! The report asserts a ≥2× resident-bytes reduction and a ≥2× warm-up
//! speedup on forked openings, and checks answers are byte-identical
//! across the two configurations.
//!
//! Both configurations run with the fragment and stage-1 caches off, so
//! the measured gap is prefix sharing itself, not cache interplay.
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_forest
//!       [-- --quick] [-- --out FILE.json]`
//!
//! The JSON report (default `BENCH_forest.json`) rides next to the other
//! reports in the CI bench-smoke artifacts.

use qkb_bench::{build_fixture, clone_repo, Table};
use qkb_qa::QaSystem;
use qkb_serve::{
    QkbServer, QueryEngine, QueryRequest, ServeConfig, ServeStats, Served, SessionConfig,
};
use qkb_util::json::Value;
use qkbfly::Qkbfly;
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

/// An engine whose retrieval returns precomputed document sets:
/// `open-<t>` maps to topic `t`'s window (shared by every session on
/// that topic), `delta-<s>` to session `s`'s private follow-up
/// document. Build and answer paths delegate to the real [`QaSystem`].
struct TopicEngine {
    sys: Arc<QaSystem>,
    topics: Vec<Vec<usize>>,
    deltas: Vec<Vec<usize>>,
}

impl QueryEngine for TopicEngine {
    fn qkbfly(&self) -> &Qkbfly {
        self.sys.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        let (kind, index) = request.text.split_once('-').expect("open-<t> | delta-<s>");
        let index: usize = index.parse().expect("numeric suffix");
        match kind {
            "open" => self.topics[index].clone(),
            "delta" => self.deltas[index].clone(),
            other => panic!("unknown bench query kind `{other}`"),
        }
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

/// Zipf(1) topic assignment: topic `t` gets a share ∝ `1/(t+1)` of the
/// sessions, remainders going to the hottest topics, and the resulting
/// run-length blocks are interleaved by a coprime stride so same-topic
/// sessions do not arrive back-to-back.
fn zipf_assignment(sessions: usize, topics: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..topics).map(|t| 1.0 / (t + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|w| (sessions as f64 * w / total) as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let mut t = 0;
    while assigned < sessions {
        counts[t % topics] += 1;
        assigned += 1;
        t += 1;
    }
    let blocks: Vec<usize> = (0..topics).flat_map(|t| vec![t; counts[t]]).collect();
    let stride = (3..sessions).find(|s| gcd(*s, sessions) == 1).unwrap_or(1);
    (0..sessions)
        .map(|s| blocks[s * stride % sessions])
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

struct ConfigRun {
    open_latencies: Vec<(Served, Duration)>,
    answers: Vec<Vec<String>>,
    resident_bytes: u64,
    stats: ServeStats,
}

/// Opens all `sessions` (timed, one closed loop — latency, not
/// throughput, is the headline), then plays each session's private
/// delta turn, then snapshots resident bytes: owned session KBs plus
/// the forest's shared layers, counted once. A zero `forest_bytes`
/// turns the forest off.
fn run_config(engine: &Arc<TopicEngine>, assignment: &[usize], forest_bytes: u64) -> ConfigRun {
    let server = QkbServer::start(
        engine.clone(),
        ServeConfig {
            shards: 2,
            cache_capacity: 0,
            stage1_cache_bytes: 0,
            session: SessionConfig {
                forest_bytes,
                ..SessionConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let mut open_latencies = Vec::with_capacity(assignment.len());
    let mut answers = Vec::with_capacity(assignment.len());
    for (s, &topic) in assignment.iter().enumerate() {
        let t0 = Instant::now();
        let response = server.query_in_session(
            &format!("session-{s}"),
            QueryRequest::question(format!("open-{topic}")),
        );
        open_latencies.push((response.served, t0.elapsed()));
        answers.push(response.answers);
    }
    for s in 0..assignment.len() {
        let response = server.query_in_session(
            &format!("session-{s}"),
            QueryRequest::question(format!("delta-{s}")),
        );
        answers.push(response.answers);
    }
    let stats: ServeStats = server.stats();
    let resident_bytes = stats.sessions.approx_bytes + stats.sessions.forest.shared_bytes;
    server.shutdown();
    ConfigRun {
        open_latencies,
        answers,
        resident_bytes,
        stats,
    }
}

fn mean_ms(latencies: &[Duration]) -> f64 {
    latencies.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / latencies.len().max(1) as f64
}

fn main() {
    let quick = arg_flag("--quick") || std::env::var("QKB_BENCH_QUICK").as_deref() == Ok("1");
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_forest.json".to_string());
    let sessions = if quick { 32 } else { 48 };
    let topics = 5usize;
    let docs_per_topic = if quick { 8 } else { 10 };

    println!("== prefix forest: shared immutable KB prefixes across sessions ==\n");
    let fx = build_fixture();
    // Concatenate generated articles into paper-sized documents so
    // stage 1 dominates the opening cost, as it does on real news text.
    let concat = 2;
    let n_docs = topics * docs_per_topic + sessions;
    let wiki = fx.wiki(n_docs * concat, 151).docs;
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
    let delta_base = topics * docs_per_topic;
    let engine = Arc::new(TopicEngine {
        sys,
        topics: (0..topics)
            .map(|t| (t * docs_per_topic..(t + 1) * docs_per_topic).collect())
            .collect(),
        deltas: (0..sessions).map(|s| vec![delta_base + s]).collect(),
    });

    let assignment = zipf_assignment(sessions, topics);
    let mut shares: Vec<usize> = vec![0; topics];
    for &t in &assignment {
        shares[t] += 1;
    }
    println!(
        "{sessions} sessions over {topics} topics ({docs_per_topic} docs each), \
         Zipf shares {shares:?}, one private delta doc per session\n"
    );

    let off = run_config(&engine, &assignment, 0);
    let on = run_config(&engine, &assignment, SessionConfig::default().forest_bytes);

    // --- determinism: forked sessions answer byte-identically to the
    // private rebuilds of the forest-off run, opening and delta turns ---
    assert_eq!(
        off.answers, on.answers,
        "forest-on answers diverged from forest-off private builds"
    );
    println!("determinism: OK (forest-on answers == forest-off private builds)\n");

    let off_opens: Vec<Duration> = off.open_latencies.iter().map(|&(_, d)| d).collect();
    let forked: Vec<Duration> = on
        .open_latencies
        .iter()
        .filter(|(served, _)| *served == Served::SessionForked)
        .map(|&(_, d)| d)
        .collect();
    assert!(
        off.open_latencies
            .iter()
            .all(|(served, _)| *served == Served::SessionCold),
        "forest-off openings must all be cold builds"
    );
    assert_eq!(
        forked.len(),
        sessions - topics,
        "with the forest on, every opening after the first per topic must fork"
    );

    let off_open_ms = mean_ms(&off_opens);
    let fork_open_ms = mean_ms(&forked);
    let warmup_speedup = off_open_ms / fork_open_ms;
    let bytes_reduction = off.resident_bytes as f64 / on.resident_bytes as f64;

    let mut table = Table::new([
        "Config",
        "Open ms (mean)",
        "Resident MiB",
        "Forked",
        "Shared MiB",
    ]);
    for (name, run, open_ms) in [
        ("forest off", &off, off_open_ms),
        ("forest on", &on, fork_open_ms),
    ] {
        table.row([
            name.to_string(),
            format!("{open_ms:.2}"),
            format!("{:.2}", run.resident_bytes as f64 / (1 << 20) as f64),
            format!("{}", run.stats.sessions.turns_forked),
            format!(
                "{:.2}",
                run.stats.sessions.forest.shared_bytes as f64 / (1 << 20) as f64
            ),
        ]);
    }
    table.print();
    println!(
        "\nresident-bytes reduction: {bytes_reduction:.2}x, \
         forked warm-up speedup: {warmup_speedup:.2}x"
    );

    let report = Value::object()
        .with("bench", "forest")
        .with("quick", quick)
        .with("sessions", sessions)
        .with("topics", topics)
        .with("docs_per_topic", docs_per_topic)
        .with(
            "zipf_shares",
            Value::array(shares.iter().map(|&s| Value::from(s)).collect::<Vec<_>>()),
        )
        .with("off_resident_bytes", off.resident_bytes)
        .with("on_resident_bytes", on.resident_bytes)
        .with("bytes_reduction", bytes_reduction)
        .with("off_open_ms_mean", off_open_ms)
        .with("forked_open_ms_mean", fork_open_ms)
        .with("warmup_speedup", warmup_speedup)
        .with("forked", on.stats.sessions.turns_forked)
        .with("determinism", "ok")
        .with("off_stats", off.stats.to_json())
        .with("on_stats", on.stats.to_json());
    std::fs::write(&out_path, report.to_string()).expect("write bench report");
    println!("report written to {out_path}");

    assert!(
        bytes_reduction >= 2.0,
        "the prefix forest must cut resident session bytes ≥2x on Zipf-shared \
         openings, got {bytes_reduction:.2}x"
    );
    assert!(
        warmup_speedup >= 2.0,
        "forked openings must warm up ≥2x faster than private cold builds, \
         got {warmup_speedup:.2}x"
    );
}
