//! The serving front-end in action: a sharded `qkb-serve` server over a
//! generated news/wiki corpus, showing cold builds, fragment-cache hits,
//! request coalescing across concurrent clients, and the stats snapshot.
//!
//! Run: `cargo run --release --example serve_demo`

use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_qa::QaSystem;
use qkb_serve::{QkbServer, QueryRequest, ServeConfig};
use std::sync::Arc;

fn main() {
    // --- load the knowledge system (one-time, shared by all shards) ---
    let world = Arc::new(World::generate(WorldConfig::default()));
    let mut docs = qkb_corpus::docgen::wiki_corpus(&world, 20, 31).docs;
    docs.extend(qkb_corpus::docgen::news_corpus(&world, 10, 32).docs);
    let bg = qkb_corpus::background::background_corpus(&world, 15, 5);
    let stats = qkb_corpus::background::build_stats(&world, &bg);
    let mut repo = qkb_kb::EntityRepository::new();
    for e in world.repo.iter() {
        let aliases: Vec<&str> = e.aliases.iter().map(String::as_str).collect();
        repo.add_entity(&e.canonical, &aliases, e.gender, e.types.clone());
    }
    let mut patterns = qkb_kb::PatternRepository::standard();
    qkb_corpus::render::extend_patterns(&mut patterns);
    let qkb = qkbfly::Qkbfly::new(repo, patterns, stats);
    let system = QaSystem::new(world.clone(), docs, qkb);

    // --- start the server: 2 shards, small fragment cache ---
    let server = QkbServer::start(
        system,
        ServeConfig {
            shards: 2,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    println!("server up: 2 shards, 16-fragment cache\n");

    // --- a few questions, with a repeat to show the cache ---
    let questions: Vec<String> = trends_test(&world, 3, 35)
        .into_iter()
        .map(|q| q.text)
        .collect();
    for q in questions.iter().chain(questions.first()) {
        let r = server.query(QueryRequest::question(q));
        println!(
            "Q: {q}\nA: {} [{:?}, {} docs, {} facts, {:.0} ms]\n",
            if r.answers.is_empty() {
                "(no answer)".to_string()
            } else {
                r.answers.join("; ")
            },
            r.served,
            r.n_docs,
            r.n_facts,
            r.latency.as_secs_f64() * 1000.0
        );
    }

    // --- concurrent identical queries coalesce onto one build ---
    let hot = questions[1].clone();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let client = server.client();
            let hot = hot.clone();
            scope.spawn(move || client.query(QueryRequest::question(&hot)));
        }
    });

    // --- an entity-seed query returns the fragment's facts ---
    let seed = world.entity(world.facts[0].subject).canonical.clone();
    let r = server.query(QueryRequest::entity(&seed));
    println!("facts about {seed}:");
    for fact in r.answers.iter().take(5) {
        println!("  {fact}");
    }

    // --- the snapshot the ops dashboard would scrape ---
    let s = server.stats();
    println!(
        "\nstats: {} requests, {:.1} req/s, p50 {:.0} ms, p95 {:.0} ms",
        s.requests, s.throughput_rps, s.latency_p50_ms, s.latency_p95_ms
    );
    println!(
        "fragment cache: {} hits / {} misses / {} evictions (hit rate {:.0}%)",
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache_hit_rate() * 100.0
    );
    println!(
        "stage-1 cache:  {} hits / {} misses, {} artifacts ~{} KiB (hit rate {:.0}%) — \
         overlapping queries reuse per-document work",
        s.stage1.hits,
        s.stage1.misses,
        s.stage1.entries,
        s.stage1.approx_bytes / 1024,
        s.stage1_hit_rate() * 100.0
    );
    println!(
        "builds: {} cold + {} assembled, {} docs; coalesced: {} in-flight",
        s.cold_builds, s.assembled_builds, s.docs_built, s.inflight_coalesced
    );
    server.shutdown();
}
