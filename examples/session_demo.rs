//! Interactive exploration over a session-scoped streaming KB (§6): one
//! client session issues follow-up questions, and every turn's retrieved
//! documents stream into the same growing KB — already-seen documents
//! are deduplicated, entity ids stay stable, and answers come from
//! everything accumulated so far.
//!
//! Run: `cargo run --release --example session_demo`

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

    let server = QkbServer::start(
        system,
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    );
    println!("server up: 2 shards, session store enabled\n");

    // --- one exploration session: four follow-up questions ---
    let questions: Vec<String> = trends_test(&world, 4, 35)
        .into_iter()
        .map(|q| q.text)
        .collect();
    let mut last_docs = 0;
    let mut last_facts = 0;
    for (turn, q) in questions.iter().enumerate() {
        let r = server.query_in_session("explorer", QueryRequest::question(q));
        println!(
            "turn {turn} [{:?}]\n  Q: {q}\n  A: {}\n  session KB: {} docs (+{}), {} facts (+{}) \
             [{:.0} ms]\n",
            r.served,
            if r.answers.is_empty() {
                "(no answer)".to_string()
            } else {
                r.answers.join("; ")
            },
            r.n_docs,
            r.n_docs - last_docs,
            r.n_facts,
            r.n_facts - last_facts,
            r.latency.as_secs_f64() * 1000.0
        );
        last_docs = r.n_docs;
        last_facts = r.n_facts;
    }

    // --- a second session stays isolated but shares the stage-1 cache ---
    let r = server.query_in_session("other", QueryRequest::question(&questions[0]));
    println!(
        "second session starts cold [{:?}]: {} docs, {} facts\n",
        r.served, r.n_docs, r.n_facts
    );

    // --- the session hit/dedup stats line ---
    let stats = server.stats();
    let s = &stats.sessions;
    println!(
        "sessions: {} live / {} created ({} evicted) | turns: {} cold + {} extended | \
         docs: {} merged, {} deduped ({:.0}% dedup) | stage-1 hit rate {:.0}%",
        s.live,
        s.created,
        s.evicted_ttl + s.evicted_pressure,
        s.turns_cold,
        s.turns_extended,
        s.docs_merged,
        s.docs_deduped,
        s.dedup_rate() * 100.0,
        stats.stage1_hit_rate() * 100.0
    );
    server.shutdown();
}
