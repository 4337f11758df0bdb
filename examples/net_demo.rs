//! The durable network tier end to end: a `qkb_net` server over loopback
//! TCP with a write-ahead session journal, a client session driven over
//! the framed wire protocol, a simulated crash (the server is dropped
//! without warning), and a restart that replays the journal — the
//! session resumes warm, byte-identical to an uninterrupted run. Given
//! an output directory, it writes the restarted server's Prometheus text
//! there as `metrics.txt`: the serve, net and journal series of its one
//! registry.
//!
//! Run: `cargo run --release --example net_demo [-- OUT_DIR]`

use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_net::{JournalConfig, NetClient, NetConfig, QkbNetServer};
use qkb_qa::QaSystem;
use qkb_serve::QueryRequest;
use std::sync::Arc;

fn main() {
    let out_dir = std::env::args().nth(1);
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
    let system = Arc::new(QaSystem::new(world.clone(), docs, qkb));

    let journal_dir = std::env::temp_dir().join(format!("qkb_net_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_dir);
    let config = || NetConfig {
        journal: Some(JournalConfig::new(&journal_dir)),
        ..NetConfig::default()
    };

    // --- life 1: serve a three-turn session over real TCP ---
    let server = QkbNetServer::start(system.clone(), config()).expect("start server");
    let addr = server.local_addr();
    println!(
        "server up on {addr}, journaling to {}\n",
        journal_dir.display()
    );

    let questions: Vec<String> = trends_test(&world, 3, 35)
        .into_iter()
        .map(|q| q.text)
        .collect();
    let mut client = NetClient::connect(addr).expect("connect");
    for (turn, q) in questions.iter().enumerate() {
        let r = client
            .query_in_session("explorer", QueryRequest::question(q))
            .expect("session turn");
        println!(
            "turn {turn} [{:?}]\n  Q: {q}\n  A: {}\n  session KB: {} docs, {} facts\n",
            r.served,
            if r.answers.is_empty() {
                "(no answer)".to_string()
            } else {
                r.answers.join("; ")
            },
            r.n_docs,
            r.n_facts,
        );
    }
    let kb_before = server.session_kb_json("explorer").expect("session exists");

    // --- crash: drop the server mid-flight, no graceful goodbye ---
    drop(client);
    drop(server);
    println!("-- server killed --\n");

    // --- life 2: restart; the journal replays the committed turns ---
    let server = QkbNetServer::start(system, config()).expect("restart server");
    let replay = server.stats();
    println!(
        "restarted on {}: replayed {} journaled turns ({} torn, {} dropped)",
        server.local_addr(),
        replay.replayed_turns,
        replay.journal.expect("journal attached").torn_tails,
        replay.replay_dropped_records
    );
    let kb_after = server
        .session_kb_json("explorer")
        .expect("session replayed");
    println!(
        "session KB after replay is byte-identical to before the crash: {}",
        kb_before == kb_after
    );
    assert_eq!(kb_before, kb_after);

    // --- the session resumes warm, not cold ---
    let mut client = NetClient::connect(server.local_addr()).expect("reconnect");
    let followup: String = trends_test(&world, 4, 35).remove(3).text;
    let r = client
        .query_in_session("explorer", QueryRequest::question(&followup))
        .expect("follow-up turn");
    println!(
        "follow-up turn after the crash [{:?}]: {} docs, {} facts",
        r.served, r.n_docs, r.n_facts
    );

    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).expect("create output directory");
        let path = std::path::Path::new(&dir).join("metrics.txt");
        std::fs::write(&path, server.metrics_text()).expect("write metrics");
        println!("metrics registry -> {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&journal_dir);
}
