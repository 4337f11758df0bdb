//! Crash-safety contract of the write-ahead session journal:
//!
//! For *any* multi-session turn sequence and *any* crash point — the
//! journal truncated at an arbitrary record boundary, or mid-record —
//! a server recovered from the surviving journal holds session KBs
//! **byte-identical** to a server that executed exactly the committed
//! prefix of turns uninterrupted. A torn trailing record is detected by
//! its checksum/length and dropped, never decoded into garbage.
//!
//! `crash_replay_matches_uninterrupted_run` is re-run by name in the CI
//! determinism gate.

use proptest::prelude::*;
use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_net::frame::HEADER_BYTES;
use qkb_net::{JournalConfig, NetClient, NetConfig, QkbNetServer};
use qkb_qa::QaSystem;
use qkb_serve::{QueryRequest, ServeConfig, Served};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

fn engine() -> Arc<QaSystem> {
    static ENGINE: OnceLock<Arc<QaSystem>> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
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
            Arc::new(sys)
        })
        .clone()
}

fn question_pool(sys: &QaSystem) -> Vec<String> {
    trends_test(sys.world(), 6, 13)
        .into_iter()
        .map(|q| q.text)
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qkb_replay_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config_with_journal(dir: Option<&Path>) -> NetConfig {
    let mut journal = dir.map(JournalConfig::new);
    if let Some(j) = &mut journal {
        j.fsync = false; // the tests crash by truncation, not power loss
    }
    NetConfig {
        journal,
        serve: ServeConfig {
            shards: 1,
            batch_max: 1,
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

/// Runs `turns` (session index, question index) sequentially over
/// loopback; returns the per-session KB renderings afterwards.
fn drive(server: &QkbNetServer<Arc<QaSystem>>, turns: &[(usize, usize)], pool: &[String]) {
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for &(s, q) in turns {
        client
            .query_in_session(&format!("s{s}"), QueryRequest::question(&pool[q]))
            .unwrap();
    }
}

fn session_kbs(
    server: &QkbNetServer<Arc<QaSystem>>,
    turns: &[(usize, usize)],
) -> Vec<(String, Option<String>)> {
    let mut ids: Vec<String> = turns.iter().map(|&(s, _)| format!("s{s}")).collect();
    ids.sort();
    ids.dedup();
    ids.into_iter()
        .map(|id| {
            let kb = server.session_kb_json(&id);
            (id, kb)
        })
        .collect()
}

/// Byte offsets of the record boundaries of the (single) journal
/// segment a short run writes, including 0 and the file length.
fn segment_and_boundaries(dir: &Path) -> (PathBuf, Vec<u64>) {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    segs.sort();
    // Short runs write all records into the first segment; later ones
    // are the empty fresh segments recovery opens.
    let seg = segs.remove(0);
    let bytes = std::fs::read(&seg).unwrap();
    let mut boundaries = vec![0u64];
    let mut off = 0usize;
    while off + HEADER_BYTES <= bytes.len() {
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
            as usize;
        off += HEADER_BYTES + len;
        assert!(off <= bytes.len(), "journal segment ended mid-record");
        boundaries.push(off as u64);
    }
    (seg, boundaries)
}

fn truncate(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random multi-session turn sequences, journal truncated at an
    /// arbitrary record boundary: the recovered server's session KBs are
    /// byte-identical to a server that ran exactly the committed prefix.
    #[test]
    fn crash_replay_matches_uninterrupted_run(
        turns in proptest::collection::vec((0usize..3, 0usize..6), 1..5),
        cut in 0usize..6,
    ) {
        let sys = engine();
        let pool = question_pool(&sys);
        let dir = fresh_dir("prop");

        // Life 1: run every turn with the journal attached.
        {
            let server = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
            drive(&server, &turns, &pool);
        }

        // Crash: keep only the first `cut_k` committed records.
        let (seg, boundaries) = segment_and_boundaries(&dir);
        prop_assert_eq!(boundaries.len(), turns.len() + 1);
        let cut_k = cut % boundaries.len();
        truncate(&seg, boundaries[cut_k]);
        let prefix = &turns[..cut_k];

        // Life 2: recover from the truncated journal.
        let recovered =
            QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
        prop_assert_eq!(recovered.replay_report().replayed_turns, cut_k as u64);
        prop_assert_eq!(recovered.replay_report().dropped_records, 0);

        // Reference: an uninterrupted server that ran only the prefix.
        let reference = QkbNetServer::start(sys.clone(), config_with_journal(None)).unwrap();
        drive(&reference, prefix, &pool);

        prop_assert_eq!(session_kbs(&recovered, prefix), session_kbs(&reference, prefix));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Prefix-forest sessions under crash replay: several sessions open
    /// on the *same* question (so all but the first fork a shared frozen
    /// prefix) and then diverge with private delta turns. After a crash
    /// at any record boundary, the recovered server's session KBs are
    /// byte-identical to an uninterrupted run of the committed prefix —
    /// and the replay itself re-forks the shared prefix instead of
    /// rebuilding it per session, so only each session's delta records
    /// cost real work.
    #[test]
    fn forked_session_replay_matches_uninterrupted_run(
        n_sessions in 2usize..4,
        delta_qs in proptest::collection::vec(1usize..6, 3),
        cut in 0usize..10,
    ) {
        let sys = engine();
        let pool = question_pool(&sys);
        let dir = fresh_dir("fork");

        // Every session opens on pool[0], then takes one private delta
        // turn — the layout the forest exists for.
        let mut turns: Vec<(usize, usize)> = (0..n_sessions).map(|s| (s, 0)).collect();
        turns.extend((0..n_sessions).map(|s| (s, delta_qs[s % delta_qs.len()])));

        // Life 1: run every turn with the journal attached.
        {
            let server = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
            drive(&server, &turns, &pool);
            let live = server.stats().serve.sessions;
            prop_assert_eq!(live.turns_forked, (n_sessions - 1) as u64);
            prop_assert!(live.forest.shared_bytes > 0);
        }

        // Crash: keep only the first `cut_k` committed records.
        let (seg, boundaries) = segment_and_boundaries(&dir);
        prop_assert_eq!(boundaries.len(), turns.len() + 1);
        let cut_k = cut % boundaries.len();
        truncate(&seg, boundaries[cut_k]);
        let prefix = &turns[..cut_k];

        // Life 2: recover. Replay streams the committed records through
        // the same forest-aware path, so every session after the first
        // re-forks the shared opening instead of rebuilding it.
        let recovered =
            QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
        prop_assert_eq!(recovered.replay_report().replayed_turns, cut_k as u64);
        let forest = recovered.stats().serve.sessions.forest;
        if cut_k >= 2 {
            prop_assert_eq!(
                forest.forks,
                (cut_k.min(n_sessions) - 1) as u64,
                "replayed openings after the first must fork, not rebuild"
            );
        }

        // Reference: an uninterrupted server that ran only the prefix.
        let reference = QkbNetServer::start(sys.clone(), config_with_journal(None)).unwrap();
        drive(&reference, prefix, &pool);
        prop_assert_eq!(session_kbs(&recovered, prefix), session_kbs(&reference, prefix));
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mid_record_truncation_is_detected_and_dropped() {
    let sys = engine();
    let pool = question_pool(&sys);
    let turns: Vec<(usize, usize)> = vec![(0, 0), (1, 1), (0, 2)];
    let dir = fresh_dir("midrec");
    {
        let server = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
        drive(&server, &turns, &pool);
    }

    // Cut *inside* the last record: its header survives but the payload
    // is short — the checksum/length check must drop it, keeping the
    // first two records.
    let (seg, boundaries) = segment_and_boundaries(&dir);
    assert_eq!(boundaries.len(), 4);
    truncate(&seg, boundaries[3] - 5);

    let recovered = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
    let report = recovered.replay_report();
    assert_eq!(report.replayed_turns, 2, "committed prefix only");
    assert_eq!(report.torn_tails, 1, "the torn record is counted");

    let reference = QkbNetServer::start(sys.clone(), config_with_journal(None)).unwrap();
    drive(&reference, &turns[..2], &pool);
    assert_eq!(
        session_kbs(&recovered, &turns[..2]),
        session_kbs(&reference, &turns[..2])
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_sessions_continue_byte_identically() {
    let sys = engine();
    let pool = question_pool(&sys);
    let dir = fresh_dir("resume");

    // Life 1: two turns, clean shutdown.
    {
        let server = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
        drive(&server, &[(0, 0), (0, 1)], &pool);
    }

    // Life 2: recover, then take a third turn — it must extend the
    // replayed KB incrementally, not start cold.
    let recovered = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
    assert_eq!(recovered.replay_report().replayed_turns, 2);
    let mut client = NetClient::connect(recovered.local_addr()).unwrap();
    let answer = client
        .query_in_session("s0", QueryRequest::question(&pool[2]))
        .unwrap();
    assert_eq!(
        answer.served,
        Served::SessionExtended,
        "a replayed session must resume warm"
    );

    // Reference: all three turns in one uninterrupted life.
    let reference = QkbNetServer::start(sys.clone(), config_with_journal(None)).unwrap();
    drive(&reference, &[(0, 0), (0, 1), (0, 2)], &pool);
    assert_eq!(
        recovered.session_kb_json("s0"),
        reference.session_kb_json("s0")
    );

    // The continuation turn was journaled in life 2: a third life
    // replays all three turns.
    drop(client);
    drop(recovered);
    let third = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
    assert_eq!(third.replay_report().replayed_turns, 3);
    assert_eq!(third.session_kb_json("s0"), reference.session_kb_json("s0"));
    let _ = std::fs::remove_dir_all(&dir);
}
