//! Crash-safety contract of the write-ahead session journal:
//!
//! For *any* multi-session turn sequence and *any* crash point — the
//! journal truncated at an arbitrary record boundary, or mid-record —
//! a server recovered from the surviving journal holds session KBs
//! **byte-identical** to a server that executed exactly the committed
//! prefix of turns uninterrupted. A torn trailing record is detected by
//! its checksum/length and dropped, never decoded into garbage.
//!
//! The session store journals its evictions, so the same holds for the
//! sessions it evicted: they stay evicted after a crash at any record
//! boundary, and a turn that commits on an evicted slot is not replayed.
//!
//! A restart into a smaller store recovers each session whole or not at
//! all: the replay never revives a session its own claims evicted.
//!
//! `crash_replay_matches_uninterrupted_run`,
//! `ttl_evicted_sessions_stay_evicted_after_a_crash` and
//! `a_restart_into_a_smaller_store_recovers_whole_sessions` are re-run
//! by name in the CI determinism gate.

use proptest::prelude::*;
use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_net::frame::HEADER_BYTES;
use qkb_net::{JournalConfig, NetClient, NetConfig, QkbNetServer, SessionJournal};
use qkb_obs::Registry;
use qkb_qa::QaSystem;
use qkb_serve::{LoggedTurn, QueryRequest, ServeConfig, Served, TurnLog};
use qkb_session::{Residency, SessionConfig, SessionManager};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

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

/// A fresh journal directory holding one segment: `bytes`.
fn journal_of(tag: &str, bytes: &[u8]) -> PathBuf {
    let dir = fresh_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seg-00000000.qkj"), bytes).unwrap();
    dir
}

/// The sessions a server holds after one journal record: each session's
/// KB rendering and how many records replay would stream into it (its
/// records since its last cold turn).
#[derive(Clone, Default)]
struct Held(BTreeMap<String, (String, u64)>);

impl Held {
    /// What [`session_kbs`] reads from a server holding exactly these
    /// sessions.
    fn kbs(&self, turns: &[(usize, usize)]) -> Vec<(String, Option<String>)> {
        let mut ids: Vec<String> = turns.iter().map(|&(s, _)| format!("s{s}")).collect();
        ids.sort();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                let kb = self.0.get(&id).map(|(kb, _)| kb.clone());
                (id, kb)
            })
            .collect()
    }

    fn replayable(&self) -> u64 {
        self.0.values().map(|(_, n)| n).sum()
    }
}

proptest! {
    // More cases than the forked test below: a case only exercises an
    // eviction when its turns touch more sessions than the cap holds.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multi-session turn sequences under a session cap that
    /// evicts, journal truncated at an arbitrary record boundary: the
    /// recovered server's session KBs are byte-identical to the
    /// uninterrupted server's after the same record. A turn whose claim
    /// evicts the least recently used session journals that eviction
    /// record first, then its own turn record. A restart at a cap below
    /// the writing cap may not hold every session, but holds each one
    /// whole; a second restart at that cap holds the same sessions.
    #[test]
    fn crash_replay_matches_uninterrupted_run(
        turns in proptest::collection::vec((0usize..3, 0usize..6), 2..7),
        max_sessions in 1usize..3,
        cut in 0usize..16,
        restart_cap in 1usize..3,
    ) {
        let sys = engine();
        let pool = question_pool(&sys);
        let dir = fresh_dir("prop");
        let restart_cap = restart_cap.min(max_sessions);
        let config = |cap: usize| {
            let mut config = config_with_journal(Some(&dir));
            config.serve.session.max_sessions = cap;
            config
        };

        // Life 1: run every turn with the journal attached, noting what
        // the server holds after every record it journals.
        let mut after = vec![Held::default()];
        let evictions = {
            let server = QkbNetServer::start(sys.clone(), config(max_sessions)).unwrap();
            let mut client = NetClient::connect(server.local_addr()).unwrap();
            for &(s, q) in &turns {
                let id = format!("s{s}");
                let answer = client
                    .query_in_session(&id, QueryRequest::question(&pool[q]))
                    .unwrap();
                let resident = server.session_ids();
                let mut held = after.last().unwrap().clone();
                let evicted: Vec<String> =
                    held.0.keys().filter(|k| !resident.contains(k)).cloned().collect();
                for gone in evicted {
                    held.0.remove(&gone);
                    after.push(held.clone());
                }
                let cold = matches!(answer.served, Served::SessionCold | Served::SessionForked);
                let records = if cold { 1 } else { held.0[&id].1 + 1 };
                let kb = server.session_kb_json(&id).expect("the turn's session is resident");
                held.0.insert(id, (kb, records));
                after.push(held);
            }
            server.stats().serve.sessions.evicted_pressure
        };

        // Crash: keep only the first `cut_k` records.
        let (seg, boundaries) = segment_and_boundaries(&dir);
        prop_assert_eq!(boundaries.len(), turns.len() + evictions as usize + 1);
        prop_assert_eq!(boundaries.len(), after.len());
        let cut_k = cut % boundaries.len();
        truncate(&seg, boundaries[cut_k]);

        // Life 2: recover from the truncated journal.
        let recovered = QkbNetServer::start(sys.clone(), config(restart_cap)).unwrap();
        let replay = recovered.stats();
        let kbs = session_kbs(&recovered, &turns);
        drop(recovered);
        let want = after[cut_k].kbs(&turns);
        prop_assert_eq!(
            replay.replayed_turns + replay.replay_dropped_records,
            after[cut_k].replayable()
        );
        if restart_cap == max_sessions {
            prop_assert_eq!(replay.replay_dropped_records, 0);
            prop_assert_eq!(&kbs, &want);
        } else {
            for ((id, got), (_, held)) in kbs.iter().zip(&want) {
                prop_assert!(got.is_none() || got == held, "{} came back partial", id);
            }
        }

        // Life 3: the replay journaled its own evictions, so a second
        // restart at the same cap recovers the same sessions.
        let again = QkbNetServer::start(sys.clone(), config(restart_cap)).unwrap();
        prop_assert_eq!(session_kbs(&again, &turns), kbs);
        drop(again);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

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
        let replay = recovered.stats();
        prop_assert_eq!(replay.replayed_turns, cut_k as u64);
        let forest = replay.serve.sessions.forest;
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
    let replay = recovered.stats();
    assert_eq!(replay.replayed_turns, 2, "committed prefix only");
    assert_eq!(
        replay.journal.expect("journal attached").torn_tails,
        1,
        "the torn record is counted"
    );

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
    assert_eq!(recovered.stats().replayed_turns, 2);
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
    assert_eq!(third.stats().replayed_turns, 3);
    assert_eq!(third.session_kb_json("s0"), reference.session_kb_json("s0"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session the TTL expired stays expired after a crash at every record
/// boundary. A turn on `s0`, 400 ms idle under a 300 ms TTL, then a turn
/// on `s1`, whose claim expires `s0`: the journal holds `s0`'s turn,
/// `s0`'s eviction and `s1`'s turn. After each record, the recovered
/// server holds the sessions and KBs the uninterrupted server held, and
/// the next `s0` turn is served alike: extended while `s0` is held, cold
/// once it was evicted. The forest is off so that a cold turn reads
/// `SessionCold`, never `SessionForked`.
#[test]
fn ttl_evicted_sessions_stay_evicted_after_a_crash() {
    let sys = engine();
    let pool = question_pool(&sys);
    let config = |dir: Option<&Path>| {
        let mut config = config_with_journal(dir);
        config.serve.session = SessionConfig {
            ttl: Duration::from_millis(300),
            forest_bytes: 0,
            ..SessionConfig::default()
        };
        config
    };
    let next_s0 = |server: &QkbNetServer<Arc<QaSystem>>| {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client
            .query_in_session("s0", QueryRequest::question(&pool[2]))
            .unwrap()
            .served
    };

    // Life 1, uninterrupted.
    let dir = fresh_dir("ttl");
    let server = QkbNetServer::start(sys.clone(), config(Some(&dir))).unwrap();
    drive(&server, &[(0, 0)], &pool);
    let s0 = server.session_kb_json("s0").expect("s0 resident");
    std::thread::sleep(Duration::from_millis(400));
    drive(&server, &[(1, 1)], &pool);
    assert_eq!(server.session_ids(), ["s1"], "s1's claim expired s0");
    let s1 = server.session_kb_json("s1").expect("s1 resident");
    let (seg, boundaries) = segment_and_boundaries(&dir);
    assert_eq!(boundaries.len(), 4, "s0's turn, s0's eviction, s1's turn");
    let journal = std::fs::read(seg).unwrap();
    assert_eq!(next_s0(&server), Served::SessionCold);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    // What the uninterrupted server held after each record.
    let held: [&[(&str, &String)]; 4] = [&[], &[("s0", &s0)], &[], &[("s1", &s1)]];
    for (k, &boundary) in boundaries.iter().enumerate() {
        let dir = journal_of("ttl_cut", &journal[..boundary as usize]);
        let recovered = QkbNetServer::start(sys.clone(), config(Some(&dir))).unwrap();
        let mut ids = recovered.session_ids();
        ids.sort();
        let want: Vec<&str> = held[k].iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, want, "sessions after record {k}");
        for &(id, kb) in held[k] {
            assert_eq!(
                recovered.session_kb_json(id).as_ref(),
                Some(kb),
                "{id} after record {k}"
            );
        }
        let s0_held = want.contains(&"s0");
        let expected = if s0_held {
            Served::SessionExtended
        } else {
            Served::SessionCold
        };
        assert_eq!(
            next_s0(&recovered),
            expected,
            "next s0 turn after record {k}"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A restart into a store smaller than the one that wrote the journal:
/// turns s0, s1, s0 under the default cap, then a restart at
/// `max_sessions` 1. Replaying s1's opening evicts s0, so s0's second
/// record must not start a fresh s0 holding only that turn's documents:
/// s0 is absent, s1 is byte-identical to the uninterrupted run's, and a
/// second restart at the same cap holds the same sessions.
#[test]
fn a_restart_into_a_smaller_store_recovers_whole_sessions() {
    let sys = engine();
    let pool = question_pool(&sys);
    let dir = fresh_dir("smaller");
    let turns = [(0, 0), (1, 1), (0, 2)];
    let uninterrupted = {
        let server = QkbNetServer::start(sys.clone(), config_with_journal(Some(&dir))).unwrap();
        drive(&server, &turns, &pool);
        session_kbs(&server, &turns)
    };
    assert!(uninterrupted.iter().all(|(_, kb)| kb.is_some()));
    let smaller = || {
        let mut config = config_with_journal(Some(&dir));
        config.serve.session.max_sessions = 1;
        config
    };

    let recovered = QkbNetServer::start(sys.clone(), smaller()).unwrap();
    let replay = recovered.stats();
    let kbs = session_kbs(&recovered, &turns);
    drop(recovered);
    // s0's and s1's openings replay; s0's second record is dropped.
    assert_eq!(
        (replay.replayed_turns, replay.replay_dropped_records),
        (2, 1)
    );
    assert_eq!(kbs[0], ("s0".into(), None), "s0 is absent, not partial");
    assert_eq!(kbs[1], uninterrupted[1], "s1 comes back whole");

    let again = QkbNetServer::start(sys.clone(), smaller()).unwrap();
    assert_eq!(session_kbs(&again, &turns), kbs);
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A turn that commits on a slot the store evicted while it ran is not
/// journaled after that slot's eviction record, so replay does not
/// resurrect the session. The store and the journal are wired the way
/// `QkbServer::start` and its session turns wire them; barriers hold
/// session `a`'s turn open while `b`'s claim evicts `a` under a cap of
/// one session.
#[test]
fn a_turn_on_an_evicted_slot_is_not_replayed() {
    let dir = fresh_dir("orphan");
    let mut config = JournalConfig::new(&dir);
    config.fsync = false;
    let (journal, _) = SessionJournal::open(config.clone(), &Registry::new()).unwrap();
    let log: Arc<dyn TurnLog> = Arc::new(journal);
    let hook = Arc::clone(&log);
    let store = SessionManager::new(
        SessionConfig {
            max_sessions: 1,
            ..SessionConfig::default()
        },
        &Registry::new(),
    )
    .with_eviction_hook(move |id| hook.log_turn(&LoggedTurn::eviction(id)));
    let opening = |id: &str, residency: &Residency<'_>| {
        residency.if_resident(|| {
            log.log_turn(&LoggedTurn {
                session_id: id,
                turn: 1,
                cold: true,
                evicted: false,
                doc_ids: &[1],
                docs_fingerprint: 7,
            })
        })
    };
    let (claimed, evicted) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|scope| {
        let orphan = scope.spawn(|| {
            store.with_turn("a", |_, residency| {
                claimed.wait();
                evicted.wait();
                opening("a", residency)
            })
        });
        claimed.wait();
        let journaled = store.with_turn("b", |_, residency| opening("b", residency));
        assert!(journaled, "b's claim evicts a, then b's turn is journaled");
        evicted.wait();
        assert!(
            !orphan.join().unwrap(),
            "a's turn finished on an evicted slot"
        );
    });
    drop(store);
    drop(log);

    let (_, recovery) = SessionJournal::open(config, &Registry::new()).unwrap();
    let sessions: Vec<&str> = recovery
        .turns
        .iter()
        .map(|r| r.session_id.as_str())
        .collect();
    assert_eq!(sessions, ["b"], "a must not come back");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same through the server: under a TTL shorter than a turn, the
/// store evicts slots while two shards run turns on them. Each turn opens
/// a new session, and the stage-1 cache and the forest are off, so every
/// turn runs a cold build the other shard's claims can expire it during.
/// Whatever the store evicted, the journal at rest recovers exactly the
/// sessions the server holds: no turn that finished on an evicted slot
/// was journaled after that slot's eviction record.
#[test]
fn mid_turn_evictions_leave_the_journal_holding_the_served_sessions() {
    let sys = engine();
    let pool = question_pool(&sys);
    let dir = fresh_dir("midturn");
    let mut config = config_with_journal(Some(&dir));
    config.serve.shards = 2;
    config.serve.stage1_cache_bytes = 0;
    config.serve.session = SessionConfig {
        ttl: Duration::from_micros(100),
        forest_bytes: 0,
        ..SessionConfig::default()
    };
    let server = QkbNetServer::start(sys.clone(), config).unwrap();
    std::thread::scope(|scope| {
        for c in 0..2 {
            let (server, pool) = (&server, &pool);
            scope.spawn(move || {
                let mut client = NetClient::connect(server.local_addr()).unwrap();
                for i in 0..40 {
                    let request = QueryRequest::question(&pool[(i + c) % pool.len()]);
                    client
                        .query_in_session(&format!("c{c}t{i}"), request)
                        .unwrap();
                }
            });
        }
    });
    assert!(server.stats().serve.sessions.evicted_ttl > 0);
    let mut held = server.session_ids();
    held.sort();
    drop(server);

    let (_, recovery) = SessionJournal::open(JournalConfig::new(&dir), &Registry::new()).unwrap();
    let mut journaled: Vec<String> = recovery.turns.into_iter().map(|r| r.session_id).collect();
    journaled.sort();
    assert_eq!(journaled, held);
    let _ = std::fs::remove_dir_all(&dir);
}
