//! Session-eviction edge cases:
//!
//! 1. **TTL expiry mid-query** — a turn still running when its session
//!    expires finishes on its private handle, but its state is discarded;
//!    the next use of the id starts cold.
//! 2. **Byte pressure during an extend** — growing one session past the
//!    budget evicts the least-recently-used *other* session, even while
//!    that session has a turn in flight, without corrupting the byte
//!    accounting.
//! 3. **Re-creating an evicted id** — the id comes back as a fresh, empty
//!    session (no resurrection of stale state, no phantom dedup).

use qkb_session::{ForestConfig, SessionConfig, SessionManager};
use qkbfly::{ComputeStage1, Qkbfly};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Forest off: these tests pin the private-KB eviction semantics
/// (an evicted or expired id must come back with *no* reusable state).
const OFF: ForestConfig = ForestConfig {
    enabled: false,
    max_bytes: 0,
};

/// A session store counting into a registry of its own.
fn store(config: SessionConfig) -> SessionManager {
    SessionManager::new(config, &qkb_obs::Registry::new())
}

fn tiny_system() -> Qkbfly {
    Qkbfly::new(
        qkb_kb::EntityRepository::new(),
        qkb_kb::PatternRepository::standard(),
        qkb_kb::BackgroundStats::empty(),
    )
}

fn doc(i: usize) -> String {
    format!(
        "Person Number{i} visited the old observatory and wrote a detailed report about it. \
         The report mentioned the comet and the telescope in section {i}."
    )
}

/// The recorded weight of a one-document session under this fixture —
/// measured through a throwaway unbounded manager so budget tests can be
/// phrased in "documents", not guessed byte constants.
fn one_doc_session_bytes(qkb: &Qkbfly) -> u64 {
    let probe = store(SessionConfig {
        max_bytes: 0,
        ttl: Duration::ZERO,
        max_sessions: 0,
        forest: OFF,
    });
    probe.with_session("probe", |s| {
        s.extend(qkb, &ComputeStage1, &[doc(0)]);
        s.approx_bytes()
    })
}

#[test]
fn ttl_expiry_mid_query_discards_in_flight_state() {
    let qkb = tiny_system();
    let manager = store(SessionConfig {
        ttl: Duration::from_millis(40),
        max_bytes: 0,
        max_sessions: 0,
        forest: OFF,
    });
    let entered = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The long turn: claims the session, then outlives the TTL
            // inside the closure.
            manager.with_session("s", |session| {
                session.extend(&qkb, &ComputeStage1, &[doc(1)]);
                entered.wait();
                std::thread::sleep(Duration::from_millis(80));
                session.extend(&qkb, &ComputeStage1, &[doc(2)]);
            });
        });
        entered.wait();
        std::thread::sleep(Duration::from_millis(60));
        // The id expired while the turn was still running: this access
        // sweeps it and starts a fresh session.
        let docs = manager.with_session("s", |session| session.kb().n_docs());
        assert_eq!(docs, 0, "expired session must come back cold");
    });
    assert_eq!(manager.stats().evicted_ttl, 1);
    // The long turn's writes went to the orphaned slot only.
    let (docs, turns) = manager.with_session("s", |s| (s.kb().n_docs(), s.turns()));
    assert_eq!(docs, 0, "in-flight state must not be resurrected");
    assert_eq!(turns, 0);
    assert_eq!(manager.len(), 1);
}

#[test]
fn byte_pressure_evicts_lru_while_a_turn_is_in_flight() {
    let qkb = tiny_system();
    let w = one_doc_session_bytes(&qkb);
    // Room for about one and a half one-document sessions.
    let manager = store(SessionConfig {
        max_bytes: w + w / 2,
        ttl: Duration::ZERO,
        max_sessions: 0,
        forest: OFF,
    });
    // Session "a" holds one document (recorded weight ~w).
    manager.with_session("a", |s| {
        s.extend(&qkb, &ComputeStage1, &[doc(0)]);
    });
    let held = Barrier::new(2);
    let evicted = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // A turn on "a" is in flight (slot lock held) ...
            manager.with_session("a", |s| {
                held.wait();
                evicted.wait();
                // ... and keeps extending the now-orphaned slot.
                s.extend(&qkb, &ComputeStage1, &[doc(3)]);
            });
        });
        held.wait();
        // ... while "b" grows past the budget, evicting "a" (the LRU).
        manager.with_session("b", |s| {
            s.extend(&qkb, &ComputeStage1, &[doc(1)]);
        });
        assert_eq!(manager.stats().evicted_pressure, 1);
        assert_eq!(manager.len(), 1);
        evicted.wait();
    });
    // The accounting matches the survivor exactly — the orphaned turn's
    // growth never re-entered the books.
    let b_bytes = manager.with_session("b", |s| s.approx_bytes());
    let stats = manager.stats();
    assert_eq!(stats.approx_bytes, b_bytes, "stats: {stats:?}");
    // "a" was evicted mid-turn: it must come back cold.
    let docs = manager.with_session("a", |s| s.kb().n_docs());
    assert_eq!(docs, 0, "evicted session must not resurrect");
}

#[test]
fn claim_expires_a_stale_id_even_between_rate_limited_sweeps() {
    let qkb = tiny_system();
    let manager = store(SessionConfig {
        ttl: Duration::from_millis(300),
        max_bytes: 0,
        max_sessions: 0,
        forest: OFF,
    });
    manager.with_session("a", |s| {
        s.extend(&qkb, &ComputeStage1, &[doc(0)]);
    });
    // Keep "a" idle while another session's traffic runs a sweep just
    // *before* "a" expires — the next opportunistic sweep is then
    // rate-limited into the future, so only the claim-side staleness
    // check stands between a stale KB and the client.
    std::thread::sleep(Duration::from_millis(250));
    manager.with_session("b", |_| ());
    std::thread::sleep(Duration::from_millis(60));
    let docs = manager.with_session("a", |s| s.kb().n_docs());
    assert_eq!(docs, 0, "an id idle past the TTL must start cold on claim");
    assert_eq!(manager.stats().evicted_ttl, 1);
    let stats = manager.stats();
    let b_bytes = manager.with_session("b", |s| s.approx_bytes());
    let a_bytes = manager.with_session("a", |s| s.approx_bytes());
    assert_eq!(
        stats.approx_bytes,
        a_bytes + b_bytes,
        "expiring on claim must keep the byte accounting exact"
    );
}

#[test]
fn recreated_id_starts_cold_with_no_phantom_dedup() {
    let qkb = tiny_system();
    let manager = store(SessionConfig {
        max_sessions: 1,
        max_bytes: 0,
        ttl: Duration::ZERO,
        forest: OFF,
    });
    let first = manager.with_session("a", |s| s.extend(&qkb, &ComputeStage1, &[doc(0), doc(1)]));
    assert_eq!((first.cold, first.merged), (true, 2));
    manager.with_session("b", |_| ()); // cap 1: evicts "a"
    assert_eq!(manager.stats().evicted_pressure, 1);
    // Re-created "a": empty, and re-sending the same documents merges
    // them again — nothing stale is resident to dedup against.
    let again = manager.with_session("a", |s| {
        assert_eq!(s.kb().n_docs(), 0);
        assert_eq!(s.turns(), 0);
        s.extend(&qkb, &ComputeStage1, &[doc(0), doc(1)])
    });
    assert_eq!((again.cold, again.merged, again.deduped), (true, 2, 0));
    assert_eq!(manager.stats().created, 3);
}

/// Evicting a session whose prefix is shared through the forest must not
/// disturb the other forks: the registry and every surviving session
/// hold their own `Arc`s, so the evicted session's layers stay readable
/// everywhere else.
#[test]
fn evicting_a_forked_session_leaves_sibling_forks_readable() {
    let qkb = tiny_system();
    let manager = store(SessionConfig {
        max_sessions: 2,
        max_bytes: 0,
        ttl: Duration::ZERO,
        forest: ForestConfig {
            enabled: true,
            max_bytes: 64 << 20,
        },
    });
    let opening = [doc(0), doc(1)];
    manager.with_session("a", |s| s.extend(&qkb, &ComputeStage1, &opening));
    let forked = manager.with_session("b", |s| s.extend(&qkb, &ComputeStage1, &opening));
    assert!(forked.forked, "same opening must fork the shared prefix");
    // Cap 2: claiming "c" evicts "a" — the session that *built* the
    // shared prefix.
    manager.with_session("c", |_| ());
    assert_eq!(manager.stats().evicted_pressure, 1);
    assert!(!manager.contains("a"));
    // "b" still reads (and extends) the shared layers untouched.
    let (docs, report) = manager.with_session("b", |s| {
        assert_eq!(s.kb().n_docs(), 2);
        let report = s.extend(&qkb, &ComputeStage1, &[doc(0), doc(2)]);
        (s.kb().n_docs(), report)
    });
    assert_eq!(docs, 3);
    assert_eq!((report.merged, report.deduped), (1, 1));
    // And the prefix stays registered: a re-created "a" forks right back.
    let again = manager.with_session("a", |s| s.extend(&qkb, &ComputeStage1, &opening));
    assert!(again.cold && again.forked);
}

/// A frozen layer lives exactly as long as its last holder: dropping the
/// registry's chains keeps live forks working, and the layer memory is
/// reclaimed only when the final fork dies.
#[test]
fn last_fork_death_reclaims_the_shared_layer() {
    let qkb = tiny_system();
    let manager = store(SessionConfig {
        max_sessions: 0,
        max_bytes: 0,
        ttl: Duration::ZERO,
        forest: ForestConfig {
            enabled: true,
            max_bytes: 64 << 20,
        },
    });
    let opening = [doc(0)];
    manager.with_session("a", |s| s.extend(&qkb, &ComputeStage1, &opening));
    let forked = manager.with_session("b", |s| s.extend(&qkb, &ComputeStage1, &opening));
    assert!(forked.forked);
    let weak = manager.with_session("a", |s| Arc::downgrade(&s.kb().frozen_layers()[0]));
    let forest = manager.forest().expect("forest enabled").clone();

    // Drop the registry's references: both sessions keep reading.
    forest.clear();
    let docs = manager.with_session("b", |s| s.kb().n_docs());
    assert_eq!(docs, 1, "clearing the registry must not break live forks");
    assert!(weak.upgrade().is_some());

    // Kill the forks one by one (TTL-zero store: use pressure eviction
    // by dropping the whole manager, the last strong references).
    drop(manager);
    assert!(
        weak.upgrade().is_none(),
        "the shared layer must be reclaimed when its last fork dies"
    );
}
