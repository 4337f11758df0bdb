//! Serving-semantics contracts:
//!
//! 1. **determinism** — answers served from the fragment cache (or a
//!    coalesced build) are byte-identical to cold-build answers, at any
//!    shard count;
//! 2. **coalescing** — K concurrent identical queries trigger exactly one
//!    `build_kb` (counted through the shared `BuildCounters` hook), and
//!    a shard waits for another shard's in-flight build of the same
//!    documents exactly when the fragment cache is on;
//! 3. **one request at a time** — a shard answers each request as soon
//!    as its own work is done, never after work queued behind it;
//! 4. **cache bounds** — a capacity-1 cache evicts under alternation and
//!    hits under repetition;
//! 5. **one fold** — a one-shot fragment and a session over the same
//!    retrieval are the same KB, repeated documents merged once;
//! 6. **failure isolation** — a request that panics fails alone: it gets
//!    an `Error` frame, every shard keeps serving byte-identical answers,
//!    and a session whose turn panicked is evicted (a journaled restart
//!    does not bring it back, and its next turn starts cold).

use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_kb::OnTheFlyKb;
use qkb_net::{JournalConfig, NetClient, NetConfig, NetError, QkbNetServer};
use qkb_obs::{FieldValue, Recorder};
use qkb_qa::QaSystem;
use qkb_serve::{
    QkbServer, QueryEngine, QueryRequest, QueryResponse, ServeConfig, Served, SessionConfig,
};
use std::sync::{mpsc, Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A small but real engine: generated world, BM25 corpus, QKBfly system.
fn engine() -> QaSystem {
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
    sys
}

fn questions(sys: &QaSystem, n: usize) -> Vec<String> {
    trends_test(sys.world(), n, 13)
        .into_iter()
        .map(|q| q.text)
        .collect()
}

/// `n` questions whose retrieved document sets are pairwise distinct, so
/// none can be served from another's fragment.
fn distinct_retrievals(sys: &QaSystem, n: usize) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let qs: Vec<String> = questions(sys, 20)
        .into_iter()
        .filter(|q| seen.insert(sys.retrieve_docs(q)))
        .take(n)
        .collect();
    assert_eq!(qs.len(), n, "fixture needs {n} distinct retrievals");
    qs
}

/// The offline reference path: retrieve → build_kb → answer_in_kb.
fn cold_answers(sys: &QaSystem, question: &str) -> Vec<String> {
    let doc_ids = sys.retrieve_docs(question);
    let texts = sys.doc_texts(&doc_ids);
    let kb = sys.qkbfly().build_kb(&texts).kb;
    sys.answer_in_kb(question, &kb)
}

#[test]
fn cache_hit_answers_are_byte_identical_to_cold_builds() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 4);
    let expected: Vec<Vec<String>> = qs.iter().map(|q| cold_answers(&sys, q)).collect();

    for shards in [1usize, 3] {
        let server = QkbServer::start(
            sys.clone(),
            ServeConfig {
                shards,
                cache_capacity: 16,
                ..ServeConfig::default()
            },
        );
        for (q, want) in qs.iter().zip(&expected) {
            let cold = server.query(QueryRequest::question(q));
            let warm = server.query(QueryRequest::question(q));
            assert_eq!(
                &cold.answers, want,
                "served cold answers must match the offline path ({shards} shards)"
            );
            assert_eq!(
                &warm.answers, want,
                "cache-hit answers must be byte-identical ({shards} shards)"
            );
            assert_eq!(warm.served, Served::CacheHit);
            assert_eq!(warm.fragment_key, cold.fragment_key);
        }
        let stats = server.stats();
        assert!(stats.cache.hits >= qs.len() as u64);
        server.shutdown();
    }
}

#[test]
fn k_concurrent_identical_queries_build_exactly_once() {
    let sys = Arc::new(engine());
    let question = questions(&sys, 1).remove(0);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1, // one request at a time: the count below is exact
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let builds_before = sys.qkbfly().counters().builds();

    const K: usize = 8;
    let barrier = Barrier::new(K);
    let reference = cold_answers(&sys, &question);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..K {
            let client = server.client();
            let question = question.clone();
            let barrier = &barrier;
            handles.push(scope.spawn(move || {
                barrier.wait();
                client.query(QueryRequest::question(&question))
            }));
        }
        for h in handles {
            let response = h.join().expect("client");
            assert_eq!(response.answers, reference);
        }
    });

    let builds_after = sys.qkbfly().counters().builds();
    // One for the reference cold build above, one for all K served queries.
    assert_eq!(
        builds_after - builds_before,
        2,
        "K concurrent identical queries must share one build"
    );
    let stats = server.stats();
    assert!(
        stats.cache.hits + stats.inflight_coalesced >= (K - 1) as u64,
        "stats must account for the shared requests: {stats:?}"
    );
    server.shutdown();
}

/// The engine call a [`GateEngine`] holds.
#[derive(Clone, Copy, PartialEq)]
enum Held {
    Retrieve,
    DocTexts,
}

/// An engine whose first call of one kind blocks until
/// [`GateEngine::open`] — given a question, the first such call for that
/// question: it holds a shard busy while other requests queue behind it
/// (`retrieve`) or reach other shards (`doc_texts`, which a shard calls
/// once it has claimed the build). Gates nest, each holding its own call.
struct GateEngine<E> {
    inner: E,
    held: Held,
    /// The question whose call is held; `None` holds the first call of
    /// the kind for any question.
    question: Option<String>,
    gate: Mutex<(bool, bool)>, // (a call is held, the gate is open)
    cond: Condvar,
}

impl<E: QueryEngine> GateEngine<E> {
    fn new(inner: E, held: Held, question: Option<&str>) -> Self {
        Self {
            inner,
            held,
            question: question.map(str::to_string),
            gate: Mutex::new((false, false)),
            cond: Condvar::new(),
        }
    }

    /// Blocks until a shard is held inside the first held call.
    fn wait_held(&self) {
        let mut gate = self.gate.lock().unwrap();
        while !gate.0 {
            gate = self.cond.wait(gate).unwrap();
        }
    }

    fn open(&self) {
        self.gate.lock().unwrap().1 = true;
        self.cond.notify_all();
    }

    /// Holds the first `call` of the held kind whose question `asks` the
    /// held one until the gate opens.
    fn pass(&self, call: Held, asks: impl FnOnce(&str) -> bool) {
        if call != self.held || !self.question.as_deref().is_none_or(asks) {
            return;
        }
        let mut gate = self.gate.lock().unwrap();
        if !gate.0 {
            gate.0 = true;
            self.cond.notify_all();
            while !gate.1 {
                gate = self.cond.wait(gate).unwrap();
            }
        }
    }
}

impl<E: QueryEngine> QueryEngine for GateEngine<E> {
    fn qkbfly(&self) -> &qkbfly::Qkbfly {
        self.inner.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        self.pass(Held::Retrieve, |q| request.text == q);
        self.inner.retrieve(request)
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        self.pass(Held::DocTexts, |q| {
            self.inner.retrieve(&QueryRequest::question(q)) == doc_ids
        });
        self.inner.doc_texts(doc_ids)
    }

    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        self.inner.doc_fingerprint(doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        self.inner.answer_kb(request, kb)
    }
}

/// Two shards, one question asked twice: the second ask reaches the
/// free shard while the first shard's build is held after its claim.
/// With the fragment cache on, the second waits for that build and is
/// served `Coalesced`: one build for both. With the cache off nothing
/// is shared: the second builds on its own and is answered while the
/// first is still held. Every answer equals the cold build's.
#[test]
fn in_flight_builds_are_shared_across_shards_exactly_when_the_cache_is_on() {
    let sys = Arc::new(engine());
    let question = questions(&sys, 1).remove(0);
    let reference = cold_answers(&sys, &question);
    for cache_capacity in [16usize, 0] {
        let gate = Arc::new(GateEngine::new(sys.clone(), Held::DocTexts, None));
        let server = QkbServer::start(
            gate.clone(),
            ServeConfig {
                shards: 2,
                cache_capacity,
                ..ServeConfig::default()
            },
        );
        let builds_before = sys.qkbfly().counters().builds();
        let (first, second) = std::thread::scope(|scope| {
            let ask = || {
                let client = server.client();
                let question = &question;
                move || client.query(QueryRequest::question(question))
            };
            let first = scope.spawn(ask());
            gate.wait_held();
            let (tx, rx) = mpsc::channel();
            let second = ask();
            scope.spawn(move || tx.send(second()));
            let second = if cache_capacity > 0 {
                let deadline = Instant::now() + Duration::from_secs(30);
                while server.stats().inflight_coalesced == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                gate.open();
                rx.recv().unwrap()
            } else {
                let second = rx.recv_timeout(Duration::from_secs(30));
                gate.open();
                second.expect("with the cache off the second ask must not wait for the first")
            };
            (first.join().unwrap(), second)
        });
        let stats = server.stats();
        server.shutdown();
        let builds = sys.qkbfly().counters().builds() - builds_before;
        assert_eq!(first.answers, reference, "cache {cache_capacity}");
        assert_eq!(second.answers, reference, "cache {cache_capacity}");
        assert_eq!(first.served, Served::ColdBuild);
        if cache_capacity > 0 {
            assert_eq!(stats.inflight_coalesced, 1, "{stats:?}");
            assert_eq!(second.served, Served::Coalesced);
            assert_eq!(builds, 1, "one build serves both asks");
        } else {
            assert_eq!(stats.inflight_coalesced, 0, "{stats:?}");
            assert_eq!(second.served, Served::ColdBuild);
            assert_eq!(builds, 2, "each ask builds on its own");
        }
    }
}

/// A reply never waits for work queued after it. One shard is held in
/// X's retrieval while a cache hit H and then a miss M queue behind it;
/// released, the shard answers H while M's build is still held. Every
/// answer equals the cold build's.
#[test]
fn a_reply_never_waits_for_work_queued_after_it() {
    let sys = Arc::new(engine());
    let qs = distinct_retrievals(&sys, 3);
    let (x, h, m) = (&qs[0], &qs[1], &qs[2]);
    let hold_m = Arc::new(GateEngine::new(sys.clone(), Held::DocTexts, Some(m)));
    let hold_x = Arc::new(GateEngine::new(hold_m.clone(), Held::Retrieve, Some(x)));
    let server = QkbServer::start(
        hold_x.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    server.query(QueryRequest::question(h)); // warms H's fragment
    let ask = |q: &str| {
        let client = server.client();
        let q = q.to_string();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(client.try_query(QueryRequest::question(q))));
        rx
    };
    let x_reply = ask(x);
    hold_x.wait_held();
    let h_reply = ask(h);
    // Let H reach the admission queue ahead of M, and M queue too before
    // the shard is released: a shard that took both at once would hold
    // H's reply behind M's build.
    std::thread::sleep(Duration::from_millis(100));
    let m_reply = ask(m);
    std::thread::sleep(Duration::from_millis(100));
    hold_x.open();
    let h_answer = h_reply.recv_timeout(Duration::from_secs(30));
    // Release M whatever happened, so the server can shut down.
    hold_m.open();
    let h_answer = h_answer
        .expect("H must be answered while M's build is held")
        .expect("answered");
    let answer_of = |rx: mpsc::Receiver<Option<QueryResponse>>| {
        rx.recv_timeout(Duration::from_secs(30))
            .expect("a reply")
            .expect("answered")
    };
    assert_eq!(h_answer.served, Served::CacheHit);
    assert_eq!(h_answer.answers, cold_answers(&sys, h));
    assert_eq!(answer_of(x_reply).answers, cold_answers(&sys, x));
    let m_answer = answer_of(m_reply);
    assert_eq!(m_answer.served, Served::ColdBuild);
    assert_eq!(m_answer.answers, cold_answers(&sys, m));
    server.shutdown();
}

#[test]
fn capacity_one_cache_evicts_under_alternation_and_hits_under_repeats() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 2);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 1,
            ..ServeConfig::default()
        },
    );
    // Repetition: second ask hits.
    let a1 = server.query(QueryRequest::question(&qs[0]));
    let a2 = server.query(QueryRequest::question(&qs[0]));
    assert_eq!(a2.served, Served::CacheHit);
    assert_eq!(a1.answers, a2.answers);
    // Alternation with one slot: every switch evicts, never hits —
    // unless both questions happen to retrieve identical documents.
    let b = server.query(QueryRequest::question(&qs[1]));
    let a3 = server.query(QueryRequest::question(&qs[0]));
    let stats = server.stats();
    if b.fragment_key != a1.fragment_key {
        assert_eq!(b.served, Served::ColdBuild);
        assert_eq!(a3.served, Served::ColdBuild);
        assert!(stats.cache.evictions >= 2, "stats: {stats:?}");
    }
    assert_eq!(a3.answers, a1.answers);
    server.shutdown();
}

/// Incremental fragment construction: two queries whose retrieved sets
/// overlap must run stage 1 exactly once per *union* document — the
/// second query's fragment is assembled from the first's cached
/// per-document artifacts plus stage-1 runs for the difference only.
#[test]
fn overlapping_queries_compute_stage1_once_per_union_document() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 10);
    let sets: Vec<Vec<usize>> = qs.iter().map(|q| sys.retrieve_docs(q)).collect();
    // Pick a pair with overlapping but distinct retrieved sets (top-4
    // BM25 over a 20-doc corpus makes one near-certain).
    let (i, j) = (0..qs.len())
        .flat_map(|a| (0..qs.len()).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b && sets[a] != sets[b])
        .find(|&(a, b)| sets[a].iter().any(|d| sets[b].contains(d)))
        .expect("no overlapping retrieved-set pair in the fixture");
    let expected_i = cold_answers(&sys, &qs[i]);
    let expected_j = cold_answers(&sys, &qs[j]);
    // Stage-1 identity is the document text; union size counts distinct texts.
    let union: std::collections::HashSet<String> = sets[i]
        .iter()
        .chain(&sets[j])
        .flat_map(|&d| sys.doc_texts(&[d]))
        .collect();
    let overlap = sets[i].len() + sets[j].len() - union.len();
    assert!(overlap > 0);

    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            stage1_cache_bytes: 256 << 20,
            ..ServeConfig::default()
        },
    );
    let before = sys.qkbfly().counters().stage1_computed();
    let r1 = server.query(QueryRequest::question(&qs[i]));
    let r2 = server.query(QueryRequest::question(&qs[j]));
    assert_eq!(
        sys.qkbfly().counters().stage1_computed() - before,
        union.len() as u64,
        "stage 1 must run once per union document, not per query"
    );
    // Assembled answers are byte-identical to the offline cold path.
    assert_eq!(r1.answers, expected_i);
    assert_eq!(r2.answers, expected_j);
    assert_ne!(r1.fragment_key, r2.fragment_key);
    let stats = server.stats();
    assert_eq!(
        stats.stage1.hits, overlap as u64,
        "every shared document is a stage-1 hit: {stats:?}"
    );
    assert_eq!(stats.stage1.misses, union.len() as u64);
    assert_eq!(stats.cold_builds, 1, "the first query is fully cold");
    assert_eq!(
        stats.assembled_builds, 1,
        "the second query must be assembled from cached artifacts"
    );
    server.shutdown();
}

/// Disabling tier one (stage-1 bytes = 0) reproduces the fragment-only
/// PR 2 behavior: overlapping queries re-pay stage 1 per document.
#[test]
fn disabled_stage1_cache_recomputes_overlap() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 4);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            stage1_cache_bytes: 0,
            ..ServeConfig::default()
        },
    );
    // Keep only queries with pairwise-distinct retrieved sets, so none
    // of them can short-circuit through the fragment cache.
    let mut seen_sets: Vec<Vec<usize>> = Vec::new();
    let distinct: Vec<&String> = qs
        .iter()
        .filter(|q| {
            let set = sys.retrieve_docs(q);
            if seen_sets.contains(&set) {
                false
            } else {
                seen_sets.push(set);
                true
            }
        })
        .collect();
    let total_docs: usize = seen_sets.iter().map(Vec::len).sum();
    let before = sys.qkbfly().counters().stage1_computed();
    for q in &distinct {
        let _ = server.query(QueryRequest::question(*q));
    }
    assert_eq!(
        sys.qkbfly().counters().stage1_computed() - before,
        total_docs as u64,
        "tier one off: every query pays stage 1 for its whole set"
    );
    let stats = server.stats();
    assert_eq!(stats.assembled_builds, 0);
    assert_eq!(stats.stage1.hits + stats.stage1.misses, 0);
    server.shutdown();
}

/// Session-scoped streaming: successive queries in one session stream
/// their retrieved documents into one growing KB, and every turn's
/// answer is byte-identical to answering over a cold `build_kb` of the
/// union of all documents retrieved so far (first-arrival order). Stage 1
/// runs once per distinct document — across turns *and* across sessions,
/// through the shared per-document cache.
#[test]
fn session_turns_answer_from_the_accumulated_union_kb() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 4);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 2,
            stage1_cache_bytes: 256 << 20,
            ..ServeConfig::default()
        },
    );
    let mut union: Vec<String> = Vec::new();
    let mut retrieved_total = 0usize;
    for (turn, q) in qs.iter().enumerate() {
        let response = server.query_in_session("alice", QueryRequest::question(q));
        // Offline mirror of the session's accumulated document set.
        let texts = sys.doc_texts(&sys.retrieve_docs(q));
        retrieved_total += texts.len();
        for text in texts {
            if !union.contains(&text) {
                union.push(text);
            }
        }
        let expected = sys.answer_in_kb(q, &sys.qkbfly().build_kb(&union).kb);
        assert_eq!(
            response.answers, expected,
            "turn {turn}: session answer must equal the cold union build's"
        );
        assert_eq!(response.n_docs, union.len(), "turn {turn}");
        assert_eq!(
            response.served,
            if turn == 0 {
                Served::SessionCold
            } else {
                Served::SessionExtended
            },
            "turn {turn}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.sessions.docs_merged as usize, union.len());
    assert_eq!(
        stats.sessions.docs_deduped as usize,
        retrieved_total - union.len(),
        "every re-retrieved document is streaming-deduped: {stats:?}"
    );
    assert_eq!(stats.sessions.turns_cold, 1);
    assert_eq!(stats.sessions.turns_extended, (qs.len() - 1) as u64);
    assert_eq!(stats.sessions.live, 1);
    assert_eq!(
        stats.stage1.misses as usize,
        union.len(),
        "stage 1 is provided once per distinct session document"
    );

    // A second session opening on the same documents doesn't even need
    // the stage-1 cache: it forks Alice's frozen opening prefix from the
    // prefix forest — zero lookups, zero rebuild — and still answers
    // byte-identically to a cold build.
    let lookups_before = {
        let s = server.stats().stage1;
        s.hits + s.misses
    };
    let response = server.query_in_session("bob", QueryRequest::question(&qs[0]));
    assert_eq!(response.served, Served::SessionForked);
    assert_eq!(response.answers, cold_answers(&sys, &qs[0]));
    let stats = server.stats();
    assert_eq!(stats.sessions.live, 2);
    assert_eq!(stats.sessions.turns_forked, 1);
    assert!(stats.sessions.forest.shared_bytes > 0);
    assert_eq!(
        stats.stage1.hits + stats.stage1.misses,
        lookups_before,
        "a forked opening reuses the shared prefix without stage-1 traffic"
    );
    server.shutdown();
}

/// Session turns feed the same stage metrics as one-shot builds: a turn
/// with fresh documents shows up in `build_timings` and
/// `resolve_counters`, but it is not a fragment build.
#[test]
fn session_turns_feed_the_stage_metrics() {
    let sys = Arc::new(engine());
    let q = questions(&sys, 1).remove(0);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let before = server.stats();
    let turn = server.query_in_session("alice", QueryRequest::question(&q));
    assert_eq!(turn.served, Served::SessionCold);
    let stats = server.stats();
    assert!(stats.sessions.docs_merged > 0);
    assert!(
        stats.build_timings.resolve > before.build_timings.resolve,
        "a turn's resolve time must be counted: {stats:?}"
    );
    assert!(
        stats.resolve_counters.components > before.resolve_counters.components,
        "a turn's resolve components must be counted: {stats:?}"
    );
    assert_eq!(
        stats.cold_builds + stats.assembled_builds,
        before.cold_builds + before.assembled_builds
    );
    server.shutdown();
}

/// A retrieval that returns its first document twice, as a retriever may
/// when two ids carry the same text.
struct RepeatingEngine(Arc<QaSystem>);

impl QueryEngine for RepeatingEngine {
    fn qkbfly(&self) -> &qkbfly::Qkbfly {
        self.0.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        let mut ids = self.0.retrieve(request);
        ids.push(ids[0]);
        ids
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        self.0.doc_texts(doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        self.0.answer_kb(request, kb)
    }
}

/// A one-shot retrieval that repeats a text builds the same KB a session
/// opened on the same ids does — the repeat is merged once on both paths
/// — while `n_docs` still reports what retrieval returned.
#[test]
fn repeated_retrieval_answers_like_a_session_on_the_same_ids() {
    let engine = RepeatingEngine(Arc::new(engine()));
    let q = questions(&engine.0, 1).remove(0);
    let retrieved = engine.retrieve(&QueryRequest::question(&q)).len();
    assert!(retrieved >= 2);
    let server = QkbServer::start(
        engine,
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let one_shot = server.query(QueryRequest::question(&q));
    assert_eq!(one_shot.served, Served::ColdBuild);
    let session = server.query_in_session("s", QueryRequest::question(&q));
    assert_eq!(session.served, Served::SessionCold);
    assert_eq!(one_shot.answers, session.answers);
    assert_eq!(one_shot.n_facts, session.n_facts);
    assert_eq!(one_shot.n_docs, retrieved);
    assert_eq!(
        session.n_docs,
        retrieved - 1,
        "the session KB holds each text once"
    );
    server.shutdown();
}

/// Two sessions over the same documents with no tier shared between
/// them: the stage-1 cache and the forest are off, so the second session
/// re-runs the whole resolve stage. Its answers and its session KB are
/// byte-identical to the first's.
#[test]
fn cross_session_rebuild_is_byte_identical() {
    let sys = Arc::new(engine());
    let q = questions(&sys, 1).remove(0);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 2,
            stage1_cache_bytes: 0, // force the resolve stage to re-run
            // Forest off: a fork would skip the rebuild entirely.
            session: SessionConfig {
                forest_bytes: 0,
                ..SessionConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let alice = server.query_in_session("alice", QueryRequest::question(&q));
    assert_eq!(alice.served, Served::SessionCold);
    let cold = server.stats().resolve_counters.components;
    assert!(cold > 0, "the cold session must resolve");

    let bob = server.query_in_session("bob", QueryRequest::question(&q));
    assert_eq!(bob.served, Served::SessionCold);
    assert_eq!(bob.answers, alice.answers);
    assert_eq!(
        server.session_kb_json("bob").expect("bob's session"),
        server.session_kb_json("alice").expect("alice's session"),
        "a rebuilt session KB is byte-identical"
    );
    assert_eq!(
        server.stats().resolve_counters.components,
        2 * cold,
        "both sessions ran resolve"
    );
    server.shutdown();
}

/// Reading a session's KB is not a use: the read neither refreshes the
/// session's LRU position nor creates a session for an unknown id.
#[test]
fn reading_a_session_kb_does_not_claim_it() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 3);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            session: SessionConfig {
                max_sessions: 2,
                ..SessionConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    server.query_in_session("a", QueryRequest::question(&qs[0]));
    server.query_in_session("b", QueryRequest::question(&qs[1]));
    assert!(server.session_kb_json("a").is_some());
    assert_eq!(server.session_kb_json("nobody"), None);
    server.query_in_session("c", QueryRequest::question(&qs[2]));
    let mut ids = server.session_ids();
    ids.sort();
    assert_eq!(ids, ["b", "c"], "a stayed the least recently used");
    assert_eq!(server.stats().sessions.created, 3);
    server.shutdown();
}

/// The serving layer's session TTL: an idle session expires and its id
/// starts cold on the next query, with the eviction counted.
#[test]
fn idle_sessions_expire_through_the_serve_config_ttl() {
    let sys = Arc::new(engine());
    let q = questions(&sys, 1).remove(0);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            session: SessionConfig {
                ttl: Duration::from_millis(50),
                ..SessionConfig::default()
            },
            ..ServeConfig::default()
        },
    );
    let first = server.query_in_session("s", QueryRequest::question(&q));
    assert_eq!(first.served, Served::SessionCold);
    let warm = server.query_in_session("s", QueryRequest::question(&q));
    assert_eq!(
        warm.served,
        Served::SessionExtended,
        "inside the TTL the session persists (even with nothing new to merge)"
    );
    std::thread::sleep(Duration::from_millis(80));
    server.sweep_sessions();
    assert_eq!(server.stats().sessions.evicted_ttl, 1);
    // The id starts over (its private delta is gone) — but its opening
    // prefix is still frozen in the forest, so the restart forks it
    // instead of rebuilding.
    let cold_again = server.query_in_session("s", QueryRequest::question(&q));
    assert_eq!(cold_again.served, Served::SessionForked);
    assert_eq!(cold_again.answers, first.answers);
    server.shutdown();
}

/// `reset_stats` is a phase boundary: counters drop to zero, resident
/// state (cached fragments, live sessions) survives.
#[test]
fn reset_stats_zeroes_counters_but_keeps_resident_state() {
    let sys = Arc::new(engine());
    let qs = questions(&sys, 2);
    let server = QkbServer::start(
        sys.clone(),
        ServeConfig {
            shards: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let _ = server.query(QueryRequest::question(&qs[0]));
    let _ = server.query_in_session("s", QueryRequest::question(&qs[1]));
    let before = server.stats();
    assert!(before.requests == 2 && before.sessions.turns() == 1);
    server.reset_stats();
    let after = server.stats();
    assert_eq!(after.requests, 0);
    assert_eq!(after.cache.hits + after.cache.misses, 0);
    assert_eq!(after.stage1.hits + after.stage1.misses, 0);
    assert_eq!(after.sessions.turns(), 0);
    assert_eq!(after.latency_p95_ms, 0.0);
    // Resident state survives the reset: the repeat is still a cache
    // hit and the session still extends.
    assert_eq!(after.cache.entries, before.cache.entries);
    assert_eq!(after.sessions.live, 1);
    let warm = server.query(QueryRequest::question(&qs[0]));
    assert_eq!(warm.served, Served::CacheHit);
    let turn = server.query_in_session("s", QueryRequest::question(&qs[1]));
    assert_eq!(turn.served, Served::SessionExtended);
    let stats = server.stats();
    assert_eq!((stats.requests, stats.cache.hits), (2, 1));
    server.shutdown();
}

#[test]
fn entity_seed_requests_serve_rendered_facts() {
    let sys = Arc::new(engine());
    // Seed with the subject of a gold fact so retrieval has something.
    let seed = sys
        .world()
        .entity(sys.world().facts[0].subject)
        .canonical
        .clone();
    let server = QkbServer::start(sys.clone(), ServeConfig::default());
    let response = server.query(QueryRequest::entity(&seed));
    for fact in &response.answers {
        // Facts are rendered in the paper's ⟨subject, relation, …⟩
        // notation and each must actually mention the seed entity.
        assert!(
            fact.starts_with('⟨') && fact.ends_with('⟩'),
            "fact notation expected, got {fact:?}"
        );
        assert!(fact.contains(&seed), "fact must touch {seed:?}: {fact:?}");
    }
    // The same seed asked twice reuses the fragment.
    let again = server.query(QueryRequest::entity(&seed));
    assert_eq!(response.answers, again.answers);
    assert_eq!(again.served, Served::CacheHit);
    server.shutdown();
}

/// Marks a question whose answer panics inside the engine.
const PANIC_MARKER: &str = "#panic";

/// An engine whose `answer_kb` panics on a question carrying
/// [`PANIC_MARKER`]: an engine fault on one request.
struct PanicEngine(Arc<QaSystem>);

impl QueryEngine for PanicEngine {
    fn qkbfly(&self) -> &qkbfly::Qkbfly {
        self.0.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        self.0.retrieve(request)
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        self.0.doc_texts(doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        assert!(
            !request.text.contains(PANIC_MARKER),
            "engine fault on {:?}",
            request.text
        );
        self.0.answer_kb(request, kb)
    }
}

/// Runs `f` on its own thread and waits at most 60 s for it, so a server
/// left with no live shard fails the test instead of hanging it.
fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(60))
        .expect("it panicked, or hung for 60 s")
}

/// Two panics on a two-shard server, over loopback TCP with a journal:
/// each panicking request gets an `Error` frame, the connection serves on,
/// and both shards keep answering byte-identically to cold builds. The
/// panicking turn evicts its session (a `panic` eviction, counted as
/// neither TTL nor pressure), so a restart does not bring it back and its
/// next turn starts cold, on a KB byte-identical to a fresh session's
/// after the same turn. Another session is untouched.
#[test]
fn panicking_requests_fail_alone_and_every_shard_keeps_serving() {
    let sys = Arc::new(engine());
    let qs = distinct_retrievals(&sys, 3);
    let dir = std::env::temp_dir().join(format!("qkb_serving_panic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let recorder = Recorder::flight();
    let config = {
        let (dir, recorder) = (dir.clone(), recorder.clone());
        move || NetConfig {
            journal: Some(JournalConfig {
                fsync: false,
                ..JournalConfig::new(&dir)
            }),
            serve: ServeConfig {
                shards: 2,
                recorder: recorder.clone(),
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        }
    };
    let ask = |q: &str| QueryRequest::question(q);
    // The first life runs under a timeout: with no live shard left, a
    // request would wait forever.
    let (sys1, qs1, config1) = (sys.clone(), qs.clone(), config.clone());
    let other_kb = within(move || {
        let (sys, qs) = (sys1, qs1);
        let failed = |reply: Result<_, NetError>| match reply {
            Err(NetError::Server(message)) => assert_eq!(message, "request failed"),
            other => panic!("a panicking request must get an Error frame, got {other:?}"),
        };
        let marked = format!("{} {PANIC_MARKER}", qs[1]);
        let server = QkbNetServer::start(PanicEngine(sys.clone()), config1()).unwrap();
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        failed(client.query(ask(&marked)));
        client.query_in_session("o", ask(&qs[1])).unwrap();
        let other_kb = server.session_kb_json("o").expect("o is resident");
        client.query_in_session("s", ask(&qs[0])).unwrap();
        failed(client.query_in_session("s", ask(&marked)));
        assert_eq!(server.session_kb_json("s"), None, "s is evicted");
        assert_eq!(server.session_kb_json("o").as_ref(), Some(&other_kb));
        for q in &qs {
            let answer = client.query(ask(q)).expect("an ordinary request");
            assert_eq!(answer.answers, cold_answers(&sys, q));
        }
        let stats = server.stats().serve;
        assert_eq!(stats.request_panics, 2);
        let evicted = (stats.sessions.evicted_ttl, stats.sessions.evicted_pressure);
        assert_eq!(evicted, (0, 0));
        other_kb
    });
    let panic_evictions = recorder.records().into_iter().filter(|r| {
        r.name == "session_evict" && r.fields.contains(&("reason", FieldValue::Str("panic")))
    });
    assert_eq!(panic_evictions.count(), 1);
    let restarted = QkbNetServer::start(PanicEngine(sys.clone()), config()).unwrap();
    assert_eq!(
        restarted.session_kb_json("s"),
        None,
        "a restart does not bring s back"
    );
    assert_eq!(restarted.session_kb_json("o"), Some(other_kb));
    let mut client = NetClient::connect(restarted.local_addr()).unwrap();
    let next = client.query_in_session("s", ask(&qs[2])).unwrap();
    assert_eq!(next.served, Served::SessionCold);
    let fresh = client.query_in_session("fresh", ask(&qs[2])).unwrap();
    assert_eq!(next.answers, fresh.answers);
    assert_eq!(
        restarted.session_kb_json("s").expect("s is resident"),
        restarted
            .session_kb_json("fresh")
            .expect("fresh is resident")
    );
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}
