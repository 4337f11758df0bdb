//! The sharded serving front-end.
//!
//! ```text
//!  clients ──► admission queue ──► N worker shards (cloned Qkbfly handle each)
//!                  │                   │
//!                  │ takes the         ├─ group batch by normalized query
//!                  │ backlog (≤ max)   ├─ fragment cache?  ── hit ──► answer
//!                  ▼                   ├─ in-flight table? ── wait ─► answer
//!            [j1 j2 j3 …]             └─ misses: provide_stage1(union)
//!                                         then extend_kb(empty KB) per group
//! ```
//!
//! Scheduling properties:
//! * **admission batching** — a worker that finds the queue non-empty
//!   takes every request already waiting (up to `batch_max`) without
//!   waiting for more, so batches form only from requests that queued
//!   while the shards were busy and an idle server never holds a request
//!   back. It then builds every missing fragment in **one** round: a
//!   single `provide_stage1` over the union of the groups' documents (the
//!   per-document fan-out, shared across distinct queries), then one
//!   `extend_kb` fold into an empty KB per group;
//! * **request coalescing** — identical normalized queries in one batch
//!   collapse to a single group, and a group whose fragment is already
//!   being built by another shard waits on that build instead of starting
//!   a redundant one (a global in-flight table keyed like the cache);
//! * **fragment reuse** — the sharded LRU [`FragmentCache`] is keyed by
//!   the fingerprint of the retrieved-document set, so *different*
//!   questions that retrieve the same documents share one fragment;
//! * **incremental construction** — a per-document stage-1 cache
//!   ([`Stage1Cache`], byte-bounded) sits in front of the fragment
//!   cache: a fragment miss whose documents overlap earlier queries is
//!   *assembled* from memoized stage-1 artifacts, running the expensive
//!   per-document phase only for documents never seen before;
//! * **determinism** — every fragment is the one deterministic
//!   document-order fold into an empty KB (so an assembled fragment is
//!   byte-identical to a cold build of the same documents) and answers
//!   are a pure function of `(request, kb)`, so a cache-hit or assembled
//!   answer is byte-identical to a cold-build answer at any shard count.

use crate::cache::FragmentCache;
use crate::engine::QueryEngine;
use crate::request::{QueryRequest, QueryResponse, Served};
use crate::stage1_cache::Stage1Cache;
use crate::stats::{ServeMetrics, ServeStats};
use qkb_kb::OnTheFlyKb;
use qkb_obs::{OpenSpan, Recorder, Registry, RegistrySnapshot, SpanCtx};
use qkb_session::{SessionConfig, SessionManager};
use qkb_util::FxHashMap;
use qkbfly::{Qkbfly, ResolveCounters, StageTimings};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One committed session turn, as observed by a [`TurnLog`].
///
/// The fields are exactly what a write-ahead journal needs to replay the
/// turn after a restart: the session, the turn's sequence number within
/// it, whether the session KB was empty before the turn (a *cold* record
/// resets the session's replayable history — everything before it
/// describes a KB that no longer exists), the retrieved document ids and
/// the fingerprint of their texts (the replay-time staleness check).
#[derive(Clone, Copy, Debug)]
pub struct LoggedTurn<'a> {
    /// The session the turn extended.
    pub session_id: &'a str,
    /// 1-based turn sequence number within the session.
    pub turn: u64,
    /// True when the session KB was empty before this turn.
    pub cold: bool,
    /// The turn's retrieved document ids, in retrieval order.
    pub doc_ids: &'a [usize],
    /// `fingerprint_seq` of the documents' texts.
    pub docs_fingerprint: u64,
}

/// Observer of committed session turns — the durability hook.
///
/// [`ServeConfig::turn_log`] attaches one to the server; the shard calls
/// it **while still holding the session's slot lock**, immediately after
/// the extend commits. That ordering is the journal's soundness
/// argument: concurrent turns on one session serialize on the slot lock,
/// so the log's append order equals the order the documents actually
/// merged into the KB — replaying the log replays the same
/// first-arrival order and therefore the same bytes.
pub trait TurnLog: Send + Sync + 'static {
    /// Records one committed turn. Must not call back into the server.
    fn log_turn(&self, turn: &LoggedTurn<'_>);
}

/// Lock shards inside each cache tier.
const LOCK_SHARDS: usize = 8;

/// `QkbflyConfig::parallelism` of each shard's builds: shards already
/// run in parallel, so one worker per build avoids oversubscribing cores.
const BUILD_PARALLELISM: usize = 1;

/// Serving-layer configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker shards (each holds a cloned `Qkbfly` handle);
    /// `0` = one per available core, capped at 8.
    pub shards: usize,
    /// Fragment-cache capacity in fragments; `0` disables the cache.
    pub cache_capacity: usize,
    /// Per-document stage-1 cache capacity in approximate bytes; `0`
    /// disables tier one (every fragment miss becomes a fully cold
    /// build — the PR 2 behavior).
    pub stage1_cache_bytes: u64,
    /// Maximum queued requests a worker takes as one admission batch;
    /// `1` turns batching off.
    pub batch_max: usize,
    /// Share in-flight builds across shards (off reproduces the
    /// redundant-build baseline for benchmarks).
    pub coalesce: bool,
    /// The session store behind [`QkbServer::query_in_session`]: total
    /// byte budget across resident session KBs, idle TTL, session cap,
    /// and the prefix forest that lets a session opening on a document
    /// sequence another session already built fork its frozen prefix in
    /// O(1) (the byte budget then charges each session only its private
    /// delta).
    pub session: SessionConfig,
    /// Tracing recorder every request, build and session turn reports
    /// into. The default disabled recorder costs one branch per
    /// would-be span; pass `Recorder::flight()` (or a slow-log
    /// configured one) to capture span trees for
    /// [`qkb_obs::chrome_trace`] export.
    pub recorder: Recorder,
    /// The one metrics registry every tier counts into (the network tier
    /// and its journal too). `Default` makes a fresh one; clones of a
    /// config share it, so two servers started from clones of one config
    /// count into the same cells.
    pub registry: Registry,
    /// Committed-session-turn observer (`None` = no durability). The
    /// network tier attaches its write-ahead journal here; see
    /// [`TurnLog`] for the ordering contract.
    pub turn_log: Option<Arc<dyn TurnLog>>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("shards", &self.shards)
            .field("cache_capacity", &self.cache_capacity)
            .field("stage1_cache_bytes", &self.stage1_cache_bytes)
            .field("batch_max", &self.batch_max)
            .field("coalesce", &self.coalesce)
            .field("session", &self.session)
            .field("recorder", &self.recorder)
            .field("registry", &self.registry)
            .field("turn_log", &self.turn_log.as_ref().map(|_| "Some(..)"))
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 0,
            cache_capacity: 128,
            stage1_cache_bytes: 64 << 20,
            batch_max: 8,
            coalesce: true,
            session: SessionConfig::default(),
            recorder: Recorder::disabled(),
            registry: Registry::new(),
            turn_log: None,
        }
    }
}

impl ServeConfig {
    fn resolved_shards(&self) -> usize {
        if self.shards != 0 {
            self.shards
        } else {
            qkb_util::effective_parallelism(0).min(8)
        }
    }
}

/// One enqueued request with its reply channel.
struct Job {
    request: QueryRequest,
    key: String,
    /// `Some(session_id)` routes the job through the session path: the
    /// retrieved documents stream into that session's accumulated KB and
    /// the answer comes from it, bypassing the fragment cache.
    session: Option<String>,
    enqueued: Instant,
    /// The request's root span, opened at admission on the client thread
    /// and closed by whichever shard sends the reply. `OpenSpan::none()`
    /// when tracing is disabled.
    trace: OpenSpan,
    reply: mpsc::Sender<QueryResponse>,
}

/// A Condvar-fronted MPMC queue with batch draining.
struct AdmissionQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl AdmissionQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
        }
    }

    /// Enqueues a job; fails once the queue is closed.
    fn push(&self, job: Job) -> Result<(), ()> {
        let mut state = self.state.lock().expect("admission queue");
        if state.closed {
            return Err(());
        }
        state.jobs.push_back(job);
        drop(state);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks until a first job arrives, then takes it and whatever else
    /// is already queued, up to `max` jobs (at least one). Never waits for
    /// more. Returns an empty vec only when the queue is closed and
    /// drained.
    fn pop_batch(&self, max: usize) -> Vec<Job> {
        let mut state = self.state.lock().expect("admission queue");
        while state.jobs.is_empty() {
            if state.closed {
                return Vec::new();
            }
            state = self.cond.wait(state).expect("admission queue");
        }
        let n = state.jobs.len().min(max.max(1));
        state.jobs.drain(..n).collect()
    }

    fn close(&self) {
        self.state.lock().expect("admission queue").closed = true;
        self.cond.notify_all();
    }
}

/// State of one in-flight fragment build.
enum SlotState {
    /// The leader is still building.
    Pending,
    /// Built and published.
    Done(Arc<OnTheFlyKb>),
    /// The leader died (panicked) before publishing; followers must
    /// build for themselves.
    Abandoned,
}

/// One fragment build in progress somewhere in the server.
struct InFlightSlot {
    result: Mutex<SlotState>,
    ready: Condvar,
}

impl InFlightSlot {
    /// Blocks until the leader publishes; `None` means the leader died
    /// and the caller should build the fragment itself.
    fn wait(&self) -> Option<Arc<OnTheFlyKb>> {
        let mut result = self.result.lock().expect("in-flight slot");
        loop {
            match &*result {
                SlotState::Pending => {}
                SlotState::Done(frag) => return Some(frag.clone()),
                SlotState::Abandoned => return None,
            }
            result = self.ready.wait(result).expect("in-flight slot");
        }
    }
}

/// Outcome of asking the in-flight table who owns a fragment key.
enum Claim {
    /// The fragment is already cached — no build needed.
    Cached(Arc<OnTheFlyKb>),
    /// The caller owns the build.
    Leader,
    /// Another shard is building it; wait on the slot.
    Follower(Arc<InFlightSlot>),
}

/// Global registry of fragment builds in progress, keyed like the cache.
///
/// The cache check inside [`InFlightTable::claim`] and the cache insert
/// inside [`InFlightTable::publish`] both run under the table lock, so a
/// key is always either cached, in flight, or claimable — a completed
/// build can never fall between a shard's cache miss and its claim.
struct InFlightTable {
    map: Mutex<FxHashMap<u64, Arc<InFlightSlot>>>,
}

impl InFlightTable {
    fn new() -> Self {
        Self {
            map: Mutex::new(FxHashMap::default()),
        }
    }

    fn claim(&self, key: u64, cache: &FragmentCache) -> Claim {
        let mut map = self.map.lock().expect("in-flight table");
        if let Some(slot) = map.get(&key) {
            return Claim::Follower(slot.clone());
        }
        if let Some(frag) = cache.peek_get(key) {
            return Claim::Cached(frag);
        }
        map.insert(
            key,
            Arc::new(InFlightSlot {
                result: Mutex::new(SlotState::Pending),
                ready: Condvar::new(),
            }),
        );
        Claim::Leader
    }

    fn publish(&self, key: u64, fragment: Arc<OnTheFlyKb>, cache: &FragmentCache) {
        let mut map = self.map.lock().expect("in-flight table");
        cache.insert(key, fragment.clone());
        if let Some(slot) = map.remove(&key) {
            let mut result = slot.result.lock().expect("in-flight slot");
            *result = SlotState::Done(fragment);
            drop(result);
            slot.ready.notify_all();
        }
    }

    /// Releases claims whose leader is unwinding: still-pending slots
    /// flip to `Abandoned` so followers fall back to building themselves
    /// instead of waiting forever. Keys already published are no-ops.
    fn abandon(&self, keys: impl IntoIterator<Item = u64>) {
        let mut map = self.map.lock().expect("in-flight table");
        for key in keys {
            if let Some(slot) = map.remove(&key) {
                let mut result = slot.result.lock().expect("in-flight slot");
                *result = SlotState::Abandoned;
                drop(result);
                slot.ready.notify_all();
            }
        }
    }
}

struct Shared<E> {
    engine: Arc<E>,
    config: ServeConfig,
    queue: AdmissionQueue,
    cache: FragmentCache,
    stage1: Stage1Cache,
    inflight: InFlightTable,
    sessions: SessionManager,
    metrics: ServeMetrics,
}

impl<E: QueryEngine> Shared<E> {
    /// A build handle configured like a worker shard's: private
    /// parallelism knob and the server's recorder.
    fn build_handle(&self) -> Qkbfly {
        self.engine
            .qkbfly()
            .with_parallelism(BUILD_PARALLELISM)
            .with_recorder(self.config.recorder.clone())
    }

    /// The one snapshot both [`QkbServer::stats`] and
    /// [`QkbServer::metrics_text`] render: every registry cell, plus the
    /// occupancy gauges read from the live stores right now.
    fn snapshot(&self) -> RegistrySnapshot {
        let gauges = [
            self.cache.gauges(),
            self.stage1.gauges(),
            self.sessions.gauges(),
        ];
        self.metrics
            .registry()
            .snapshot()
            .with_gauges(gauges.concat())
    }

    /// `None` when the server has shut down (or a worker died with the
    /// request in hand).
    fn try_submit(&self, session: Option<String>, request: QueryRequest) -> Option<QueryResponse> {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            key: request.normalized_key(),
            request,
            session,
            enqueued: Instant::now(),
            trace: self.config.recorder.open("request"),
            reply: tx,
        };
        self.queue.push(job).ok()?;
        rx.recv().ok()
    }

    fn query(&self, request: QueryRequest) -> QueryResponse {
        self.try_submit(None, request)
            .expect("query submitted to a shut-down server")
    }

    fn query_in_session(&self, session_id: &str, request: QueryRequest) -> QueryResponse {
        self.try_submit(Some(session_id.to_string()), request)
            .expect("query submitted to a shut-down server")
    }
}

/// The sharded query-serving front-end over a [`QueryEngine`].
pub struct QkbServer<E: QueryEngine> {
    shared: Arc<Shared<E>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap cloneable submission handle for client threads.
pub struct ServeClient<E: QueryEngine> {
    shared: Arc<Shared<E>>,
}

impl<E: QueryEngine> Clone for ServeClient<E> {
    fn clone(&self) -> Self {
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<E: QueryEngine> ServeClient<E> {
    /// Submits one query and blocks until its response.
    ///
    /// Panics if the server has shut down — clients racing a graceful
    /// drain should use [`ServeClient::try_query`].
    pub fn query(&self, request: QueryRequest) -> QueryResponse {
        self.shared.query(request)
    }

    /// Like [`ServeClient::query`], but returns `None` once the server
    /// has shut down instead of panicking.
    pub fn try_query(&self, request: QueryRequest) -> Option<QueryResponse> {
        self.shared.try_submit(None, request)
    }

    /// Submits one query into a long-lived session: the retrieved
    /// documents stream into the session's accumulated KB (paying stage 1
    /// only for never-seen ones) and the answer comes from the whole KB.
    pub fn query_in_session(&self, session_id: &str, request: QueryRequest) -> QueryResponse {
        self.shared.query_in_session(session_id, request)
    }

    /// Like [`ServeClient::query_in_session`], but returns `None` once
    /// the server has shut down instead of panicking.
    pub fn try_query_in_session(
        &self,
        session_id: &str,
        request: QueryRequest,
    ) -> Option<QueryResponse> {
        self.shared
            .try_submit(Some(session_id.to_string()), request)
    }
}

impl<E: QueryEngine> QkbServer<E> {
    /// Starts the worker shards and returns the running server.
    pub fn start(engine: E, config: ServeConfig) -> Self {
        let shards = config.resolved_shards();
        // Every tier counts into the config's one registry.
        let registry = &config.registry;
        let shared = Arc::new(Shared {
            cache: FragmentCache::new(config.cache_capacity, LOCK_SHARDS, registry),
            stage1: Stage1Cache::new(config.stage1_cache_bytes, LOCK_SHARDS, registry),
            sessions: SessionManager::new(config.session, registry)
                .with_recorder(config.recorder.clone()),
            engine: Arc::new(engine),
            queue: AdmissionQueue::new(),
            inflight: InFlightTable::new(),
            metrics: ServeMetrics::new(registry),
            config,
        });
        let workers = (0..shards)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || run_shard(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// The engine the server answers from.
    pub fn engine(&self) -> &E {
        &self.shared.engine
    }

    /// A submission handle usable from any thread.
    pub fn client(&self) -> ServeClient<E> {
        ServeClient {
            shared: self.shared.clone(),
        }
    }

    /// Submits one query and blocks until its response.
    pub fn query(&self, request: QueryRequest) -> QueryResponse {
        self.shared.query(request)
    }

    /// Submits one query into a long-lived session (see
    /// [`ServeClient::query_in_session`]).
    pub fn query_in_session(&self, session_id: &str, request: QueryRequest) -> QueryResponse {
        self.shared.query_in_session(session_id, request)
    }

    /// A stats snapshot (latency percentiles, throughput, both cache
    /// tiers' counters, session-store counters): the typed view of
    /// [`QkbServer::registry_snapshot`].
    pub fn stats(&self) -> ServeStats {
        self.stats_of(&self.shared.snapshot())
    }

    /// The [`ServeStats`] view of `snap`, a [`QkbServer::registry_snapshot`]
    /// that may carry other tiers' cells too (the network tier's).
    pub fn stats_of(&self, snap: &RegistrySnapshot) -> ServeStats {
        self.shared.metrics.stats(snap)
    }

    /// Zeroes every counter — one reset of [`ServeConfig::registry`],
    /// which every tier, the network tier included, counts into — and
    /// restarts the throughput clock and the latency ring. Benchmarks
    /// call this at phase boundaries so a phase's stats are read
    /// directly instead of hand-subtracting two snapshots; cached entries
    /// and resident sessions are untouched, and so is their occupancy.
    pub fn reset_stats(&self) {
        self.shared.metrics.reset();
    }

    /// The tracing recorder the server reports into (the one from
    /// [`ServeConfig::recorder`]); export its spans with
    /// [`qkb_obs::chrome_trace`] or `Recorder::slow_traces`.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.config.recorder
    }

    /// A point-in-time snapshot of [`ServeConfig::registry`], the
    /// registry every serving counter lives in, plus the occupancy gauges
    /// of the cache tiers, the session store and the prefix forest, read
    /// from the live stores now. [`ServeStats`] is the typed view of it.
    pub fn registry_snapshot(&self) -> RegistrySnapshot {
        self.shared.snapshot()
    }

    /// Prometheus-style text exposition of
    /// [`QkbServer::registry_snapshot`]: every series under its own
    /// `# TYPE` line.
    pub fn metrics_text(&self) -> String {
        self.shared.snapshot().to_prometheus_text()
    }

    /// Sweeps idle sessions past the TTL (also happens opportunistically
    /// on every session query).
    pub fn sweep_sessions(&self) {
        self.shared.sessions.sweep();
    }

    /// Ids of the sessions resident right now (what an explicit journal
    /// compaction keeps; automatic snapshots keep every session).
    pub fn session_ids(&self) -> Vec<String> {
        self.shared.sessions.ids()
    }

    /// Stable JSON rendering of one resident session's accumulated KB,
    /// `None` when the session doesn't exist. This string is the
    /// byte-identity assertion surface: the crash-replay tests compare
    /// it across an interrupted-and-recovered server and an
    /// uninterrupted one.
    pub fn session_kb_json(&self, session_id: &str) -> Option<String> {
        if !self.shared.sessions.contains(session_id) {
            return None;
        }
        let patterns = self.shared.engine.qkbfly().patterns();
        Some(self.shared.sessions.with_session(session_id, |session| {
            session.kb().to_json(patterns).to_string()
        }))
    }

    /// Replays one journaled session turn: streams `texts` into the
    /// session's KB exactly as a live [`QkbServer::query_in_session`]
    /// turn would (same deterministic `extend_kb` fold, same shared
    /// stage-1 cache), but without answering, without re-notifying
    /// [`ServeConfig::turn_log`] (the record being replayed already
    /// exists) and without touching the request metrics. Because
    /// extends are append-only and prefix-stable, replaying a journal's
    /// committed records in order reconstructs each session KB
    /// byte-identically to the uninterrupted run.
    pub fn replay_session_turn(
        &self,
        session_id: &str,
        texts: &[String],
    ) -> qkb_session::TurnReport {
        let qkb = self.shared.build_handle();
        self.shared.sessions.with_session(session_id, |session| {
            session.extend(&qkb, &self.shared.stage1, texts)
        })
    }

    /// Stops accepting queries, drains the queue, joins the shards.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            // A worker that panicked already abandoned its in-flight
            // claims and dropped its reply senders; swallowing the join
            // error here avoids a double panic out of Drop.
            let _ = handle.join();
        }
    }
}

impl<E: QueryEngine> Drop for QkbServer<E> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One batch group: all queued requests sharing a normalized query key.
struct Group {
    jobs: Vec<Job>,
}

/// How a group's fragment was (or will be) obtained, with its key and
/// the retrieved-document count. `Waiting` keeps the retrieved doc ids
/// so the follower can rebuild if the leader dies.
enum Resolution {
    Ready(Arc<OnTheFlyKb>, Served, u64, usize),
    Waiting(Arc<InFlightSlot>, u64, Vec<usize>),
}

/// One build round, traced as a `span` under `ctx`: provides the stage-1
/// artifacts of every group's documents in a single `provide_stage1`
/// call over their union (each distinct document provided once, through
/// the per-document cache), then folds each group into an empty KB with
/// `extend_kb` — the fold sessions extend with, so a fragment is
/// byte-identical to a cold build of its documents. Records the round in
/// the metrics.
fn build_fragments<E: QueryEngine>(
    shared: &Shared<E>,
    qkb: &Qkbfly,
    span: &'static str,
    ctx: SpanCtx,
    doc_groups: &[Vec<String>],
) -> Vec<Arc<OnTheFlyKb>> {
    let mut build_span = qkb.recorder().span_at(span, ctx);
    build_span.field("groups", doc_groups.len());
    // A group whose documents are already (partly) in the stage-1 cache
    // is *assembled* rather than fully cold. Classify before building;
    // probes don't touch LRU order or hit counters.
    let assembled = doc_groups
        .iter()
        .filter(|docs| docs.iter().any(|t| shared.stage1.contains_text(t)))
        .count() as u64;
    build_span.field("assembled_groups", assembled);
    let mut artifacts = qkb
        .provide_stage1(&shared.stage1, doc_groups.iter().flatten())
        .into_iter();
    let mut timings = StageTimings::default();
    let mut resolve = ResolveCounters::default();
    let fragments = doc_groups
        .iter()
        .map(|docs| {
            let group: Vec<_> = artifacts.by_ref().take(docs.len()).collect();
            let mut kb = OnTheFlyKb::new();
            let outcome = qkb.extend_kb(&mut kb, &group);
            timings.add(&outcome.timings);
            resolve.add(&outcome.resolve);
            Arc::new(kb)
        })
        .collect();
    let docs: usize = doc_groups.iter().map(Vec::len).sum();
    shared.metrics.note_build_round(
        doc_groups.len() as u64,
        assembled,
        docs as u64,
        timings,
        resolve,
    );
    build_span.field("docs", docs);
    fragments
}

fn run_shard<E: QueryEngine>(shared: &Shared<E>) {
    let config = &shared.config;
    // The shard's own build handle: cheap clone, shared repositories and
    // counters, private parallelism knob — no `&mut` on a shared handle.
    let qkb = shared.build_handle();
    let recorder = &config.recorder;
    loop {
        let jobs = shared.queue.pop_batch(config.batch_max);
        if jobs.is_empty() {
            return; // closed and drained
        }
        // Each job's time in the admission queue, as a child of its
        // request root (the span started when the client enqueued).
        for job in &jobs {
            recorder.record_interval("admission_wait", job.trace.ctx, job.trace.start_us, |_| {});
        }

        // --- session turns leave the batch first: a session answer
        // depends on the session's accumulated KB, not just the query
        // text, so these jobs are never grouped, coalesced or served
        // from the fragment cache — they stream into their session in
        // arrival order (per-session slot locks serialize turns on one
        // session across shards) ---
        let mut session_jobs: Vec<Job> = Vec::new();
        let mut batch_jobs: Vec<Job> = Vec::new();
        for job in jobs {
            if job.session.is_some() {
                session_jobs.push(job);
            } else {
                batch_jobs.push(job);
            }
        }
        let n_session = session_jobs.len();

        // --- coalesce identical queries within the batch ---
        let mut groups: Vec<Group> = Vec::new();
        let mut by_key: FxHashMap<String, usize> = FxHashMap::default();
        for job in batch_jobs {
            match by_key.get(&job.key) {
                Some(&g) => groups[g].jobs.push(job),
                None => {
                    by_key.insert(job.key.clone(), groups.len());
                    groups.push(Group { jobs: vec![job] });
                }
            }
        }
        let n_jobs: usize = groups.iter().map(|g| g.jobs.len()).sum();
        shared.metrics.note_batch(
            (n_jobs + n_session) as u64,
            (groups.len() + n_session) as u64,
        );
        recorder.instant("batch_formed", |f| {
            f.push(("jobs", (n_jobs + n_session).into()));
            f.push(("groups", groups.len().into()));
            f.push(("session_turns", n_session.into()));
        });

        for job in session_jobs {
            run_session_turn(shared, &qkb, job);
        }
        if groups.is_empty() {
            continue;
        }

        // --- resolve each group (cache / in-flight / build), then run
        // one grouped build for every miss. The whole section is
        // unwind-guarded: if anything in it panics, every still-pending
        // in-flight claim this shard took is abandoned so follower
        // shards fall back to building instead of waiting forever. ---
        let mut claimed: Vec<u64> = Vec::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut resolutions: Vec<Option<Resolution>> = Vec::with_capacity(groups.len());
            let mut build_meta: Vec<(usize, u64)> = Vec::new();
            let mut doc_groups: Vec<Vec<String>> = Vec::new();
            for (gi, group) in groups.iter().enumerate() {
                // The lookup span hangs off the group's first request and
                // names the cache tier that settled the group's fate.
                let lookup_ctx = group.jobs[0].trace.ctx;
                let lookup_start = recorder.now_us();
                let note_lookup = |outcome: &'static str, tier: &'static str| {
                    recorder.record_interval("fragment_lookup", lookup_ctx, lookup_start, |f| {
                        f.push(("outcome", outcome.into()));
                        f.push(("tier", tier.into()));
                    });
                };
                let doc_ids = shared.engine.retrieve(&group.jobs[0].request);
                // Key without materializing texts: the cache-hit fast
                // path stays allocation-light.
                let fkey = shared.engine.doc_fingerprint(&doc_ids);
                // Promoting lookup, counted once the outcome settles: with
                // coalescing on, a miss is re-checked race-free under the
                // in-flight lock and may still turn out a hit.
                let claim = match shared.cache.lookup(fkey) {
                    Some(frag) => Claim::Cached(frag),
                    None if config.coalesce => shared.inflight.claim(fkey, &shared.cache),
                    None => Claim::Leader,
                };
                shared.cache.count(matches!(claim, Claim::Cached(_)));
                match claim {
                    Claim::Cached(frag) => {
                        note_lookup("cache_hit", "fragment");
                        resolutions.push(Some(Resolution::Ready(
                            frag,
                            Served::CacheHit,
                            fkey,
                            doc_ids.len(),
                        )));
                    }
                    Claim::Leader => {
                        note_lookup(
                            if config.coalesce {
                                "lead_build"
                            } else {
                                "build"
                            },
                            "stage1",
                        );
                        // Abandoning a key nobody claimed is a no-op.
                        claimed.push(fkey);
                        build_meta.push((gi, fkey));
                        doc_groups.push(shared.engine.doc_texts(&doc_ids));
                        resolutions.push(None);
                    }
                    Claim::Follower(slot) => {
                        note_lookup("follow_inflight", "inflight");
                        shared.metrics.note_inflight_coalesced();
                        resolutions.push(Some(Resolution::Waiting(slot, fkey, doc_ids)));
                    }
                }
            }

            // Admission batching: one build round for every miss. The
            // union of the groups' documents is provided once through the
            // per-document stage-1 cache — only true misses run stage 1 —
            // and every group folds the shared artifacts into its own KB.
            // The round serves every leader group in the batch; its span
            // hangs off the first one's request so the build tree (stage
            // 1, resolve, canonicalize) has a request-rooted home.
            if !build_meta.is_empty() {
                let ctx = groups[build_meta[0].0].jobs[0].trace.ctx;
                let fragments = build_fragments(shared, &qkb, "grouped_build", ctx, &doc_groups);
                for ((&(gi, fkey), fragment), docs) in
                    build_meta.iter().zip(fragments).zip(&doc_groups)
                {
                    if config.coalesce {
                        shared
                            .inflight
                            .publish(fkey, fragment.clone(), &shared.cache);
                    } else {
                        shared.cache.insert(fkey, fragment.clone());
                    }
                    resolutions[gi] = Some(Resolution::Ready(
                        fragment,
                        Served::ColdBuild,
                        fkey,
                        docs.len(),
                    ));
                }
            }
            resolutions
        }));
        let resolutions = match unwound {
            Ok(resolutions) => resolutions,
            Err(payload) => {
                // Published keys are no-ops; pending ones wake followers.
                shared.inflight.abandon(claimed);
                std::panic::resume_unwind(payload);
            }
        };

        // --- answer and reply, one group at a time ---
        for (group, resolution) in groups.into_iter().zip(resolutions) {
            let group_ctx = group.jobs[0].trace.ctx;
            let (kb, served, fkey, n_docs) = match resolution.expect("every group resolved") {
                Resolution::Ready(kb, s, k, n) => (kb, s, k, n),
                Resolution::Waiting(slot, k, doc_ids) => match slot.wait() {
                    Some(kb) => (kb, Served::Coalesced, k, doc_ids.len()),
                    None => {
                        // The leader died before publishing. Build solo
                        // (deterministic, so a duplicate is benign) and
                        // publish for any other stranded followers.
                        let texts = shared.engine.doc_texts(&doc_ids);
                        let kb = build_fragments(shared, &qkb, "solo_build", group_ctx, &[texts])
                            .remove(0);
                        shared.inflight.publish(k, kb.clone(), &shared.cache);
                        (kb, Served::ColdBuild, k, doc_ids.len())
                    }
                },
            };
            // Identical normalized queries may still differ in raw text;
            // compute answers once per distinct raw text.
            let mut memo: FxHashMap<String, Vec<String>> = FxHashMap::default();
            for job in group.jobs {
                let answer_start = recorder.now_us();
                let answers = memo
                    .entry(job.request.text.clone())
                    .or_insert_with(|| shared.engine.answer_kb(&job.request, &kb))
                    .clone();
                recorder.record_interval("answer", job.trace.ctx, answer_start, |_| {});
                let latency = job.enqueued.elapsed();
                shared.metrics.note_request(latency);
                recorder.close_with(job.trace, |f| {
                    f.push(("served", format!("{served:?}").into()));
                    f.push(("latency_us", (latency.as_micros() as u64).into()));
                });
                // A closed reply channel just means the client gave up.
                let _ = job.reply.send(QueryResponse {
                    answers,
                    served,
                    fragment_key: fkey,
                    n_docs,
                    n_facts: kb.n_facts(),
                    latency,
                });
            }
        }
    }
}

/// One session turn: retrieve, stream the retrieved documents into the
/// session's KB (stage-1 artifacts compute-or-lookup through the shared
/// per-document cache — a document any earlier query paid for is free
/// here too), answer from the whole accumulated KB, reply.
fn run_session_turn<E: QueryEngine>(shared: &Shared<E>, qkb: &Qkbfly, job: Job) {
    let recorder = qkb.recorder();
    let session_id = job.session.as_deref().expect("session job");
    let mut turn_span = recorder.span_at("session_turn", job.trace.ctx);
    if recorder.is_enabled() {
        turn_span.field("session", session_id.to_string());
    }
    let doc_ids = shared.engine.retrieve(&job.request);
    let fkey = shared.engine.doc_fingerprint(&doc_ids);
    let texts = shared.engine.doc_texts(&doc_ids);
    let (report, answers, n_docs, n_facts) = shared.sessions.with_session(session_id, |session| {
        let report = session.extend(qkb, &shared.stage1, &texts);
        // The durability hook fires inside the slot lock: concurrent
        // turns on one session serialize here, so the journal's append
        // order is exactly the order documents merged into the KB.
        if let Some(log) = &shared.config.turn_log {
            log.log_turn(&LoggedTurn {
                session_id,
                turn: session.turns(),
                cold: report.cold,
                doc_ids: &doc_ids,
                // Equals fingerprint_seq(texts) by the engine contract.
                docs_fingerprint: fkey,
            });
        }
        let answers = shared.engine.answer_kb(&job.request, session.kb());
        (
            report,
            answers,
            session.kb().n_docs(),
            session.kb().n_facts(),
        )
    });
    shared.sessions.note_turn(&report);
    // A turn's stage work feeds the same counters as one-shot builds,
    // but a turn is not a build round.
    shared
        .metrics
        .note_stage_work(report.timings, report.resolve);
    let served = if report.forked {
        Served::SessionForked
    } else if report.cold {
        Served::SessionCold
    } else {
        Served::SessionExtended
    };
    drop(turn_span);
    let latency = job.enqueued.elapsed();
    shared.metrics.note_request(latency);
    recorder.close_with(job.trace, |f| {
        f.push(("served", format!("{served:?}").into()));
        f.push(("latency_us", (latency.as_micros() as u64).into()));
    });
    let _ = job.reply.send(QueryResponse {
        answers,
        served,
        fragment_key: fkey,
        n_docs,
        n_facts,
        latency,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(key: &str) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            request: QueryRequest::question(key),
            key: key.to_string(),
            session: None,
            enqueued: Instant::now(),
            trace: OpenSpan::none(),
            reply: tx,
        }
    }

    #[test]
    fn queue_batches_up_to_max() {
        let q = AdmissionQueue::new();
        for i in 0..5 {
            q.push(job(&format!("k{i}"))).expect("open");
        }
        assert_eq!(q.pop_batch(3).len(), 3);
        assert_eq!(q.pop_batch(3).len(), 2);
    }

    #[test]
    fn queue_close_drains_then_ends() {
        let q = AdmissionQueue::new();
        q.push(job("a")).expect("open");
        q.close();
        assert!(q.push(job("b")).is_err());
        assert_eq!(q.pop_batch(4).len(), 1);
        assert!(q.pop_batch(4).is_empty());
    }

    #[test]
    fn queue_takes_the_backlog_without_waiting() {
        let q = AdmissionQueue::new();
        for i in 0..3 {
            q.push(job(&format!("a{i}"))).expect("open");
        }
        // Fewer queued than `max`: the batch is the whole backlog, at once.
        assert_eq!(q.pop_batch(8).len(), 3);
        for i in 0..10 {
            q.push(job(&format!("b{i}"))).expect("open");
        }
        let first = q.pop_batch(8);
        assert_eq!(first.len(), 8);
        assert_eq!(first[0].key, "b0", "the batch keeps arrival order");
        assert_eq!(q.pop_batch(8).len(), 2);
        // `max` 0 still makes progress, one job at a time.
        q.push(job("c")).expect("open");
        assert_eq!(q.pop_batch(0).len(), 1);
    }

    #[test]
    fn inflight_claim_leader_then_follower() {
        let table = InFlightTable::new();
        let cache = FragmentCache::new(4, 1, &qkb_obs::Registry::new());
        assert!(matches!(table.claim(9, &cache), Claim::Leader));
        let follower = table.claim(9, &cache);
        assert!(matches!(follower, Claim::Follower(_)));
        table.publish(9, Arc::new(OnTheFlyKb::new()), &cache);
        // Follower observes the published fragment without blocking.
        if let Claim::Follower(slot) = follower {
            assert_eq!(slot.wait().expect("published").n_docs(), 0);
        }
        // After publication the key is cached, not claimable.
        assert!(matches!(table.claim(9, &cache), Claim::Cached(_)));
    }

    #[test]
    fn abandoned_claims_wake_followers_with_none() {
        let table = InFlightTable::new();
        let cache = FragmentCache::new(4, 1, &qkb_obs::Registry::new());
        assert!(matches!(table.claim(3, &cache), Claim::Leader));
        let follower = table.claim(3, &cache);
        table.abandon([3]);
        if let Claim::Follower(slot) = follower {
            assert!(slot.wait().is_none(), "follower must see the abandonment");
        } else {
            panic!("expected follower");
        }
        // The key is claimable again after abandonment.
        assert!(matches!(table.claim(3, &cache), Claim::Leader));
        // Abandoning an unclaimed/published key is a no-op.
        table.abandon([99]);
    }
}
