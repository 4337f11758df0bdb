//! The network front-end: a thread-per-connection TCP server over
//! [`qkb_serve::QkbServer`] with admission backpressure and an optional
//! write-ahead session journal.
//!
//! ## Concurrency model
//!
//! The offline vendor tree has no async runtime, so the server is plain
//! `std::net` + threads, mirroring the rest of the workspace: one
//! acceptor thread, one handler thread per connection (the pool is
//! bounded — connections beyond [`NetConfig::max_connections`] are
//! closed at accept), and one short-lived worker thread per admitted
//! request so a connection can pipeline requests up to its inflight
//! budget. Responses serialize on a per-connection write lock and carry
//! the request's correlation id, so replies may interleave freely. Each
//! reply is one whole frame, and accepted sockets set `TCP_NODELAY` so
//! a reply never waits on the client's delayed ACK of the previous one.
//!
//! ## Admission control
//!
//! Two bounds, both shedding with an explicit [`NetResponse::Busy`]
//! frame instead of queueing unboundedly:
//!
//! * **per-connection inflight budget** — a connection with
//!   [`NetConfig::inflight_per_connection`] requests still being served
//!   has new ones shed with `Busy(Connection)`;
//! * **global queue-depth watermark** — admitted requests still being
//!   served across all connections are counted with a compare-and-swap
//!   loop against [`NetConfig::queue_watermark`], so the depth **never**
//!   exceeds the watermark (the `net_queue_depth_peak` gauge proves it);
//!   excess load is shed with `Busy(Global)`.
//!
//! A request frees both slots once its reply is ready, before writing
//! it, so a client that waits for each reply always finds them free.
//! Reply writes are bounded on their own: a connection never has more
//! than `inflight_per_connection` unfinished workers. At that many, its
//! reader waits for the oldest to finish before it admits the next
//! request, so a client that does not read its replies is pushed back by
//! TCP instead of leaving one blocked thread per request.
//!
//! ## Durability
//!
//! With [`NetConfig::journal`] set, the server attaches a
//! [`SessionJournal`] as the inner server's [`qkb_serve::TurnLog`] and,
//! at startup, replays the recovered records through
//! [`qkb_serve::QkbServer::replay_session_turn`] — the same streaming
//! path live turns take — so sessions resume byte-identical to an
//! uninterrupted run. The inner server's session store reports every
//! eviction to the same journal, so recovery returns only the sessions
//! the store still held; an eviction the replay itself causes (a store
//! smaller than the one that wrote the journal) is journaled like a live
//! one. Replay never revives a session it has evicted: a record that
//! continues a session the replay's own claims evicted is dropped with
//! the session's remaining records, so such a session comes back whole
//! or not at all (replayed alone, the later records would rebuild it
//! from its last documents only). Records whose document texts no
//! longer match the journaled fingerprint (the corpus changed under the
//! journal) are dropped, along with the rest of that session's records.
//! Both outcomes are counted at start (`net_replayed_turns_total`,
//! `net_replay_dropped_records_total`).
//!
//! ## Metrics
//!
//! The `net_*` and `journal_*` counters live in [`ServeConfig::registry`],
//! the serve tier's one registry; queue depth is read when a snapshot is
//! taken. `stats`, `metrics_text` and `reset_stats` use that registry.
//!
//! ## Shutdown ordering
//!
//! [`QkbNetServer::shutdown`] is idempotent and drains in dependency
//! order: stop accepting, unblock connection readers, join in-flight
//! request workers and connection threads (every admitted request gets
//! its response), then shut the inner server down (drain the admission
//! queue, join the shards — the last journal appends happen here), and
//! only then sync and drop the journal writer.

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_BYTES};
use crate::journal::{JournalConfig, JournalStats, SessionJournal};
use crate::proto::{BusyScope, NetRequest, NetResponse};
use qkb_obs::{Counter, Gauge, Recorder, Registry, RegistrySnapshot};
use qkb_serve::{QkbServer, QueryEngine, ServeClient, ServeConfig, ServeStats, TurnLog};
use qkb_util::json::Value;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Network-tier configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address; `127.0.0.1:0` picks a free loopback port (read it
    /// back via [`QkbNetServer::local_addr`]).
    pub addr: String,
    /// Connection-slot bound; connections beyond it are closed at
    /// accept time.
    pub max_connections: usize,
    /// Requests one connection may have in service before new ones shed
    /// with `Busy(Connection)`; also the bound on the connection's
    /// unfinished request workers.
    pub inflight_per_connection: u64,
    /// Global bound on admitted requests still in service; beyond it new
    /// requests shed with `Busy(Global)`.
    pub queue_watermark: i64,
    /// Maximum accepted frame payload (a larger length prefix fails the
    /// connection before any allocation).
    pub max_frame_bytes: u32,
    /// Write-ahead session journal; `None` = no durability.
    pub journal: Option<JournalConfig>,
    /// The inner serving tier's configuration. Its `turn_log` slot is
    /// overwritten when a journal is configured.
    pub serve: ServeConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            inflight_per_connection: 32,
            queue_watermark: 256,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            journal: None,
            serve: ServeConfig::default(),
        }
    }
}

/// Handles of the network tier's cells (`net_*`) in the serve tier's
/// registry. Queue depth has no cell: snapshots read it from
/// [`NetShared::depth`].
struct NetCounters {
    connections_accepted: Counter,
    connections_rejected: Counter,
    frames_read: Counter,
    frames_written: Counter,
    frame_errors: Counter,
    requests: Counter,
    shed_connection: Counter,
    shed_global: Counter,
    queue_depth_peak: Gauge,
    replayed_turns: Counter,
    replay_dropped: Counter,
}

impl NetCounters {
    fn new(registry: &Registry) -> Self {
        Self {
            connections_accepted: registry.counter("net_connections_accepted_total"),
            connections_rejected: registry.counter("net_connections_rejected_total"),
            frames_read: registry.counter("net_frames_read_total"),
            frames_written: registry.counter("net_frames_written_total"),
            frame_errors: registry.counter("net_frame_errors_total"),
            requests: registry.counter("net_requests_total"),
            shed_connection: registry.counter("net_shed_connection_total"),
            shed_global: registry.counter("net_shed_global_total"),
            queue_depth_peak: registry.gauge("net_queue_depth_peak"),
            replayed_turns: registry.counter("net_replayed_turns_total"),
            replay_dropped: registry.counter("net_replay_dropped_records_total"),
        }
    }
}

/// State shared by the acceptor, every connection and the front object.
struct NetShared<E: QueryEngine> {
    /// The inner serving tier. Queries go through the lock-free
    /// [`ServeClient`]; only stats/reset/shutdown take this lock.
    server: Mutex<Option<QkbServer<E>>>,
    client: ServeClient<E>,
    journal: Option<Arc<SessionJournal>>,
    counters: NetCounters,
    /// Admitted requests still in service. The CAS loop in
    /// [`NetShared::try_admit_global`] enforces the watermark on it, and
    /// snapshots read it as `net_queue_depth`.
    depth: AtomicI64,
    recorder: Recorder,
    inflight_budget: u64,
    watermark: i64,
    max_frame: u32,
    shutting_down: AtomicBool,
    /// Read-half clones of live connections, for unblocking their
    /// readers at shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl<E: QueryEngine> NetShared<E> {
    /// Reserves one slot under the global watermark; `false` = shed.
    /// Compare-and-swap so the depth can never overshoot the watermark,
    /// no matter how many connections race.
    fn try_admit_global(&self) -> bool {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= self.watermark {
                return false;
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.counters.queue_depth_peak.fetch_max(cur + 1);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// The one snapshot both renderings read: the inner tier's (which
    /// holds the `net_*` and `journal_*` cells too) plus the queue depth,
    /// read now.
    fn snapshot(&self, server: &QkbServer<E>) -> RegistrySnapshot {
        let depth = self.depth.load(Ordering::Relaxed);
        server
            .registry_snapshot()
            .with_gauges([("net_queue_depth".to_string(), depth)])
    }

    /// Current stats across all tiers. `None` only after shutdown.
    fn stats(&self) -> Option<NetStats> {
        let guard = self.server.lock().expect("inner server slot");
        let server = guard.as_ref()?;
        let snap = self.snapshot(server);
        Some(NetStats::from_snapshot(
            server.stats_of(&snap),
            self.journal.is_some(),
            &snap,
        ))
    }

    /// Benchmark phase boundary: the serve tier's one registry reset,
    /// which zeroes every tier's counters. The peak is re-seeded from the
    /// live depth so in-flight requests stay accounted.
    fn reset_stats(&self) {
        if let Some(server) = self.server.lock().expect("inner server slot").as_ref() {
            server.reset_stats();
        }
        self.counters
            .queue_depth_peak
            .fetch_max(self.depth.load(Ordering::Relaxed));
    }
}

/// A point-in-time view across all three tiers: serving, network,
/// durability.
#[derive(Clone, Debug)]
pub struct NetStats {
    /// The inner serving tier's snapshot.
    pub serve: ServeStats,
    /// Journal counters (when durability is configured).
    pub journal: Option<JournalStats>,
    /// Connections accepted into the pool.
    pub connections_accepted: u64,
    /// Connections closed at accept because the pool was full.
    pub connections_rejected: u64,
    /// Frames read off all connections.
    pub frames_read: u64,
    /// Frames written to all connections.
    pub frames_written: u64,
    /// Connections failed by malformed frames (truncation, oversize,
    /// checksum, undecodable payload).
    pub frame_errors: u64,
    /// Requests admitted past both backpressure bounds.
    pub requests: u64,
    /// Requests shed by a connection's inflight budget.
    pub shed_connection: u64,
    /// Requests shed by the global watermark.
    pub shed_global: u64,
    /// Admitted requests still in service right now.
    pub queue_depth: i64,
    /// The highest depth observed since start or the last reset —
    /// bounded by the watermark by construction.
    pub queue_depth_peak: i64,
    /// Session turns replayed from the journal at startup.
    pub replayed_turns: u64,
    /// Journal records dropped at replay: a record whose fingerprint is
    /// stale, or that continues a session the replay itself evicted (a
    /// store smaller than the one that wrote the journal), and every
    /// later record of its session.
    pub replay_dropped_records: u64,
}

impl NetStats {
    /// Reads the network tier's values (and the journal's, when one is
    /// attached) out of `snap` by name; `serve` is the serve tier's view
    /// of the same snapshot.
    fn from_snapshot(serve: ServeStats, journal: bool, snap: &RegistrySnapshot) -> Self {
        let c = |name: &str| snap.expect_counter(name);
        Self {
            serve,
            journal: journal.then(|| JournalStats::from_snapshot(snap)),
            connections_accepted: c("net_connections_accepted_total"),
            connections_rejected: c("net_connections_rejected_total"),
            frames_read: c("net_frames_read_total"),
            frames_written: c("net_frames_written_total"),
            frame_errors: c("net_frame_errors_total"),
            requests: c("net_requests_total"),
            shed_connection: c("net_shed_connection_total"),
            shed_global: c("net_shed_global_total"),
            queue_depth: snap.expect_gauge("net_queue_depth"),
            queue_depth_peak: snap.expect_gauge("net_queue_depth_peak"),
            replayed_turns: c("net_replayed_turns_total"),
            replay_dropped_records: c("net_replay_dropped_records_total"),
        }
    }

    /// JSON rendering (the `stats` wire request returns exactly this).
    pub fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("serve", self.serve.to_json())
            .with("connections_accepted", self.connections_accepted)
            .with("connections_rejected", self.connections_rejected)
            .with("frames_read", self.frames_read)
            .with("frames_written", self.frames_written)
            .with("frame_errors", self.frame_errors)
            .with("requests", self.requests)
            .with("shed_connection", self.shed_connection)
            .with("shed_global", self.shed_global)
            .with("queue_depth", self.queue_depth)
            .with("queue_depth_peak", self.queue_depth_peak)
            .with("replayed_turns", self.replayed_turns)
            .with("replay_dropped_records", self.replay_dropped_records);
        if let Some(j) = &self.journal {
            v = v.with("journal", j.to_json());
        }
        v
    }
}

/// The durable network serving tier. See the module docs for the
/// concurrency, backpressure and durability model.
pub struct QkbNetServer<E: QueryEngine> {
    shared: Arc<NetShared<E>>,
    local_addr: std::net::SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    done: bool,
}

impl<E: QueryEngine> QkbNetServer<E> {
    /// Opens the journal (recovering and replaying any existing one),
    /// starts the inner [`QkbServer`] and the acceptor, and binds
    /// `config.addr`. Every tier counts into `config.serve.registry`.
    pub fn start(engine: E, config: NetConfig) -> io::Result<Self> {
        let registry = &config.serve.registry;
        let counters = NetCounters::new(registry);

        let (journal, recovered) = match &config.journal {
            Some(jc) => {
                let (j, recovery) = SessionJournal::open(jc.clone(), registry)?;
                (Some(Arc::new(j)), recovery)
            }
            None => (None, Default::default()),
        };

        let mut serve_config = config.serve.clone();
        if let Some(j) = &journal {
            serve_config.turn_log = Some(Arc::clone(j) as Arc<dyn TurnLog>);
        }
        let recorder = serve_config.recorder.clone();
        let server = QkbServer::start(engine, serve_config);

        // Warm restart: stream every recovered turn back through the
        // production extend path, in journal (= original merge) order.
        // `replay_session_turn` does not re-notify the turn log, so the
        // journal is not re-appended for replayed state; the store still
        // reports any eviction the replay causes.
        let mut dropped: std::collections::HashSet<String> = Default::default();
        for rec in &recovered.turns {
            if dropped.contains(&rec.session_id) {
                counters.replay_dropped.inc();
                continue;
            }
            let ids: Vec<usize> = rec.doc_ids.iter().map(|&i| i as usize).collect();
            // The corpus may have changed (or shrunk) since the journal
            // was written; an engine panic on unknown ids counts as
            // staleness, same as a fingerprint mismatch.
            let texts = catch_unwind(AssertUnwindSafe(|| server.engine().doc_texts(&ids))).ok();
            let fresh =
                texts.filter(|t| qkb_util::fingerprint_seq(t.iter()) == rec.docs_fingerprint);
            // A record that continues a session the replay has already
            // evicted is not replayed either: it would start a session
            // holding only its last records.
            let replayed = fresh
                .and_then(|texts| server.replay_session_turn(&rec.session_id, rec.cold, &texts));
            match replayed {
                Some(_) => counters.replayed_turns.inc(),
                None => {
                    dropped.insert(rec.session_id.clone());
                    counters.replay_dropped.inc();
                }
            }
        }

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(NetShared {
            client: server.client(),
            server: Mutex::new(Some(server)),
            journal,
            counters,
            depth: AtomicI64::new(0),
            recorder,
            inflight_budget: config.inflight_per_connection,
            watermark: config.queue_watermark,
            max_frame: config.max_frame_bytes,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });

        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            let max_conns = config.max_connections;
            std::thread::spawn(move || run_acceptor(&listener, &shared, &conn_threads, max_conns))
        };

        Ok(Self {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conn_threads,
            done: false,
        })
    }

    /// The bound address (connect clients here).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// A stats snapshot across all tiers. Startup replay's outcome is
    /// in it too: `replayed_turns`, `replay_dropped_records` and the
    /// journal's `torn_tails`, counted before any reset.
    pub fn stats(&self) -> NetStats {
        self.shared.stats().expect("stats after shutdown")
    }

    /// Zeroes every counter of every tier — one reset of the serve
    /// tier's registry (the benchmark phase boundary).
    pub fn reset_stats(&self) {
        self.shared.reset_stats();
    }

    /// Prometheus-style text of the same snapshot [`QkbNetServer::stats`]
    /// reads: every serve, net and journal series under its `# TYPE`
    /// line. Empty after shutdown.
    pub fn metrics_text(&self) -> String {
        let guard = self.shared.server.lock().expect("inner server slot");
        guard
            .as_ref()
            .map(|server| self.shared.snapshot(server).to_prometheus_text())
            .unwrap_or_default()
    }

    /// Ids of the sessions resident right now.
    pub fn session_ids(&self) -> Vec<String> {
        let guard = self.shared.server.lock().expect("inner server slot");
        guard.as_ref().map(|s| s.session_ids()).unwrap_or_default()
    }

    /// Stable JSON rendering of one session's accumulated KB (`None`
    /// when the session doesn't exist) — the byte-identity assertion
    /// surface of the crash-replay tests.
    pub fn session_kb_json(&self, session_id: &str) -> Option<String> {
        let guard = self.shared.server.lock().expect("inner server slot");
        guard.as_ref().and_then(|s| s.session_kb_json(session_id))
    }

    /// Graceful, idempotent shutdown: stop accepting, finish every
    /// admitted request, drain the inner server, then sync the journal.
    /// Safe to call repeatedly (and `Drop` calls it again); only the
    /// first call does any work.
    pub fn shutdown(&mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        self.shared.shutting_down.store(true, Ordering::SeqCst);

        // Wake the blocking accept with a throwaway connection; the
        // acceptor re-checks the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }

        // Unblock every connection reader; handlers drain their
        // in-flight workers (each admitted request still gets its
        // response) and exit.
        for (_, stream) in self.shared.conns.lock().expect("conn table").iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = self
            .conn_threads
            .lock()
            .expect("conn threads")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }

        // Inner tier: close the admission queue, drain it, join the
        // shards. Session turns journaled by drained jobs happen here —
        // strictly before the journal writer goes away.
        if let Some(server) = self.shared.server.lock().expect("inner server slot").take() {
            server.shutdown();
        }
        if let Some(journal) = &self.shared.journal {
            let _ = journal.sync();
        }
    }
}

impl<E: QueryEngine> Drop for QkbNetServer<E> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn run_acceptor<E: QueryEngine>(
    listener: &TcpListener,
    shared: &Arc<NetShared<E>>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_conns: usize,
) {
    let mut next_id = 0u64;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut conns = shared.conns.lock().expect("conn table");
            if conns.len() >= max_conns {
                // Pool full: close immediately. The client sees EOF on
                // its first read — connection-level shedding.
                shared.counters.connections_rejected.inc();
                drop(stream);
                continue;
            }
            let Ok(read_half) = stream.try_clone() else {
                continue;
            };
            conns.insert(next_id, read_half);
        }
        shared.counters.connections_accepted.inc();
        let conn_id = next_id;
        next_id += 1;
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || handle_connection(&shared, stream, conn_id));
        let mut threads = conn_threads.lock().expect("conn threads");
        // Reap finished handlers so a long-lived server doesn't hoard
        // join handles of closed connections.
        threads.retain(|h: &JoinHandle<()>| !h.is_finished());
        threads.push(handle);
    }
}

/// Writes one response frame under the connection's write lock.
fn send_response<E: QueryEngine>(
    shared: &NetShared<E>,
    writer: &Mutex<TcpStream>,
    resp: &NetResponse,
) {
    let (kind, payload) = resp.encode();
    let mut stream = writer.lock().expect("conn writer");
    if frame::write_frame(&mut *stream, kind, &payload).is_ok() {
        shared.counters.frames_written.inc();
    }
}

fn handle_connection<E: QueryEngine>(shared: &Arc<NetShared<E>>, stream: TcpStream, conn_id: u64) {
    // With Nagle on, a reply written while an earlier one is
    // unacknowledged would wait for the client's delayed ACK (up to
    // 40 ms) or its next request.
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => {
            shared.conns.lock().expect("conn table").remove(&conn_id);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let inflight = Arc::new(AtomicU64::new(0));
    let mut workers: Vec<JoinHandle<()>> = Vec::new();

    loop {
        let req = match frame::read_frame(&mut reader, shared.max_frame) {
            Ok(f) => {
                shared.counters.frames_read.inc();
                match NetRequest::decode(f.kind, &f.payload, shared.max_frame as usize) {
                    Ok(req) => req,
                    // A well-framed but undecodable payload: this peer
                    // speaks a different protocol; fail the connection.
                    Err(_) => {
                        shared.counters.frame_errors.inc();
                        break;
                    }
                }
            }
            // Peer closed between frames: normal disconnect.
            Err(FrameError::UnexpectedEof { clean_eof: true }) => break,
            // Truncated / oversized / corrupt: fail this connection
            // only; the listener and every other connection stay live.
            Err(_) => {
                shared.counters.frame_errors.inc();
                break;
            }
        };

        // Admission: per-connection budget first, then the global
        // watermark. Shed requests are answered inline — they never
        // consume a worker or queue slot.
        if inflight.load(Ordering::Relaxed) >= shared.inflight_budget {
            shared.counters.shed_connection.inc();
            send_response(
                shared,
                &writer,
                &NetResponse::Busy {
                    id: req.id(),
                    scope: BusyScope::Connection,
                },
            );
            continue;
        }
        if !shared.try_admit_global() {
            shared.counters.shed_global.inc();
            send_response(
                shared,
                &writer,
                &NetResponse::Busy {
                    id: req.id(),
                    scope: BusyScope::Global,
                },
            );
            continue;
        }

        inflight.fetch_add(1, Ordering::Relaxed);
        shared.counters.requests.inc();
        // Workers free their slots before writing, so the slots alone do
        // not bound this connection's threads: wait for the oldest
        // worker once there are as many as the budget.
        workers.retain(|h| !h.is_finished());
        if workers.len() as u64 >= shared.inflight_budget {
            let _ = workers.remove(0).join();
        }
        let shared2 = Arc::clone(shared);
        let writer2 = Arc::clone(&writer);
        let inflight2 = Arc::clone(&inflight);
        workers.push(std::thread::spawn(move || {
            let resp = serve_request(&shared2, req);
            // Release the slots before the reply is written: a client
            // that waits for each reply may send its next request the
            // moment this one lands, and must find its slots free.
            inflight2.fetch_sub(1, Ordering::Relaxed);
            shared2.depth.fetch_sub(1, Ordering::Relaxed);
            send_response(&shared2, &writer2, &resp);
        }));
    }

    for h in workers {
        let _ = h.join();
    }
    shared.conns.lock().expect("conn table").remove(&conn_id);
}

/// Executes one admitted request. Runs on a per-request worker thread;
/// the `net_request` root span wraps the inner tier's `request` span
/// tree (the context guard makes it the ambient parent while the query
/// runs on this thread).
fn serve_request<E: QueryEngine>(shared: &NetShared<E>, req: NetRequest) -> NetResponse {
    let recorder = shared.recorder.clone();
    let open = recorder.open("net_request");
    let resp = {
        let _ctx = recorder.context(open.ctx);
        dispatch(shared, req)
    };
    recorder.close(open);
    resp
}

fn dispatch<E: QueryEngine>(shared: &NetShared<E>, req: NetRequest) -> NetResponse {
    match req {
        NetRequest::Query { id, request } => match shared.client.try_query(request) {
            Some(r) => NetResponse::Answer {
                id,
                served: r.served,
                n_docs: r.n_docs as u64,
                n_facts: r.n_facts as u64,
                answers: r.answers,
            },
            None => NetResponse::Error {
                id,
                message: "server shutting down".into(),
            },
        },
        NetRequest::QueryInSession {
            id,
            session,
            request,
        } => match shared.client.try_query_in_session(&session, request) {
            Some(r) => NetResponse::Answer {
                id,
                served: r.served,
                n_docs: r.n_docs as u64,
                n_facts: r.n_facts as u64,
                answers: r.answers,
            },
            None => NetResponse::Error {
                id,
                message: "server shutting down".into(),
            },
        },
        NetRequest::Stats { id } => match shared.stats() {
            Some(stats) => NetResponse::StatsJson {
                id,
                json: stats.to_json().to_string(),
            },
            None => NetResponse::Error {
                id,
                message: "server shutting down".into(),
            },
        },
        NetRequest::ResetStats { id } => {
            shared.reset_stats();
            NetResponse::Ok { id }
        }
    }
}
