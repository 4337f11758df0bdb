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
//!   [`NetConfig::inflight_per_connection`] unanswered requests has new
//!   ones shed with `Busy(Connection)`;
//! * **global queue-depth watermark** — admitted-but-unanswered requests
//!   across all connections are counted with a compare-and-swap loop
//!   against [`NetConfig::queue_watermark`], so the depth **never**
//!   exceeds the watermark (the `net_queue_depth_peak` gauge proves it);
//!   excess load is shed with `Busy(Global)`.
//!
//! ## Durability
//!
//! With [`NetConfig::journal`] set, the server attaches a
//! [`SessionJournal`] as the inner server's [`qkb_serve::TurnLog`] and,
//! at startup, replays the recovered records through
//! [`qkb_serve::QkbServer::replay_session_turn`] — the same streaming
//! path live turns take — so sessions resume byte-identical to an
//! uninterrupted run. Records whose document texts no longer match the
//! journaled fingerprint (the corpus changed under the journal) are
//! dropped, along with the rest of that session's records.
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
use qkb_obs::{Counter, Gauge, Recorder, Registry};
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
    /// Unanswered requests one connection may have in flight before new
    /// ones shed with `Busy(Connection)`.
    pub inflight_per_connection: u64,
    /// Global bound on admitted-but-unanswered requests; beyond it new
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

/// What startup replay reconstructed from the journal.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Session turns re-streamed into session KBs.
    pub replayed_turns: u64,
    /// Records dropped because their documents' texts no longer match
    /// the journaled fingerprint (stale corpus), plus the rest of those
    /// sessions' records.
    pub dropped_records: u64,
    /// Torn tails the journal recovery detected and discarded.
    pub torn_tails: u64,
}

/// Counters of the network tier (all in the net registry, `net_*`).
struct NetCounters {
    connections_accepted: Counter,
    connections_rejected: Counter,
    frames_read: Counter,
    frames_written: Counter,
    frame_errors: Counter,
    requests: Counter,
    shed_connection: Counter,
    shed_global: Counter,
    queue_depth: Gauge,
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
            queue_depth: registry.gauge("net_queue_depth"),
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
    registry: Registry,
    counters: NetCounters,
    /// Authoritative admitted-request depth (the gauge mirrors it; the
    /// CAS loop in [`NetShared::try_admit_global`] is what actually
    /// enforces the watermark).
    depth: AtomicI64,
    recorder: Recorder,
    inflight_budget: u64,
    watermark: i64,
    max_frame: u32,
    shutting_down: AtomicBool,
    /// Read-half clones of live connections, for unblocking their
    /// readers at shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    replay: ReplayReport,
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
                    self.counters.queue_depth.set(cur + 1);
                    self.counters.queue_depth_peak.fetch_max(cur + 1);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    fn release_global(&self) {
        let now = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        self.counters.queue_depth.set(now);
    }

    /// Current stats: the inner tier's snapshot plus net and journal
    /// counters. `None` only after shutdown.
    fn stats(&self) -> Option<NetStats> {
        let guard = self.server.lock().expect("inner server slot");
        let serve = guard.as_ref()?.stats();
        let c = &self.counters;
        Some(NetStats {
            serve,
            journal: self.journal.as_ref().map(|j| j.stats()),
            connections_accepted: c.connections_accepted.get(),
            connections_rejected: c.connections_rejected.get(),
            frames_read: c.frames_read.get(),
            frames_written: c.frames_written.get(),
            frame_errors: c.frame_errors.get(),
            requests: c.requests.get(),
            shed_connection: c.shed_connection.get(),
            shed_global: c.shed_global.get(),
            queue_depth: c.queue_depth.get(),
            queue_depth_peak: c.queue_depth_peak.get(),
            replayed_turns: c.replayed_turns.get(),
            replay_dropped_records: c.replay_dropped.get(),
        })
    }

    /// Benchmark phase boundary: zero the inner tier and the net
    /// registry. The depth gauge is re-seeded from the authoritative
    /// atomic so in-flight requests stay accounted.
    fn reset_stats(&self) {
        if let Some(server) = self.server.lock().expect("inner server slot").as_ref() {
            server.reset_stats();
        }
        self.registry.reset();
        let depth = self.depth.load(Ordering::Relaxed);
        self.counters.queue_depth.set(depth);
        self.counters.queue_depth_peak.fetch_max(depth);
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
    /// Admitted-but-unanswered requests right now.
    pub queue_depth: i64,
    /// The highest depth ever observed — bounded by the watermark by
    /// construction.
    pub queue_depth_peak: i64,
    /// Session turns replayed from the journal at startup.
    pub replayed_turns: u64,
    /// Journal records dropped at replay (stale fingerprints).
    pub replay_dropped_records: u64,
}

impl NetStats {
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
    /// `config.addr`.
    pub fn start(engine: E, config: NetConfig) -> io::Result<Self> {
        let registry = Registry::new();
        let counters = NetCounters::new(&registry);

        let (journal, recovered) = match &config.journal {
            Some(jc) => {
                let (j, recovery) = SessionJournal::open(jc.clone(), &registry)?;
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
        // journal is not re-appended for replayed state.
        let mut replay = ReplayReport {
            torn_tails: recovered.torn_tails,
            ..Default::default()
        };
        let mut stale: std::collections::HashSet<String> = Default::default();
        for rec in &recovered.turns {
            if stale.contains(&rec.session_id) {
                replay.dropped_records += 1;
                continue;
            }
            let ids: Vec<usize> = rec.doc_ids.iter().map(|&i| i as usize).collect();
            // The corpus may have changed (or shrunk) since the journal
            // was written; an engine panic on unknown ids counts as
            // staleness, same as a fingerprint mismatch.
            let texts = catch_unwind(AssertUnwindSafe(|| server.engine().doc_texts(&ids))).ok();
            let fresh =
                texts.filter(|t| qkb_util::fingerprint_seq(t.iter()) == rec.docs_fingerprint);
            match fresh {
                Some(texts) => {
                    server.replay_session_turn(&rec.session_id, &texts);
                    replay.replayed_turns += 1;
                }
                None => {
                    stale.insert(rec.session_id.clone());
                    replay.dropped_records += 1;
                }
            }
        }
        counters.replayed_turns.add(replay.replayed_turns);
        counters.replay_dropped.add(replay.dropped_records);

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(NetShared {
            client: server.client(),
            server: Mutex::new(Some(server)),
            journal,
            registry,
            counters,
            depth: AtomicI64::new(0),
            recorder,
            inflight_budget: config.inflight_per_connection,
            watermark: config.queue_watermark,
            max_frame: config.max_frame_bytes,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            replay,
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

    /// What startup replay reconstructed.
    pub fn replay_report(&self) -> ReplayReport {
        self.shared.replay
    }

    /// A stats snapshot across all tiers.
    pub fn stats(&self) -> NetStats {
        self.shared.stats().expect("stats after shutdown")
    }

    /// Zeroes every monotonic counter in both tiers (the benchmark
    /// phase boundary).
    pub fn reset_stats(&self) {
        self.shared.reset_stats();
    }

    /// Prometheus-style text: the inner tier's exposition followed by
    /// the net/journal registry.
    pub fn metrics_text(&self) -> String {
        let serve = {
            let guard = self.shared.server.lock().expect("inner server slot");
            guard.as_ref().map(|s| s.metrics_text()).unwrap_or_default()
        };
        format!(
            "{serve}{}",
            self.shared.registry.snapshot().to_prometheus_text()
        )
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

    /// Compacts the journal now, keeping only currently-live sessions'
    /// history (no-op without a journal).
    pub fn compact_journal(&self) -> io::Result<()> {
        let Some(journal) = &self.shared.journal else {
            return Ok(());
        };
        let live = {
            let guard = self.shared.server.lock().expect("inner server slot");
            match guard.as_ref() {
                Some(s) => s.session_ids().into_iter().collect(),
                None => return Ok(()),
            }
        };
        journal.snapshot_retaining(&live)
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
        workers.retain(|h| !h.is_finished());
        let shared2 = Arc::clone(shared);
        let writer2 = Arc::clone(&writer);
        let inflight2 = Arc::clone(&inflight);
        workers.push(std::thread::spawn(move || {
            let resp = serve_request(&shared2, req);
            send_response(&shared2, &writer2, &resp);
            inflight2.fetch_sub(1, Ordering::Relaxed);
            shared2.release_global();
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
