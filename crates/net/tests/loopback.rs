//! End-to-end contracts of the network tier over real loopback TCP:
//!
//! 1. **wire fidelity** — answers served over the wire are byte-identical
//!    to the offline retrieve → build → answer path;
//! 2. **malformed-frame robustness** — a truncated header, an oversized
//!    length prefix, a checksum mismatch and a mid-frame disconnect each
//!    fail *that connection only*; the listener and every other
//!    connection stay live;
//! 3. **backpressure** — both admission bounds shed with explicit `Busy`
//!    frames naming the bound, and the queue-depth peak never exceeds
//!    the watermark;
//! 4. **graceful shutdown** — idempotent, and every admitted (queued)
//!    request still receives its response;
//! 5. **tracing** — each wire request records a `net_request` root span
//!    with the serving tier's `request` span nested under it;
//! 6. **no Nagle delay** — pipelined replies are not held for the
//!    client's delayed ACK.

use qkb_corpus::questions::trends_test;
use qkb_corpus::world::{World, WorldConfig};
use qkb_net::frame::{self, HEADER_BYTES};
use qkb_net::proto::{self, NetRequest, NetResponse};
use qkb_net::{BusyScope, NetClient, NetConfig, NetError, QkbNetServer};
use qkb_qa::QaSystem;
use qkb_serve::{QueryRequest, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A small but real engine, built once and shared by every test (the
/// servers share it through the `Arc<E>` blanket engine impl).
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

fn questions(sys: &QaSystem, n: usize) -> Vec<String> {
    trends_test(sys.world(), n, 13)
        .into_iter()
        .map(|q| q.text)
        .collect()
}

/// Single-shard, no-batching serve tier: deterministic and fast.
fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        batch_max: 1,
        ..ServeConfig::default()
    }
}

fn net_config() -> NetConfig {
    NetConfig {
        serve: serve_config(),
        ..NetConfig::default()
    }
}

/// The offline reference path: retrieve → build_kb → answer_in_kb.
fn cold_answers(sys: &QaSystem, question: &str) -> Vec<String> {
    let doc_ids = sys.retrieve_docs(question);
    let texts = sys.doc_texts(&doc_ids);
    let kb = sys.qkbfly().build_kb(&texts).kb;
    sys.answer_in_kb(question, &kb)
}

#[test]
fn loopback_answers_match_the_offline_path() {
    let sys = engine();
    let qs = questions(&sys, 3);
    let server = QkbNetServer::start(sys.clone(), net_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    for q in &qs {
        let got = client.query(QueryRequest::question(q)).unwrap();
        assert_eq!(
            got.answers,
            cold_answers(&sys, q),
            "wire answers must be byte-identical to the offline path"
        );
        assert!(got.n_docs > 0);
    }

    // Stats round-trip: a JSON document with both tiers' counters.
    let stats = client.stats_json().unwrap();
    let v = qkb_util::json::Value::parse(&stats).expect("stats must be valid JSON");
    assert_eq!(
        v.get("requests").and_then(|x| x.as_f64()),
        Some((qs.len() + 1) as f64),
        "stats: {stats}"
    );
    assert!(v.get("serve").is_some());

    // reset_stats zeroes the wire counters too.
    client.reset_stats().unwrap();
    let stats = client.stats_json().unwrap();
    let v = qkb_util::json::Value::parse(&stats).unwrap();
    // The reset itself and this stats call are the only requests since.
    assert!(v.get("requests").and_then(|x| x.as_f64()).unwrap() <= 1.0);

    // Prometheus text spans both registries.
    let text = server.metrics_text();
    assert!(text.contains("serve_requests_total"));
    assert!(text.contains("net_requests_total"));
    assert!(text.contains("net_queue_depth_peak"));
}

#[test]
fn malformed_frames_fail_only_their_connection() {
    let sys = engine();
    let q = questions(&sys, 1).remove(0);
    let mut config = net_config();
    config.max_frame_bytes = 1 << 16;
    let server = QkbNetServer::start(sys, config).unwrap();
    let addr = server.local_addr();

    // A healthy connection that must survive every abuse below.
    let mut healthy = NetClient::connect(addr).unwrap();
    healthy.query(QueryRequest::question(&q)).unwrap();

    let (kind, payload) = NetRequest::Stats { id: 7 }.encode();
    let good = frame::encode(kind, &payload);

    // (a) truncated header, then disconnect.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&good[..HEADER_BYTES - 2]).unwrap();
    drop(s);

    // (b) oversized length prefix: rejected before allocation, the
    // server closes the connection (we observe EOF instead of a reply).
    let mut s = TcpStream::connect(addr).unwrap();
    let mut oversized = good.clone();
    oversized[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    s.write_all(&oversized).unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(
        s.read(&mut buf).unwrap(),
        0,
        "server must close the connection on an oversized prefix"
    );

    // (c) checksum mismatch.
    let mut s = TcpStream::connect(addr).unwrap();
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    s.write_all(&corrupt).unwrap();
    assert_eq!(
        s.read(&mut buf).unwrap(),
        0,
        "server must close the connection on a checksum mismatch"
    );

    // (d) mid-frame disconnect: header promises more payload than sent.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&good[..good.len() - 2]).unwrap();
    drop(s);

    // The listener and the healthy connection are unaffected.
    assert!(healthy.query(QueryRequest::question(&q)).is_ok());
    let mut fresh = NetClient::connect(addr).unwrap();
    assert!(fresh.query(QueryRequest::question(&q)).is_ok());

    // All four abuses were counted as frame errors. (a) and (d) race
    // the disconnect observation, so poll briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let errors = server.stats().frame_errors;
        if errors >= 4 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected 4 frame errors, saw {errors}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn connection_budget_sheds_with_busy_frames() {
    let sys = engine();
    let q = questions(&sys, 1).remove(0);
    let mut config = net_config();
    // A zero budget sheds every request — deterministically.
    config.inflight_per_connection = 0;
    let server = QkbNetServer::start(sys, config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    match client.query(QueryRequest::question(&q)) {
        Err(NetError::Busy(BusyScope::Connection)) => {}
        other => panic!("expected Busy(Connection), got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.shed_connection, 1);
    assert_eq!(stats.requests, 0, "a shed request is never admitted");
}

#[test]
fn global_watermark_sheds_and_depth_stays_bounded() {
    let sys = engine();
    let qs = questions(&sys, 4);

    // Deterministic arm: watermark 0 sheds everything as Busy(Global).
    let mut config = net_config();
    config.queue_watermark = 0;
    let server = QkbNetServer::start(sys.clone(), config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    match client.query(QueryRequest::question(&qs[0])) {
        Err(NetError::Busy(BusyScope::Global)) => {}
        other => panic!("expected Busy(Global), got {other:?}"),
    }
    assert_eq!(server.stats().shed_global, 1);
    assert_eq!(server.stats().queue_depth_peak, 0);
    drop(server);

    // Concurrency arm: 8 pipelined requests against watermark 2 — every
    // request is either answered or explicitly shed, and the admitted
    // depth provably never exceeded the watermark.
    let mut config = net_config();
    config.queue_watermark = 2;
    config.inflight_per_connection = 64;
    let server = QkbNetServer::start(sys, config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let n = 8u64;
    for id in 0..n {
        client
            .send(&NetRequest::Query {
                id,
                request: QueryRequest::question(&qs[(id % 4) as usize]),
            })
            .unwrap();
    }
    let mut answered = 0u64;
    let mut shed = 0u64;
    for _ in 0..n {
        match client.recv().unwrap() {
            NetResponse::Answer { .. } => answered += 1,
            NetResponse::Busy {
                scope: proto::BusyScope::Global,
                ..
            } => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(answered + shed, n);
    assert!(answered > 0, "the watermark admits up to its depth");
    let stats = server.stats();
    assert!(
        stats.queue_depth_peak <= 2,
        "queue depth {} exceeded the watermark",
        stats.queue_depth_peak
    );
    assert_eq!(stats.shed_global, shed);
}

#[test]
fn shutdown_is_idempotent_and_queued_jobs_still_answer() {
    let sys = engine();
    let qs = questions(&sys, 4);
    let mut server = QkbNetServer::start(sys, net_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Pipeline four requests, then shut down while they are in flight:
    // every admitted request must still get its response.
    for (id, q) in qs.iter().enumerate() {
        client
            .send(&NetRequest::Query {
                id: id as u64,
                request: QueryRequest::question(q),
            })
            .unwrap();
    }
    // Wait until all four are admitted (read off the socket and counted)
    // so the shutdown genuinely races in-flight work, not the kernel's
    // receive buffer.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().requests < qs.len() as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests not admitted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
    let mut ids: Vec<u64> = (0..qs.len() as u64).collect();
    for _ in 0..qs.len() {
        match client.recv().unwrap() {
            NetResponse::Answer { id, .. } => ids.retain(|&x| x != id),
            other => panic!("expected answers for queued jobs, got {other:?}"),
        }
    }
    assert!(ids.is_empty(), "unanswered ids: {ids:?}");

    // Double shutdown is a no-op, and Drop after it is too.
    server.shutdown();
    drop(server);
}

/// Pipelined replies are not held back by Nagle's algorithm. Once a
/// connection has left TCP's quick-ACK start, the client delays its ACKs;
/// a reply written while the previous one is unacknowledged would then
/// wait for that delayed ACK (40 ms on Linux). Four pipelined `Stats`
/// requests must come back well inside one such delay.
#[test]
fn pipelined_replies_are_not_held_by_nagle() {
    let server = QkbNetServer::start(engine(), net_config()).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    for _ in 0..50 {
        client.stats_json().unwrap();
    }
    let mut bursts: Vec<Duration> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            for id in 0..4 {
                client.send(&NetRequest::Stats { id }).unwrap();
            }
            for _ in 0..4 {
                let reply = client.recv().unwrap();
                assert!(matches!(reply, NetResponse::StatsJson { .. }), "{reply:?}");
            }
            start.elapsed()
        })
        .collect();
    bursts.sort();
    assert!(
        bursts[2] < Duration::from_millis(20),
        "median pipelined burst took {:?} (all: {bursts:?})",
        bursts[2]
    );
}

#[test]
fn full_connection_pool_rejects_new_connections() {
    let sys = engine();
    let q = questions(&sys, 1).remove(0);
    let mut config = net_config();
    config.max_connections = 1;
    let server = QkbNetServer::start(sys, config).unwrap();

    let mut first = NetClient::connect(server.local_addr()).unwrap();
    first.query(QueryRequest::question(&q)).unwrap();

    // The second connection is closed at accept: its first read EOFs.
    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(second.read(&mut buf).unwrap(), 0);
    assert_eq!(server.stats().connections_rejected, 1);

    // The resident connection still serves.
    assert!(first.query(QueryRequest::question(&q)).is_ok());
}

#[test]
fn net_request_root_span_carries_the_request_tree() {
    let sys = engine();
    let q = questions(&sys, 1).remove(0);
    let recorder = qkb_obs::Recorder::flight();
    let mut config = net_config();
    config.serve.recorder = recorder.clone();
    let server = QkbNetServer::start(sys, config).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.query(QueryRequest::question(&q)).unwrap();

    let records = recorder.records();
    let net = records
        .iter()
        .find(|r| r.name == "net_request")
        .expect("net_request span recorded");
    assert_eq!(net.parent, 0, "net_request is a trace root");
    let request = records
        .iter()
        .find(|r| r.name == "request")
        .expect("serving-tier request span recorded");
    assert_eq!(
        request.parent, net.id,
        "the serve request span must nest under net_request"
    );
}
