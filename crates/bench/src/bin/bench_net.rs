//! **Network-tier microbench** — the durable serving tier (`qkb_net`)
//! measured over real loopback TCP in three arms:
//!
//! 1. **Throughput/latency**: closed-loop clients issue stateless queries
//!    over the framed wire protocol; reports requests/s and client-side
//!    p50/p95 (headline).
//! 2. **Overload**: a burst of pipelined cold queries against a tiny
//!    global admission watermark; asserts the queue-depth invariant
//!    (`queue_depth_peak <= watermark`) and that overload is answered
//!    with explicit BUSY frames, not latency collapse (shed-rate
//!    headline).
//! 3. **Crash recovery**: a multi-session run with the write-ahead
//!    journal attached, then a restart that rebuilds every session by
//!    replaying the journal. `replay_speedup` = wall-clock of the live
//!    networked run / wall-clock of the journal replay — the factor the
//!    journal saves over making clients re-send their query logs after a
//!    crash. Both sides pay the same KB-construction work on the same
//!    machine, so the ratio is stable across hosts; it is the headline
//!    gated by `bench_check` (`BENCH_net.json`).
//!
//! The journal runs with `fsync` off here: the bench crashes nothing,
//! and fsync cost is a property of the filesystem, not of the code under
//! test — it would make the gated ratio machine-dependent.
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_net
//!       [-- --quick] [-- --clients N] [-- --out FILE.json]`

use qkb_bench::{build_fixture, clone_repo, Table};
use qkb_net::{JournalConfig, NetClient, NetConfig, NetRequest, NetResponse, QkbNetServer};
use qkb_qa::QaSystem;
use qkb_serve::{QueryRequest, ServeConfig};
use qkb_util::json::Value;
use qkbfly::Qkbfly;
use std::sync::Arc;
use std::time::Instant;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qkb_bench_net_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let quick = arg_flag("--quick") || std::env::var("QKB_BENCH_QUICK").as_deref() == Ok("1");
    let clients: usize = arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_net.json".to_string());

    println!("== qkb_net: framed wire protocol, backpressure, journal replay ==\n");
    let fx = build_fixture();
    let mut docs = fx.wiki(12, 3).docs;
    docs.extend(fx.news(8, 4).docs);
    let qkb = Qkbfly::new(clone_repo(&fx.world), fx.patterns(), fx.stats());
    let mut sys = QaSystem::new(fx.world.clone(), docs, qkb);
    sys.top_k = 4;
    let sys = Arc::new(sys);
    let pool: Vec<String> = qkb_corpus::questions::trends_test(&fx.world, 8, 13)
        .into_iter()
        .map(|q| q.text)
        .collect();

    // --- arm 1: loopback throughput + client-observed latency ---
    let per_client = if quick { 12 } else { 30 };
    let serve = || ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let server = QkbNetServer::start(
        sys.clone(),
        NetConfig {
            serve: serve(),
            ..NetConfig::default()
        },
    )
    .expect("start net server");
    let addr = server.local_addr();
    // Warm the caches once so the measured phase is steady-state serving,
    // the regime a long-lived network tier actually runs in.
    {
        let mut warm = NetClient::connect(addr).expect("connect");
        for q in &pool {
            warm.query(QueryRequest::question(q)).expect("warm query");
        }
    }
    server.reset_stats();
    let t0 = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mut ms = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let q = &pool[(c + i) % pool.len()];
                        let t = Instant::now();
                        client.query(QueryRequest::question(q)).expect("query");
                        ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    ms
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    let total_requests = clients * per_client;
    let rps = total_requests as f64 / wall.as_secs_f64();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50_ms, p95_ms) = (
        percentile(&latencies_ms, 50.0),
        percentile(&latencies_ms, 95.0),
    );
    let throughput_stats = server.stats();
    drop(server);
    let mut table = Table::new(["Arm", "Requests", "req/s", "p50 ms", "p95 ms"]);
    table.row([
        "loopback throughput".to_string(),
        format!("{total_requests}"),
        format!("{rps:.1}"),
        format!("{p50_ms:.2}"),
        format!("{p95_ms:.2}"),
    ]);
    table.print();
    assert_eq!(throughput_stats.requests, total_requests as u64);
    assert_eq!(
        throughput_stats.shed_connection + throughput_stats.shed_global,
        0
    );

    // --- arm 2: overload sheds with BUSY frames, depth stays bounded ---
    let watermark: i64 = 2;
    let burst = if quick { 48 } else { 96 };
    let mut server = QkbNetServer::start(
        sys.clone(),
        NetConfig {
            queue_watermark: watermark,
            inflight_per_connection: 1024,
            serve: ServeConfig {
                shards: 1,
                cache_capacity: 0,
                stage1_cache_bytes: 0,
                batch_max: 1,
                ..ServeConfig::default()
            },
            ..NetConfig::default()
        },
    )
    .expect("start net server");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    for i in 0..burst {
        let id = i as u64 + 1;
        client
            .send(&NetRequest::Query {
                id,
                request: QueryRequest::question(&pool[i % pool.len()]),
            })
            .expect("send");
    }
    let (mut answered, mut shed) = (0u64, 0u64);
    for _ in 0..burst {
        match client.recv().expect("recv") {
            NetResponse::Answer { .. } => answered += 1,
            NetResponse::Busy { .. } => shed += 1,
            other => panic!("unexpected response under overload: {other:?}"),
        }
    }
    let overload_stats = server.stats();
    server.shutdown();
    let shed_rate = shed as f64 / burst as f64;
    println!(
        "\noverload: burst {burst}, watermark {watermark} -> answered {answered}, \
         shed {shed} ({:.0}% BUSY), queue_depth_peak {}",
        shed_rate * 100.0,
        overload_stats.queue_depth_peak
    );
    assert_eq!(answered + shed, burst as u64);
    assert!(
        overload_stats.queue_depth_peak <= watermark,
        "admission queue depth exceeded the watermark: {} > {watermark}",
        overload_stats.queue_depth_peak
    );
    assert!(
        shed > 0,
        "a {burst}-request burst against watermark {watermark} must shed"
    );

    // --- arm 3: crash recovery — journal replay vs re-driving the wire ---
    let sessions = if quick { 3 } else { 4 };
    let turns = if quick { 4 } else { 6 };
    let dir = fresh_dir("journal");
    let net_config = || NetConfig {
        journal: Some(JournalConfig {
            fsync: false,
            ..JournalConfig::new(&dir)
        }),
        serve: ServeConfig {
            shards: 1,
            batch_max: 1,
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    };
    let t0 = Instant::now();
    let journal_stats;
    {
        let server = QkbNetServer::start(sys.clone(), net_config()).expect("start net server");
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        for t in 0..turns {
            for s in 0..sessions {
                client
                    .query_in_session(
                        &format!("session-{s}"),
                        QueryRequest::question(&pool[(2 * s + t) % pool.len()]),
                    )
                    .expect("session turn");
            }
        }
        journal_stats = server.stats().journal.expect("journal attached");
    }
    let live_wall = t0.elapsed();

    let t0 = Instant::now();
    let recovered = QkbNetServer::start(sys.clone(), net_config()).expect("recover net server");
    let replay_wall = t0.elapsed();
    let report = recovered.replay_report();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    let total_turns = (sessions * turns) as u64;
    assert_eq!(
        report.replayed_turns, total_turns,
        "recovery must replay every committed turn"
    );
    assert_eq!(report.dropped_records, 0);
    let replay_speedup = live_wall.as_secs_f64() / replay_wall.as_secs_f64();
    println!(
        "crash recovery: {sessions} sessions x {turns} turns; live run {:.0} ms, \
         journal replay {:.0} ms -> replay_speedup {replay_speedup:.2}x \
         ({} appends journaled)",
        live_wall.as_secs_f64() * 1e3,
        replay_wall.as_secs_f64() * 1e3,
        journal_stats.appends
    );

    let report_json = Value::object()
        .with("bench", "net")
        .with("quick", quick)
        .with("clients", clients)
        .with("requests", total_requests)
        .with("rps", rps)
        .with("p50_ms", p50_ms)
        .with("p95_ms", p95_ms)
        .with(
            "overload",
            Value::object()
                .with("burst", burst)
                .with("watermark", watermark)
                .with("answered", answered)
                .with("shed", shed)
                .with("shed_rate", shed_rate)
                .with("queue_depth_peak", overload_stats.queue_depth_peak),
        )
        .with(
            "replay",
            Value::object()
                .with("sessions", sessions)
                .with("turns", total_turns)
                .with("live_wall_s", live_wall.as_secs_f64())
                .with("replay_wall_s", replay_wall.as_secs_f64())
                .with("journal", journal_stats.to_json()),
        )
        .with("replay_speedup", replay_speedup)
        .with("throughput_stats", throughput_stats.to_json());
    std::fs::write(&out_path, report_json.to_string()).expect("write bench report");
    println!("report written to {out_path}");
}
