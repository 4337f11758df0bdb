//! # qkb-serve
//!
//! A sharded query-serving front-end for on-the-fly knowledge-base
//! construction. The paper's premise makes the *serving* path the
//! production hot loop — KB fragments are built at query time — so this
//! crate turns the batch machinery of `qkbfly` + `qkb_qa` into a
//! long-running server:
//!
//! * [`QkbServer`] — N worker shards over an admission queue, each shard
//!   holding a cheaply cloned `Qkbfly` handle and serving one request at
//!   a time, oldest first; a request is answered as soon as its own work
//!   is done, and one that panics fails alone;
//! * **request coalescing** — while the fragment cache is on, concurrent
//!   requests for the same retrieved documents share one in-flight
//!   build through a global table across shards;
//! * **two-tier cache** — a sharded bounded LRU fragment cache keyed
//!   by the fingerprint of the query's retrieved-document set (exact-set
//!   reuse), fronted by a byte-bounded per-document stage-1 cache
//!   ([`Stage1Cache`]): queries whose retrieved sets merely *overlap*
//!   build their fragment from memoized per-document artifacts
//!   (`Qkbfly::provide_stage1` through the cache), re-running stage 1
//!   only for never-seen documents (hit/miss/evict counters on both
//!   tiers);
//! * **session-scoped streaming KBs** — [`QkbServer::query_in_session`]
//!   gives each client session a long-lived, monotonically growing KB
//!   (the paper's interactive-exploration scenario, §6): successive
//!   queries' retrieved documents stream in through
//!   `qkbfly::Qkbfly::extend_kb` (ids stable, already-resident documents
//!   deduplicated, stage-1 artifacts shared with the per-document cache)
//!   and answers come from the accumulated KB; sessions live in a
//!   byte-budgeted, TTL-swept `qkb_session::SessionManager` shared by
//!   all shards;
//! * **one metrics registry** — every serving counter (requests,
//!   builds, both cache tiers, the session store, the prefix
//!   forest) lives once, in [`ServeConfig::registry`], which the network
//!   tier and its journal count into too; occupancy is read from the
//!   live stores when a snapshot is taken. One
//!   snapshot ([`QkbServer::registry_snapshot`]) is rendered both as
//!   [`ServeStats`] (p50/p95 latency from the sample ring, throughput,
//!   hit rates, per-stage build time, session-store view) and as
//!   Prometheus text ([`QkbServer::metrics_text`]), and one
//!   [`QkbServer::reset_stats`] — a single registry reset — is the
//!   benchmark phase boundary;
//! * **tracing** — pass a live [`qkb_obs::Recorder`] in
//!   [`ServeConfig::recorder`] and every request records a span tree
//!   (admission wait, fragment-cache outcome, fragment build with the
//!   core's per-stage, per-component and fold spans nested inside,
//!   answer)
//!   exportable as Chrome-trace JSON via [`qkb_obs::chrome_trace`].
//!
//! Everything is built on `std::sync` channels, mutexes and threads —
//! the offline vendor tree has no async runtime — mirroring the style of
//! `qkb_util::par_map_ordered`.
//!
//! Determinism contract: every KB — fragment or session — comes from the
//! one deterministic document-order fold, and answers are a pure function
//! of `(request, kb)`, so a cache-hit or coalesced answer is
//! **byte-identical** to a cold build's at any shard count
//! (`tests/serving.rs` enforces this).

pub mod cache;
pub mod engine;
pub mod request;
pub mod server;
mod sharded;
pub mod stage1_cache;
pub mod stats;

pub use cache::{CacheCounters, FragmentCache};
pub use engine::QueryEngine;
pub use qkb_session::{SessionConfig, SessionStats};
pub use request::{QueryKind, QueryRequest, QueryResponse, Served};
pub use server::{LoggedTurn, QkbServer, ServeClient, ServeConfig, TurnLog};
pub use stage1_cache::{Stage1Cache, Stage1Counters};
pub use stats::ServeStats;
