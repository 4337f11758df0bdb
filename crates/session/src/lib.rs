//! # qkb-session
//!
//! Session-scoped **streaming** knowledge bases — the paper's
//! interactive-exploration scenario (§6): a user issues a *sequence* of
//! related queries, and every query's retrieved documents stream into one
//! long-lived, monotonically growing KB instead of being answered from an
//! isolated throw-away fragment.
//!
//! * [`SessionKb`] — one session's accumulated KB plus its turn protocol:
//!   each turn filters the retrieved documents against the KB's resident
//!   set, provides stage-1 artifacts for the true misses only (through
//!   any `qkbfly::Stage1Provider`, e.g. the serving layer's shared
//!   per-document cache), and folds them in with the incremental
//!   canonicalizer `Qkbfly::extend_kb` — existing entity ids never change
//!   and the result is byte-identical to a cold build of the union;
//! * [`SessionManager`] — the concurrent session store: session ids map
//!   to independently locked slots (turns on different sessions run in
//!   parallel, turns on one session serialize), with **byte-budgeted LRU
//!   eviction** across sessions and an opportunistic **TTL sweep** for
//!   idle ones. An evicted id starts cold on its next use — stale state
//!   is never resurrected;
//! * [`PrefixForest`] — the process-wide registry of **frozen, shared KB
//!   prefixes**: the first session to build a given opening document
//!   sequence freezes it into immutable `Arc`-shared layers, and every
//!   later session with the same opening forks from the chain in O(1),
//!   paying bytes and build time only for its delta;
//! * [`SessionStats`] — sessions created/live/evicted, extend-vs-cold
//!   turns, per-document dedup counts, forest fork/freeze/share gauges.
//!   The store and the forest keep no counters of their own: they count
//!   into the `qkb_obs::Registry` they are built with, their occupancy
//!   is read when a snapshot is taken, and [`SessionStats`] reads that
//!   snapshot — the serving layer's `ServeStats` and Prometheus text
//!   come from the same one.
//!
//! Everything is `std::sync` (mutex-per-slot plus one short-lived manager
//! lock); there is no background thread — the TTL sweep runs on access
//! and on demand ([`SessionManager::sweep`]).

pub mod forest;
pub mod manager;
pub mod session;
pub mod stats;

pub use forest::{ForestConfig, ForestStats, PrefixForest};
pub use manager::{SessionConfig, SessionManager};
pub use session::{SessionKb, TurnReport};
pub use stats::SessionStats;
