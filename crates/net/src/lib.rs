//! # qkb-net
//!
//! The durable network serving tier over `qkb_serve`: the paper's
//! query-driven KB construction as an actual long-running network
//! service that survives restarts.
//!
//! Three layers, bottom up:
//!
//! * [`frame`] — length-prefixed, checksummed binary frames. One layout
//!   serves both the TCP wire protocol and the on-disk journal, so the
//!   robustness properties (oversize rejected before allocation,
//!   corruption detected before decoding, truncation confined to one
//!   stream) are tested once and hold everywhere.
//! * [`proto`] + [`client`] — the request/response vocabulary
//!   (`query`, `query_in_session`, `stats`, `reset_stats`) with
//!   correlation ids for pipelining, and a blocking [`NetClient`].
//!   Load shedding is explicit: a request refused by admission control
//!   gets a `Busy` frame naming which bound shed it.
//! * [`server`] + [`journal`] — [`QkbNetServer`] wraps a
//!   [`qkb_serve::QkbServer`] with a bounded thread-per-connection
//!   acceptor pool, two-level admission control (per-connection
//!   inflight budget, global queue-depth watermark enforced by CAS so
//!   the depth provably never exceeds it), `net_request` root spans
//!   around the inner tier's `request` span trees, and an optional
//!   [`SessionJournal`]: a segmented, checksummed write-ahead log of
//!   committed session turns and session evictions with snapshot +
//!   truncation, replayed on
//!   warm restart through the production streaming path so recovered
//!   sessions are **byte-identical** to an uninterrupted run
//!   (`tests/journal_replay.rs` proves this under arbitrary
//!   crash-point truncation).
//!
//! Both layers count into the serve tier's one metrics registry
//! ([`qkb_serve::ServeConfig::registry`]): one snapshot, one reset.
//!
//! Everything is `std::net` + threads — the offline vendor tree has no
//! async runtime — in the same style as the rest of the workspace.

pub mod client;
pub mod frame;
pub mod journal;
pub mod proto;
pub mod server;

pub use client::{NetAnswer, NetClient, NetError};
pub use frame::{FrameError, DEFAULT_MAX_FRAME_BYTES};
pub use journal::{JournalConfig, JournalStats, Recovery, SessionJournal, TurnRecord};
pub use proto::{BusyScope, NetRequest, NetResponse, ProtoError};
pub use server::{NetConfig, NetStats, QkbNetServer};
