//! Request and response types of the serving front-end.

use std::time::Duration;

/// What kind of knowledge the client is asking for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// A natural-language question; the response carries ranked answers.
    Question,
    /// An entity seed (a name); the response carries the fragment's facts
    /// about that entity, rendered in the paper's notation.
    EntitySeed,
}

/// One query accepted by [`crate::QkbServer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Request kind.
    pub kind: QueryKind,
    /// Question text or entity name.
    pub text: String,
}

impl QueryRequest {
    /// A natural-language question request.
    pub fn question(text: impl Into<String>) -> Self {
        Self {
            kind: QueryKind::Question,
            text: text.into(),
        }
    }

    /// An entity-seed request.
    pub fn entity(name: impl Into<String>) -> Self {
        Self {
            kind: QueryKind::EntitySeed,
            text: name.into(),
        }
    }
}

/// How the server obtained the KB behind a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// The fragment was built for this request (from the stage-1
    /// cache's artifacts where it held them).
    ColdBuild,
    /// The fragment came out of the fragment cache.
    CacheHit,
    /// The request piggybacked on another worker's in-flight build.
    Coalesced,
    /// The request started a session: its KB was empty before this turn.
    SessionCold,
    /// The request extended an existing session KB incrementally.
    SessionExtended,
    /// The request started a session by **forking** a frozen, shared KB
    /// prefix from the prefix forest (same opening document sequence as
    /// an earlier session) instead of rebuilding it.
    SessionForked,
}

/// The server's reply to one [`QueryRequest`].
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Ranked answers (questions) or rendered facts (entity seeds).
    pub answers: Vec<String>,
    /// How the backing KB was obtained.
    pub served: Served,
    /// Fingerprint of the retrieved-document set (the fragment-cache key).
    pub fragment_key: u64,
    /// Documents behind the answering KB (for session responses: the
    /// whole accumulated session KB, not just this turn's retrieval).
    pub n_docs: usize,
    /// Facts in the answering KB.
    pub n_facts: usize,
    /// Queue-to-reply wall clock.
    pub latency: Duration,
}
