//! The engine abstraction the server runs on, and its [`QaSystem`] glue.
//!
//! The server owns scheduling (sharding, coalescing, caching, batching)
//! and delegates the three semantic steps of the paper's query-time path
//! to an engine: retrieve documents for a query, hand out the QKBfly
//! handle that builds a KB from them, extract answers from a KB.
//! `qkb_qa::QaSystem` is the production engine; tests can supply stubs.

use crate::request::{QueryKind, QueryRequest};
use qkb_kb::OnTheFlyKb;
use qkb_qa::QaSystem;
use qkbfly::Qkbfly;

/// The semantic backend of the server.
///
/// All methods take `&self` and are called concurrently from every worker
/// shard; engines must be internally immutable at serve time (the QKBfly
/// repositories already are — see ARCHITECTURE.md).
pub trait QueryEngine: Send + Sync + 'static {
    /// The QKBfly handle fragments are built with. Worker shards clone it
    /// (cheap, `Arc`-shared repositories) and apply their own
    /// `with_parallelism` override, and its shared [`qkbfly::BuildCounters`]
    /// are the test hook proving coalescing.
    fn qkbfly(&self) -> &Qkbfly;

    /// Top-k document ids for a query (retrieval step).
    fn retrieve(&self, request: &QueryRequest) -> Vec<usize>;

    /// Full texts of the given documents, in the given order. Their
    /// fingerprint is the fragment-cache key.
    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String>;

    /// The fragment-cache key: a stable fingerprint of the documents'
    /// texts. Must equal `fingerprint_seq(doc_texts(doc_ids))`; engines
    /// should override to avoid materializing the texts on the cache-hit
    /// fast path.
    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        qkb_util::fingerprint_seq(self.doc_texts(doc_ids).iter())
    }

    /// Answers for a request against any constructed on-the-fly KB —
    /// a cached fragment, or a session's accumulated one. Must be
    /// deterministic in `(request, kb)` — the cache-hit/cold-build and
    /// session/cold-union byte-identity contracts both rest on this.
    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String>;
}

/// Engines can be shared: several servers (e.g. a baseline and a cached
/// configuration under benchmark) may serve from one loaded system.
impl<E: QueryEngine> QueryEngine for std::sync::Arc<E> {
    fn qkbfly(&self) -> &Qkbfly {
        (**self).qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        (**self).retrieve(request)
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        (**self).doc_texts(doc_ids)
    }

    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        (**self).doc_fingerprint(doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        (**self).answer_kb(request, kb)
    }
}

impl QueryEngine for QaSystem {
    fn qkbfly(&self) -> &Qkbfly {
        QaSystem::qkbfly(self)
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        self.retrieve_docs(&request.text)
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        QaSystem::doc_texts(self, doc_ids)
    }

    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        QaSystem::doc_fingerprint(self, doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        match request.kind {
            QueryKind::Question => self.answer_in_kb(&request.text, kb),
            QueryKind::EntitySeed => kb
                .search(
                    Some(&request.text),
                    None,
                    None,
                    self.qkbfly().repo(),
                    self.qkbfly().patterns(),
                )
                .into_iter()
                .map(|f| kb.render_fact(f, self.qkbfly().patterns()))
                .collect(),
        }
    }
}

// Fragment KBs are shared across shards through the cache; the engine is
// shared by every worker thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OnTheFlyKb>();
    assert_send_sync::<QaSystem>();
};
