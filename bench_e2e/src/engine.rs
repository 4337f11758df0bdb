//! The bench-side engine every workload serves from: real `QaSystem`
//! retrieval, KB construction and answering, with generated document
//! sets for tagged requests.

use crate::gen::{parse_tag, Generator, Tag};
use qkb_kb::OnTheFlyKb;
use qkb_obs::Recorder;
use qkb_qa::QaSystem;
use qkb_serve::{QueryEngine, QueryRequest};
use qkbfly::Qkbfly;
use std::sync::Arc;

/// A [`QueryEngine`] over one corpus. Untagged question text is
/// retrieved with BM25; tagged text resolves to the generator's document
/// set for that tag. Answers always come from `QaSystem::answer_in_kb`
/// over the real trends question (the tag stripped). With an enabled
/// recorder, `qa.retrieve`, `qa.doc_texts` and `qa.answer` spans wrap the
/// calls into the QA layer.
pub struct WorkloadEngine {
    sys: Arc<QaSystem>,
    gen: Arc<Generator>,
    recorder: Recorder,
}

impl WorkloadEngine {
    pub fn new(sys: Arc<QaSystem>, gen: Arc<Generator>, recorder: Recorder) -> Self {
        WorkloadEngine { sys, gen, recorder }
    }

    pub fn sys(&self) -> &QaSystem {
        &self.sys
    }

    /// The documents a request text retrieves.
    pub fn docs_for(&self, text: &str) -> Vec<usize> {
        match parse_tag(text) {
            (_, Some(Tag::Fresh(i))) => self.gen.fresh_set(i),
            (_, Some(Tag::Turn(s, t))) => self.gen.turn_set(s, t),
            (question, None) => self.sys.retrieve_docs(question),
        }
    }
}

impl QueryEngine for WorkloadEngine {
    fn qkbfly(&self) -> &Qkbfly {
        self.sys.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        let _span = self.recorder.span("qa.retrieve");
        self.docs_for(&request.text)
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        let _span = self.recorder.span("qa.doc_texts");
        self.sys.doc_texts(doc_ids)
    }

    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        self.sys.doc_fingerprint(doc_ids)
    }

    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        let _span = self.recorder.span("qa.answer");
        self.sys.answer_in_kb(parse_tag(&request.text).0, kb)
    }
}
