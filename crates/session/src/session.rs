//! One session's growing KB and its turn protocol.

use crate::forest::PrefixForest;
use qkb_kb::{doc_sequence_key, OnTheFlyKb};
use qkbfly::{Qkbfly, ResolveCounters, Stage1Provider, StageTimings};
use std::sync::Arc;

/// What one query turn did to a session KB.
#[derive(Clone, Copy, Debug, Default)]
pub struct TurnReport {
    /// True when the session KB was empty before this turn — the turn
    /// paid a cold build rather than an incremental extension.
    pub cold: bool,
    /// True when this (cold) turn forked a frozen prefix from the
    /// [`PrefixForest`] instead of building the opening documents
    /// privately — the session shares its prefix bytes with every other
    /// fork of the same chain.
    pub forked: bool,
    /// Documents newly merged into the session KB this turn.
    pub merged: usize,
    /// Documents skipped because they were already resident in the
    /// session KB (or repeated within the turn) — the streaming dedup
    /// count.
    pub deduped: usize,
    /// Stage timings of the merged documents (canonicalize is this
    /// turn's wall clock; earlier slots carry the artifacts' original
    /// compute cost).
    pub timings: StageTimings,
    /// Resolve-stage counters of the merged documents (the artifacts'
    /// original work, like the earlier timing slots).
    pub resolve: ResolveCounters,
}

/// A session-scoped, monotonically growing on-the-fly KB.
///
/// Successive query turns stream their retrieved documents in via
/// [`SessionKb::extend`]; the underlying KB only ever grows (entities
/// and facts are append-only, ids are stable across turns), and after
/// any sequence of turns it is byte-identical to one cold
/// `Qkbfly::build_kb` over the distinct documents in first-arrival
/// order.
#[derive(Default)]
pub struct SessionKb {
    kb: OnTheFlyKb,
    turns: u64,
    forest: Option<Arc<PrefixForest>>,
}

impl SessionKb {
    /// An empty session KB with a fully private KB (no prefix sharing).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty session KB wired to the process-wide prefix forest: its
    /// opening turn forks a matching frozen chain when one exists, and
    /// registers its own cold opening otherwise.
    pub fn with_forest(forest: Arc<PrefixForest>) -> Self {
        SessionKb {
            forest: Some(forest),
            ..Self::default()
        }
    }

    /// The accumulated KB (answer queries against this).
    pub fn kb(&self) -> &OnTheFlyKb {
        &self.kb
    }

    /// Query turns streamed into this session so far.
    pub fn turns(&self) -> u64 {
        self.turns
    }

    /// Approximate heap footprint this session **owns** — its weight
    /// under the manager's byte budget. Frozen prefix layers forked from
    /// the forest are shared across sessions and excluded here; they are
    /// accounted once, by [`crate::ForestStats::shared_bytes`].
    pub fn approx_bytes(&self) -> u64 {
        self.kb.approx_bytes_owned() + std::mem::size_of::<Self>() as u64
    }

    /// Approximate total reachable footprint, shared prefix layers
    /// included — what a private (forest-off) session of the same
    /// content would weigh.
    pub fn approx_bytes_total(&self) -> u64 {
        self.kb.approx_bytes_total() + std::mem::size_of::<Self>() as u64
    }

    /// The forest key of one turn's retrieved documents: the
    /// first-occurrence-deduped text fingerprints in retrieval order —
    /// exactly the `merged_docs()` sequence a cold
    /// `Qkbfly::stream_into_kb` of `texts` produces.
    pub fn turn_key(texts: &[String]) -> u64 {
        let mut seen = qkb_util::FxHashSet::default();
        doc_sequence_key(
            texts
                .iter()
                .map(|t| qkb_util::fingerprint64(t.as_bytes()))
                .filter(|fp| seen.insert(*fp)),
        )
    }

    /// Streams one query turn's retrieved documents into the session KB.
    ///
    /// Documents already resident (by text fingerprint) are skipped
    /// without touching `provider` — an overlapping follow-up query costs
    /// stage 1 only for its never-seen documents, and nothing at all when
    /// fully covered. Fresh documents are provided (fanned out over the
    /// system's `parallelism` workers, compute-or-lookup through
    /// `provider`) and folded in by `Qkbfly::extend_kb` in retrieval
    /// order.
    pub fn extend(
        &mut self,
        qkb: &Qkbfly,
        provider: &(impl Stage1Provider + ?Sized),
        texts: &[String],
    ) -> TurnReport {
        let cold = self.kb.n_docs() == 0;
        let mut forked = false;
        if cold {
            if let Some(forest) = self.forest.clone() {
                if let Some(layers) = forest.lookup(Self::turn_key(texts)) {
                    let mut span = qkb.recorder().span("session_fork");
                    span.field(
                        "prefix",
                        layers.last().expect("non-empty chain").chain_key(),
                    );
                    span.field("layers", layers.len());
                    drop(span);
                    self.kb = OnTheFlyKb::from_layers(layers);
                    forked = true;
                }
            }
        }
        let mut span = qkb.recorder().span("session_extend");
        span.field("turn", self.turns + 1);
        span.field("cold", cold);
        span.field("forked", forked);
        let outcome = qkb.stream_into_kb(provider, &mut self.kb, texts);
        span.field("merged", outcome.merged);
        span.field("deduped", outcome.skipped);
        drop(span);
        // A cold opening built privately becomes the shared prefix for
        // every later session with the same opening: seal the tip and
        // register the chain. (A forked opening's chain is registered
        // already; its delta stays mutable in the tip.)
        if cold && !forked && outcome.merged > 0 {
            if let Some(forest) = self.forest.clone() {
                if let Some(layer) = self.kb.freeze() {
                    let mut span = qkb.recorder().span("prefix_freeze");
                    span.field("prefix", layer.chain_key());
                    span.field("bytes", layer.approx_bytes());
                    drop(span);
                    forest.register(self.kb.frozen_layers());
                }
            }
        }
        self.turns += 1;
        TurnReport {
            cold,
            forked,
            merged: outcome.merged,
            deduped: outcome.skipped,
            timings: outcome.timings,
            resolve: outcome.resolve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkb_kb::{BackgroundStats, EntityRepository, PatternRepository};
    use qkbfly::ComputeStage1;

    fn tiny_system() -> Qkbfly {
        Qkbfly::new(
            EntityRepository::new(),
            PatternRepository::standard(),
            BackgroundStats::empty(),
        )
    }

    #[test]
    fn overlapping_turns_dedup_and_grow_monotonically() {
        let qkb = tiny_system();
        let mut session = SessionKb::new();
        let a = "Ada Lovelace wrote the first program.".to_string();
        let b = "Alan Turing proposed the imitation game.".to_string();
        let c = "Grace Hopper built the first compiler.".to_string();

        let t1 = session.extend(&qkb, &ComputeStage1, &[a.clone(), b.clone()]);
        assert!(t1.cold);
        assert_eq!((t1.merged, t1.deduped), (2, 0));
        assert_eq!(session.kb().n_docs(), 2);

        let before = qkb.counters().stage1_computed();
        let t2 = session.extend(&qkb, &ComputeStage1, &[b.clone(), c.clone(), b]);
        assert!(!t2.cold);
        assert_eq!((t2.merged, t2.deduped), (1, 2));
        assert_eq!(session.kb().n_docs(), 3);
        assert_eq!(
            qkb.counters().stage1_computed() - before,
            1,
            "resident documents must not be re-provided"
        );

        // A fully covered turn is free.
        let before = qkb.counters().stage1_computed();
        let t3 = session.extend(&qkb, &ComputeStage1, &[a, c]);
        assert_eq!((t3.merged, t3.deduped), (0, 2));
        assert_eq!(qkb.counters().stage1_computed(), before);
        assert_eq!(session.turns(), 3);
    }

    #[test]
    fn opening_turns_fork_the_shared_prefix_and_stay_byte_identical() {
        let qkb = tiny_system();
        let forest = Arc::new(PrefixForest::new(u64::MAX, &qkb_obs::Registry::new()));
        let opening = vec![
            "Ada Lovelace wrote the first program.".to_string(),
            "Alan Turing proposed the imitation game.".to_string(),
        ];
        let delta = "Grace Hopper built the first compiler.".to_string();

        // First session: cold build, freezes + registers its opening.
        let mut first = SessionKb::with_forest(forest.clone());
        let t = first.extend(&qkb, &ComputeStage1, &opening);
        assert!(t.cold && !t.forked);
        assert_eq!(forest.stats().freezes, 1);
        assert_eq!(first.kb().frozen_layers().len(), 1);

        // Second session, same opening: forks in O(1), no stage-1 work.
        let before = qkb.counters().stage1_computed();
        let mut second = SessionKb::with_forest(forest.clone());
        let t = second.extend(&qkb, &ComputeStage1, &opening);
        assert!(t.cold && t.forked);
        assert_eq!((t.merged, t.deduped), (0, 2));
        assert_eq!(
            qkb.counters().stage1_computed(),
            before,
            "a forked opening must not recompute the shared prefix"
        );
        assert!(Arc::ptr_eq(
            &first.kb().frozen_layers()[0],
            &second.kb().frozen_layers()[0]
        ));

        // The fork extended with a delta equals a cold private build of
        // the same document sequence, byte for byte.
        second.extend(&qkb, &ComputeStage1, std::slice::from_ref(&delta));
        let mut cold = SessionKb::new();
        let mut docs = opening.clone();
        docs.push(delta);
        cold.extend(&qkb, &ComputeStage1, &docs);
        let patterns = qkb.patterns();
        assert_eq!(
            second.kb().to_json(patterns).to_string(),
            cold.kb().to_json(patterns).to_string(),
            "forked+extended KB must serialize byte-identically to a cold build"
        );
        assert_eq!(forest.stats().forks, 1);
    }

    #[test]
    fn owned_bytes_charge_the_shared_prefix_once_across_forks() {
        let qkb = tiny_system();
        let forest = Arc::new(PrefixForest::new(u64::MAX, &qkb_obs::Registry::new()));
        let opening =
            vec!["Ada Lovelace wrote the first program about the analytical engine.".to_string()];
        let mut first = SessionKb::with_forest(forest.clone());
        first.extend(&qkb, &ComputeStage1, &opening);
        let mut second = SessionKb::with_forest(forest.clone());
        let t = second.extend(&qkb, &ComputeStage1, &opening);
        assert!(t.forked);
        // The budget-facing weight excludes the shared layer; the total
        // includes it. Two forks therefore re-charge the prefix zero
        // times — it is accounted once, in the forest's shared_bytes.
        let shared = forest.stats().shared_bytes;
        assert!(shared > 0);
        assert!(second.approx_bytes() < second.approx_bytes_total());
        assert_eq!(second.approx_bytes_total() - second.approx_bytes(), shared);
        assert!(
            first.approx_bytes() + second.approx_bytes() + shared
                < first.approx_bytes_total() + second.approx_bytes_total(),
            "owned accounting must not double-charge the shared prefix"
        );
    }

    #[test]
    fn approx_bytes_grows_with_the_kb() {
        let qkb = tiny_system();
        let mut session = SessionKb::new();
        let empty = session.approx_bytes();
        session.extend(
            &qkb,
            &ComputeStage1,
            &["Ada Lovelace wrote the first program about the analytical engine.".to_string()],
        );
        assert!(session.approx_bytes() > empty);
    }
}
