//! The end-to-end QKBfly system and its evaluation variants.
//!
//! * **QKBfly** (joint): stage 1 → greedy densification → canonicalization;
//! * **QKBfly-pipeline**: three separate stages — extraction, per-mention
//!   NED (type signatures omitted), recency-based CR (§7.1);
//! * **QKBfly-noun**: no co-reference resolution at all (§7.1);
//! * **QKBfly-ilp**: exact joint inference via the Appendix-A ILP (§7.2).
//!
//! `build_kb` is the paper's query-time entry point: documents in, a
//! canonicalized on-the-fly KB out, with per-stage wall-clock timings
//! (§7.1 reports <1 s/document with about half the time in
//! pre-processing).

use crate::build::{build_graph, BuildConfig, BuiltGraph, GraphArg, GraphClause};
use crate::canonicalize::{canonicalize_into, CanonConfig, DocCanonOutput};
use crate::decompose::{densify_decomposed, resolve_ilp_decomposed};
use crate::densify::DensifyOutcome;
use crate::densify::{
    densify, resolve_independent, resolve_pronouns_by_recency, MentionResolution,
};
use crate::graph::{EdgeKind, NodeId, NodeKind, SemanticGraph};
use crate::ilp::{resolve_ilp, IlpSolveOptions};
use crate::weights::WeightModel;
use qkb_kb::{BackgroundStats, EntityId, EntityRepository, Fact, OnTheFlyKb, PatternRepository};
use qkb_nlp::Pipeline as NlpPipeline;
use qkb_obs::Recorder;
use qkb_openie::{ClausIe, Clause, Extraction};
use qkb_util::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Architecture variant (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Joint fact extraction + NED + CR (the QKBfly row).
    Joint,
    /// Separate stages, type signatures omitted (QKBfly-pipeline).
    PipelineArch,
    /// Fact extraction + NED only, no CR (QKBfly-noun).
    NounOnly,
}

/// Inference backend for the joint variant (Table 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Greedy densest-subgraph approximation (Algorithm 1).
    Greedy,
    /// Exact 0-1 ILP (Appendix A).
    Ilp,
}

/// Full system configuration.
#[derive(Clone, Debug)]
pub struct QkbflyConfig {
    /// Architecture variant.
    pub variant: Variant,
    /// Joint-inference backend.
    pub solver: SolverKind,
    /// Edge-weight hyper-parameters α₁..α₄.
    pub alphas: [f64; 4],
    /// Fact confidence threshold τ.
    pub tau: f64,
    /// Emit higher-arity facts.
    pub emit_nary: bool,
    /// Worker threads for the per-document phase of [`Qkbfly::build_kb`]:
    /// `0` uses all available cores, `1` is the fully serial path. The
    /// canonicalized KB is byte-identical for every setting (per-document
    /// outputs are merged in document order).
    pub parallelism: usize,
    /// Decompose the per-document resolve problem into coupling
    /// components (see [`crate::decompose`]), solved one after another
    /// on the calling thread (on by default). `false` restores the
    /// monolithic whole-document solve — the cold baseline arm of
    /// `bench_resolve` — and disables candidate pruning and the greedy
    /// warm start along with it.
    pub resolve_decomposition: bool,
}

impl Default for QkbflyConfig {
    fn default() -> Self {
        Self {
            variant: Variant::Joint,
            solver: SolverKind::Greedy,
            alphas: WeightModel::default().alphas,
            tau: 0.5,
            emit_nary: true,
            parallelism: 0,
            resolve_decomposition: true,
        }
    }
}

/// Wall-clock breakdown per stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Tokenization, tagging, NER, time tagging, chunking, parsing,
    /// clause detection.
    pub preprocess: Duration,
    /// Semantic-graph construction.
    pub graph: Duration,
    /// NED+CR inference.
    pub resolve: Duration,
    /// Canonicalization.
    pub canonicalize: Duration,
}

impl StageTimings {
    /// Total time.
    pub fn total(&self) -> Duration {
        self.preprocess + self.graph + self.resolve + self.canonicalize
    }

    /// Accumulates another document's (or build's) timings into these.
    pub fn add(&mut self, other: &StageTimings) {
        self.preprocess += other.preprocess;
        self.graph += other.graph;
        self.resolve += other.resolve;
        self.canonicalize += other.canonicalize;
    }

    /// Per-stage wall-clock in microseconds, for serving metrics and
    /// benchmark reports.
    pub fn to_json(&self) -> qkb_util::json::Value {
        qkb_util::json::Value::object()
            .with("preprocess_us", self.preprocess.as_micros() as f64)
            .with("graph_us", self.graph.as_micros() as f64)
            .with("resolve_us", self.resolve.as_micros() as f64)
            .with("canonicalize_us", self.canonicalize.as_micros() as f64)
            .with("total_us", self.total().as_micros() as f64)
    }
}

/// One surface extraction with provenance and the τ decision.
#[derive(Clone, Debug)]
pub struct ExtractionRecord {
    /// Document index within the input set.
    pub doc: usize,
    /// The surface extraction (canonicalized subject/relation/args).
    pub extraction: Extraction,
    /// Whether the τ filter kept the corresponding fact.
    pub kept: bool,
    /// Resolved repository entity per slot (subject first, then args;
    /// `None` for emerging entities and literals).
    pub slot_entities: Vec<Option<EntityId>>,
}

/// One chosen entity link (for NED assessment).
#[derive(Clone, Debug)]
pub struct LinkRecord {
    /// Document index.
    pub doc: usize,
    /// Sentence index.
    pub sentence: usize,
    /// Mention surface.
    pub phrase: String,
    /// Linked repository entity.
    pub entity: EntityId,
    /// Link confidence.
    pub confidence: f64,
}

/// Resolve-stage work counters (per document, summable across a build).
///
/// These turn the one-off "ILP variable count" diagnostic into a benched
/// series: `bench_resolve` reports them per arm, and the serving layer
/// accumulates them into its stats snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResolveCounters {
    /// Coupling components the resolve problem decomposed into
    /// (1 for a monolithic solve).
    pub components: u64,
    /// ILP variables built (0 for the greedy backend).
    pub ilp_variables: u64,
    /// Branch-and-bound nodes explored (0 for the greedy backend).
    pub bnb_nodes: u64,
    /// Candidate entities eliminated by the admissible pruning bound
    /// before the solver.
    pub pruned_candidates: u64,
}

impl ResolveCounters {
    /// Accumulates another document's counters into this one.
    pub fn add(&mut self, other: &ResolveCounters) {
        self.components += other.components;
        self.ilp_variables += other.ilp_variables;
        self.bnb_nodes += other.bnb_nodes;
        self.pruned_candidates += other.pruned_candidates;
    }

    /// JSON rendering for benchmark reports and serving stats.
    pub fn to_json(&self) -> qkb_util::json::Value {
        qkb_util::json::Value::object()
            .with("components", self.components)
            .with("ilp_variables", self.ilp_variables)
            .with("bnb_nodes", self.bnb_nodes)
            .with("pruned_candidates", self.pruned_candidates)
    }
}

/// Per-document diagnostics.
#[derive(Clone, Debug, Default)]
pub struct DocResult {
    /// Stage timings for this document.
    pub timings: StageTimings,
    /// Graph size (nodes, edges).
    pub graph_size: (usize, usize),
    /// Resolve-stage work counters (components, ILP variables,
    /// branch-and-bound nodes, pruned candidates).
    pub resolve: ResolveCounters,
}

/// The result of building an on-the-fly KB.
pub struct BuildResult<'a> {
    /// The canonicalized KB.
    pub kb: OnTheFlyKb,
    /// All extraction records (assessment view).
    pub records: Vec<ExtractionRecord>,
    /// All link records (assessment view).
    pub links: Vec<LinkRecord>,
    /// Summed stage timings.
    pub timings: StageTimings,
    /// Per-document diagnostics.
    pub per_doc: Vec<DocResult>,
    patterns: &'a PatternRepository,
}

impl BuildResult<'_> {
    /// Paper-style rendering of a fact from this KB.
    pub fn render(&self, fact: &Fact) -> String {
        self.kb.render_fact(fact, self.patterns)
    }
}

/// What one [`Qkbfly::extend_kb`] call did to the target KB.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtendOutcome {
    /// Artifacts merged (their documents were new to the KB).
    pub merged: usize,
    /// Artifacts skipped because their document was already resident —
    /// the streaming dedup count.
    pub skipped: usize,
    /// Summed stage timings of the merged documents: canonicalize is
    /// this call's wall clock, the earlier slots carry the artifacts'
    /// original compute cost (their provenance).
    pub timings: StageTimings,
    /// Summed resolve-stage counters of the merged documents (again the
    /// artifacts' provenance: a cached artifact reports the work its
    /// original computation did).
    pub resolve: ResolveCounters,
}

/// The output of the pure per-document phase (preprocessing, semantic
/// graph, joint NED+CR) — everything that can run concurrently across
/// the documents of a batch. Feed it to [`Qkbfly::extend_kb`] in document
/// order to obtain the canonicalized KB.
///
/// The artifact is fully owned (no borrowed lifetimes) and depends only
/// on the document text and the system configuration — not on the
/// document's position in a batch — so it can sit behind an
/// `Arc<DocStage1>` in a per-document cache and be merged into any
/// number of KBs.
pub struct DocStage1 {
    /// Fingerprint of the source document text
    /// (`qkb_util::fingerprint64`) — the artifact's identity for
    /// per-document caches and the streaming dedup probe of
    /// [`Qkbfly::extend_kb`].
    pub fingerprint: u64,
    /// The densified per-document semantic graph.
    pub built: BuiltGraph,
    /// Resolutions chosen by the inference backend.
    pub outcome: DensifyOutcome,
    /// Diagnostics accumulated so far (preprocess/graph/resolve timings;
    /// the canonicalize slot is filled by the merge phase).
    pub diag: DocResult,
}

impl DocStage1 {
    /// Approximate heap footprint in bytes — the eviction weight for
    /// byte-bounded stage-1 caches. Dominated by the semantic graph;
    /// clause projections, mention lists and resolutions are estimated
    /// from their counts.
    pub fn approx_bytes(&self) -> usize {
        let clause_bytes: usize = self
            .built
            .clauses
            .iter()
            .map(|c| {
                std::mem::size_of::<GraphClause>()
                    + c.verb_lemma.capacity()
                    + c.args.capacity() * std::mem::size_of::<GraphArg>()
                    + c.args.iter().map(|a| a.pattern.capacity()).sum::<usize>()
            })
            .sum();
        let extra_bytes: usize = self
            .built
            .extra_relations
            .iter()
            .map(|(_, _, pattern, _)| {
                pattern.capacity() + std::mem::size_of::<(NodeId, NodeId, String, usize)>()
            })
            .sum();
        std::mem::size_of::<Self>()
            + self.built.graph.approx_bytes()
            + clause_bytes
            + extra_bytes
            + self.built.mentions.capacity() * std::mem::size_of::<NodeId>()
            + self.outcome.resolutions.len()
                * (std::mem::size_of::<NodeId>() + std::mem::size_of::<MentionResolution>())
                * 2
    }
}

/// A compute-or-lookup source of per-document stage-1 artifacts.
///
/// [`Qkbfly::build_kb_with`], [`Qkbfly::stream_into_kb`] and
/// [`Qkbfly::provide_stage1`] ask a provider for each document's artifact
/// instead of unconditionally running [`Qkbfly::process_doc_stage1`]; a
/// caching provider (the serving layer's per-document LRU) returns
/// memoized artifacts for documents it has seen. Because stage 1 is a
/// pure function of the document text under a fixed configuration, any
/// provider that returns `qkb.process_doc_stage1(text)` — fresh or
/// memoized — preserves the byte-identity of the built KB with a cold
/// build.
///
/// Providers are called concurrently from the per-document fan-out and
/// must be `Sync`.
pub trait Stage1Provider: Sync {
    /// The stage-1 artifact for one document text (computed or cached).
    fn provide(&self, qkb: &Qkbfly, text: &str) -> Arc<DocStage1>;
}

/// The trivial provider: always computes. `build_kb(docs)` is exactly
/// `build_kb_with(&ComputeStage1, docs)`.
pub struct ComputeStage1;

impl Stage1Provider for ComputeStage1 {
    fn provide(&self, qkb: &Qkbfly, text: &str) -> Arc<DocStage1> {
        Arc::new(qkb.process_doc_stage1(text))
    }
}

/// Cumulative build counters, shared by every clone of a system handle.
///
/// Monotonic and lock-free; the serving layer reads them for its stats
/// snapshot, and tests use them as a hook to prove request coalescing
/// (K concurrent identical queries must trigger exactly one build).
#[derive(Debug, Default)]
pub struct BuildCounters {
    builds: AtomicU64,
    docs: AtomicU64,
    stage1_computed: AtomicU64,
    resolve_components: AtomicU64,
    ilp_variables: AtomicU64,
    bnb_nodes: AtomicU64,
    pruned_candidates: AtomicU64,
}

impl BuildCounters {
    /// KB builds started so far ([`Qkbfly::build_kb_with`] and
    /// [`Qkbfly::extend_kb`] calls).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Documents merged by builds so far (repeats are merged once).
    pub fn docs(&self) -> u64 {
        self.docs.load(Ordering::Relaxed)
    }

    /// Stage-1 computations actually executed ([`Qkbfly::process_doc_stage1`]
    /// runs). With a caching [`Stage1Provider`], this lags [`BuildCounters::docs`]
    /// by exactly the documents served from cache — the test hook proving
    /// incremental reuse (two overlapping queries must add `|union|`, not
    /// `|A| + |B|`).
    pub fn stage1_computed(&self) -> u64 {
        self.stage1_computed.load(Ordering::Relaxed)
    }

    /// Cumulative resolve-stage counters across every stage-1 run.
    pub fn resolve(&self) -> ResolveCounters {
        ResolveCounters {
            components: self.resolve_components.load(Ordering::Relaxed),
            ilp_variables: self.ilp_variables.load(Ordering::Relaxed),
            bnb_nodes: self.bnb_nodes.load(Ordering::Relaxed),
            pruned_candidates: self.pruned_candidates.load(Ordering::Relaxed),
        }
    }

    fn record(&self, builds: u64, docs: u64) {
        self.builds.fetch_add(builds, Ordering::Relaxed);
        self.docs.fetch_add(docs, Ordering::Relaxed);
    }

    fn record_stage1(&self) {
        self.stage1_computed.fetch_add(1, Ordering::Relaxed);
    }

    fn record_resolve(&self, c: &ResolveCounters) {
        self.resolve_components
            .fetch_add(c.components, Ordering::Relaxed);
        self.ilp_variables
            .fetch_add(c.ilp_variables, Ordering::Relaxed);
        self.bnb_nodes.fetch_add(c.bnb_nodes, Ordering::Relaxed);
        self.pruned_candidates
            .fetch_add(c.pruned_candidates, Ordering::Relaxed);
    }
}

/// The QKBfly system: shares its background repositories (`Arc`, read-only
/// at query time) across worker threads and cloned handles, plus the
/// per-system configuration.
///
/// Cloning is cheap — repositories, background statistics and the NLP
/// pipeline are reference-counted, only the configuration is copied — so a
/// serving layer can hand each request thread its own handle.
#[derive(Clone)]
pub struct Qkbfly {
    repo: Arc<EntityRepository>,
    patterns: Arc<PatternRepository>,
    stats: Arc<BackgroundStats>,
    nlp: Arc<NlpPipeline>,
    clausie: Arc<ClausIe>,
    counters: Arc<BuildCounters>,
    recorder: Recorder,
    config: QkbflyConfig,
}

impl Qkbfly {
    /// System with default configuration (joint greedy, τ = 0.5).
    pub fn new(
        repo: EntityRepository,
        patterns: PatternRepository,
        stats: BackgroundStats,
    ) -> Self {
        Self::with_config(repo, patterns, stats, QkbflyConfig::default())
    }

    /// System with explicit configuration.
    pub fn with_config(
        repo: EntityRepository,
        patterns: PatternRepository,
        stats: BackgroundStats,
        config: QkbflyConfig,
    ) -> Self {
        let nlp = NlpPipeline::with_gazetteer(repo.gazetteer());
        Self {
            repo: Arc::new(repo),
            patterns: Arc::new(patterns),
            stats: Arc::new(stats),
            nlp: Arc::new(nlp),
            clausie: Arc::new(ClausIe::new()),
            counters: Arc::new(BuildCounters::default()),
            recorder: Recorder::disabled(),
            config,
        }
    }

    /// The entity repository.
    pub fn repo(&self) -> &EntityRepository {
        &self.repo
    }

    /// The pattern repository.
    pub fn patterns(&self) -> &PatternRepository {
        &self.patterns
    }

    /// The background statistics.
    pub fn stats(&self) -> &BackgroundStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &QkbflyConfig {
        &self.config
    }

    /// Mutable configuration (for harness sweeps).
    pub fn config_mut(&mut self) -> &mut QkbflyConfig {
        &mut self.config
    }

    /// A new handle with the given per-document worker count, sharing the
    /// repositories with `self`. The builder-style counterpart of
    /// `config_mut().parallelism = n` for shared (`&Qkbfly`) handles —
    /// serving shards tune their build fan-out without mutable access.
    pub fn with_parallelism(&self, workers: usize) -> Self {
        self.with_config_override(|c| c.parallelism = workers)
    }

    /// A new handle with arbitrary configuration overrides applied on top
    /// of `self`'s configuration. Repositories, statistics and build
    /// counters stay shared with the parent handle.
    pub fn with_config_override(&self, adjust: impl FnOnce(&mut QkbflyConfig)) -> Self {
        let mut out = self.clone();
        adjust(&mut out.config);
        out
    }

    /// A new handle recording build spans into `recorder`
    /// ([`Recorder::disabled`] by default, which keeps the instrumented
    /// paths at near-zero cost). Repositories and counters stay shared.
    pub fn with_recorder(&self, recorder: Recorder) -> Self {
        let mut out = self.clone();
        out.recorder = recorder;
        out
    }

    /// The flight recorder this handle traces into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Cumulative build counters shared across all clones of this handle.
    pub fn counters(&self) -> &BuildCounters {
        &self.counters
    }

    fn weight_model(&self) -> WeightModel {
        WeightModel {
            alphas: self.config.alphas,
            use_type_signatures: self.config.variant != Variant::PipelineArch,
        }
    }

    /// Builds an on-the-fly KB from the input documents (the paper's
    /// query-time path: documents were already retrieved for the query).
    ///
    /// A cold build is a stream into an empty KB: repeated documents are
    /// dropped (first occurrence wins), the per-document phase
    /// ([`Qkbfly::process_doc_stage1`]) fans out over
    /// [`QkbflyConfig::parallelism`] worker threads, and the fold that
    /// [`Qkbfly::extend_kb`] runs canonicalizes the artifacts into the KB
    /// **in document order**, so the result is byte-identical for any
    /// worker count.
    pub fn build_kb(&self, docs: &[String]) -> BuildResult<'_> {
        self.build_kb_with(&ComputeStage1, docs)
    }

    /// [`Qkbfly::build_kb`] with stage-1 artifacts drawn from `provider`
    /// (compute-or-lookup) instead of always computed.
    ///
    /// **Invariant:** for any provider that honors the [`Stage1Provider`]
    /// contract, the KB is byte-identical to [`Qkbfly::stream_into_kb`]
    /// of `docs` into [`OnTheFlyKb::new`] — and therefore to any series
    /// of `extend_kb` turns over the same first-occurrence-deduped
    /// sequence. The result additionally carries the assessment records
    /// and per-document diagnostics of the merged documents; their `doc`
    /// index is the position in the deduped sequence.
    pub fn build_kb_with(
        &self,
        provider: &(impl Stage1Provider + ?Sized),
        docs: &[String],
    ) -> BuildResult<'_> {
        let mut span = self.recorder.span("build_kb");
        span.field("docs", docs.len());
        let mut kb = OnTheFlyKb::new();
        let artifacts = self.provide_stage1(provider, self.fresh_texts(&kb, docs));
        let merged = self.merge_in_order(&mut kb, &artifacts);
        self.counters.record(1, merged.len() as u64);
        let mut result = BuildResult {
            kb,
            records: Vec::new(),
            links: Vec::new(),
            timings: StageTimings::default(),
            per_doc: Vec::with_capacity(merged.len()),
            patterns: &self.patterns,
        };
        for (doc, (out, diag)) in merged.into_iter().enumerate() {
            result.timings.add(&diag.timings);
            result.records.extend(out.extractions.into_iter().map(
                |(extraction, kept, slot_entities)| ExtractionRecord {
                    doc,
                    extraction,
                    kept,
                    slot_entities,
                },
            ));
            result.links.extend(out.links.into_iter().map(
                |(sentence, phrase, entity, confidence)| LinkRecord {
                    doc,
                    sentence,
                    phrase,
                    entity,
                    confidence,
                },
            ));
            result.per_doc.push(diag);
        }
        result
    }

    /// The **incremental canonicalizer**: streams new stage-1 artifacts
    /// into an existing KB, continuing the deterministic document-order
    /// fold — the one fold every KB is built by (a cold build folds into
    /// [`OnTheFlyKb::new`]).
    ///
    /// Artifacts whose document is already resident in `kb` (by text
    /// fingerprint) or repeated within the slice are **skipped
    /// idempotently**; fresh artifacts are merged in slice order with the
    /// next free provenance index. Because [`qkb_kb::OnTheFlyKb`] is
    /// append-only — entities and facts are only ever pushed, and
    /// [`qkb_kb::OnTheFlyKb::add_linked`] resolves a repository entity
    /// seen before to its existing id — extending never renumbers an
    /// existing entity id or rewrites an existing fact: the KB before the
    /// call is a strict prefix of the KB after.
    ///
    /// **Union equivalence:** streaming a document sequence through any
    /// series of `extend_kb` calls (any split, any per-turn parallelism
    /// used to *provide* the artifacts) produces a KB byte-identical to
    /// one cold [`Qkbfly::build_kb`] over the whole sequence, because
    /// both run the same fold over the same first-occurrence-deduped
    /// documents in the same order (property-tested in
    /// `tests/properties.rs`).
    ///
    /// `kb` must have been grown exclusively by this fold (starting from
    /// [`qkb_kb::OnTheFlyKb::new`]), so its document registry and
    /// provenance indices agree.
    pub fn extend_kb(&self, kb: &mut OnTheFlyKb, stage1: &[Arc<DocStage1>]) -> ExtendOutcome {
        let mut span = self.recorder.span("extend_kb");
        let mut outcome = ExtendOutcome::default();
        let mut in_call: qkb_util::FxHashSet<u64> = qkb_util::FxHashSet::default();
        let fresh: Vec<Arc<DocStage1>> = stage1
            .iter()
            .filter(|a| !kb.contains_doc(a.fingerprint) && in_call.insert(a.fingerprint))
            .cloned()
            .collect();
        outcome.skipped = stage1.len() - fresh.len();
        for (_, diag) in self.merge_in_order(kb, &fresh) {
            outcome.timings.add(&diag.timings);
            outcome.resolve.add(&diag.resolve);
            outcome.merged += 1;
        }
        self.counters.record(1, outcome.merged as u64);
        span.field("merged", outcome.merged);
        span.field("deduped", outcome.skipped);
        outcome
    }

    /// Provides and streams `texts` into an existing KB in one call —
    /// the composition of [`Qkbfly::provide_stage1`] and
    /// [`Qkbfly::extend_kb`] session layers build on. Documents already
    /// resident in `kb` are skipped **without being provided** (no
    /// stage-1 compute, no cache traffic), in-call duplicates are
    /// provided once, and the rest extend the KB in slice order; skipped
    /// documents of either kind count into
    /// [`ExtendOutcome::skipped`].
    pub fn stream_into_kb(
        &self,
        provider: &(impl Stage1Provider + ?Sized),
        kb: &mut OnTheFlyKb,
        texts: &[String],
    ) -> ExtendOutcome {
        let mut span = self.recorder.span("stream_into_kb");
        span.field("docs", texts.len());
        let fresh = self.fresh_texts(kb, texts);
        let resident = texts.len() - fresh.len();
        let artifacts = self.provide_stage1(provider, fresh);
        let mut outcome = self.extend_kb(kb, &artifacts);
        outcome.skipped += resident;
        span.field("resident_skipped", resident);
        outcome
    }

    /// The documents of `texts` a fold into `kb` would merge: first
    /// occurrences (by text fingerprint) not already resident in `kb`,
    /// in slice order.
    fn fresh_texts<'t>(&self, kb: &OnTheFlyKb, texts: &'t [String]) -> Vec<&'t String> {
        let mut seen: qkb_util::FxHashSet<u64> = qkb_util::FxHashSet::default();
        texts
            .iter()
            .filter(|text| {
                let fp = qkb_util::fingerprint64(text.as_bytes());
                !kb.contains_doc(fp) && seen.insert(fp)
            })
            .collect()
    }

    /// Provides stage-1 artifacts for `texts` in order through `provider`
    /// (compute-or-lookup), de-duplicated by text: each distinct document
    /// is provided exactly once — fanned out over
    /// [`QkbflyConfig::parallelism`] workers when it pays — and
    /// duplicates share the Arc. The provide half of every build; the
    /// merge half is [`Qkbfly::extend_kb`].
    pub fn provide_stage1<'t>(
        &self,
        provider: &(impl Stage1Provider + ?Sized),
        texts: impl IntoIterator<Item = &'t String>,
    ) -> Vec<Arc<DocStage1>> {
        let workers = qkb_util::effective_parallelism(self.config.parallelism);
        let mut unique: Vec<&String> = Vec::new();
        let mut slot_of: FxHashMap<&str, usize> = FxHashMap::default();
        let slots: Vec<usize> = texts
            .into_iter()
            .map(|text| {
                *slot_of.entry(text.as_str()).or_insert_with(|| {
                    unique.push(text);
                    unique.len() - 1
                })
            })
            .collect();
        let provided: Vec<Arc<DocStage1>> = if workers <= 1 || unique.len() <= 1 {
            unique
                .iter()
                .map(|text| provider.provide(self, text))
                .collect()
        } else {
            // Carry the caller's span across the fan-out so per-document
            // stage-1 spans nest under the build span on worker threads.
            let parent = self.recorder.current();
            qkb_util::par_map_ordered(&unique, workers, |_, text| {
                let _cx = self.recorder.context(parent);
                provider.provide(self, text)
            })
        };
        slots.into_iter().map(|s| provided[s].clone()).collect()
    }

    /// The canonicalization parameters of this handle.
    fn canon_config(&self) -> CanonConfig {
        CanonConfig {
            tau: self.config.tau,
            emit_nary: self.config.emit_nary,
        }
    }

    /// The fold: merges `artifacts` into `kb` one at a time in slice
    /// order, each at the KB's next provenance index. Does **not**
    /// de-duplicate: callers pass exactly the artifacts to merge.
    fn merge_in_order(
        &self,
        kb: &mut OnTheFlyKb,
        artifacts: &[Arc<DocStage1>],
    ) -> Vec<(DocCanonOutput, DocResult)> {
        artifacts
            .iter()
            .map(|artifact| {
                let merged = self.merge_doc_ref(kb, artifact);
                kb.record_doc(artifact.fingerprint);
                merged
            })
            .collect()
    }

    /// The pure per-document phase: NLP preprocessing, clause detection,
    /// semantic-graph construction and joint NED+CR inference. Reads only
    /// the shared repositories — safe to run concurrently for the
    /// documents of a batch.
    pub fn process_doc_stage1(&self, text: &str) -> DocStage1 {
        self.counters.record_stage1();
        let span = self.recorder.span("stage1");
        let mut diag = DocResult::default();

        // --- pre-processing (the CoreNLP + MaltParser + ClausIE stack) ---
        let t0 = Instant::now();
        let pre_span = self.recorder.span("preprocess");
        let doc = self.nlp.annotate(text);
        let clauses: Vec<Vec<Clause>> = doc
            .sentences
            .iter()
            .map(|s| self.clausie.detect(s))
            .collect();
        drop(pre_span);
        diag.timings.preprocess = t0.elapsed();

        // --- stage 1: semantic graph ---
        let t1 = Instant::now();
        let graph_span = self.recorder.span("graph");
        let mut built = build_graph(
            &doc,
            &clauses,
            &self.repo,
            &self.stats,
            BuildConfig {
                use_pronouns: self.config.variant != Variant::NounOnly,
            },
        );
        drop(graph_span);
        diag.timings.graph = t1.elapsed();
        diag.graph_size = (built.graph.n_nodes(), built.graph.n_edges());

        // --- stage 2: joint NED + CR ---
        let t2 = Instant::now();
        let mut resolve_span = self.recorder.span("resolve");
        let model = self.weight_model();
        let mentions = built.mentions.clone();
        let outcome = match (self.config.variant, self.config.solver) {
            (Variant::PipelineArch, _) => {
                let mut res = resolve_independent(&built.graph, &mentions, &model, &self.stats);
                resolve_pronouns_by_recency(&built.graph, &mentions, &mut res, &self.repo);
                apply_resolutions(&mut built.graph, &mentions, &res);
                crate::densify::DensifyOutcome {
                    resolutions: res,
                    objective: 0.0,
                    removed_edges: 0,
                }
            }
            (_, SolverKind::Ilp) => {
                let (out, components) = if self.config.resolve_decomposition {
                    resolve_ilp_decomposed(
                        &built.graph,
                        &mentions,
                        &model,
                        &self.stats,
                        &self.repo,
                        IlpSolveOptions {
                            prune: true,
                            warm_start: true,
                        },
                        &self.recorder,
                    )
                } else {
                    // Monolithic cold baseline: one big program, no
                    // pruning, no warm start.
                    let out = resolve_ilp(&built.graph, &mentions, &model, &self.stats, &self.repo);
                    (out, 1)
                };
                diag.resolve = ResolveCounters {
                    components: components as u64,
                    ilp_variables: out.n_variables as u64,
                    bnb_nodes: out.nodes,
                    pruned_candidates: out.pruned_candidates as u64,
                };
                apply_resolutions(&mut built.graph, &mentions, &out.resolutions);
                crate::densify::DensifyOutcome {
                    resolutions: out.resolutions,
                    objective: out.objective,
                    removed_edges: 0,
                }
            }
            (_, SolverKind::Greedy) => {
                if self.config.resolve_decomposition {
                    let (out, components) = densify_decomposed(
                        &mut built.graph,
                        &mentions,
                        &model,
                        &self.stats,
                        &self.repo,
                        &self.recorder,
                    );
                    diag.resolve.components = components as u64;
                    out
                } else {
                    diag.resolve.components = 1;
                    densify(&mut built.graph, &mentions, &model, &self.stats, &self.repo)
                }
            }
        };
        // ResolveCounters folded in as span fields.
        resolve_span.field("components", diag.resolve.components);
        resolve_span.field("ilp_variables", diag.resolve.ilp_variables);
        resolve_span.field("bnb_nodes", diag.resolve.bnb_nodes);
        resolve_span.field("pruned_candidates", diag.resolve.pruned_candidates);
        drop(resolve_span);
        diag.timings.resolve = t2.elapsed();
        self.counters.record_resolve(&diag.resolve);
        drop(span);

        DocStage1 {
            fingerprint: qkb_util::fingerprint64(text.as_bytes()),
            built,
            outcome,
            diag,
        }
    }

    /// One step of the fold: canonicalizes one document's stage-1 output
    /// into `kb` at the KB's next provenance index. The artifact is read,
    /// not consumed, so one cached `Arc<DocStage1>` can be merged into
    /// any number of KBs.
    fn merge_doc_ref(
        &self,
        kb: &mut OnTheFlyKb,
        stage1: &DocStage1,
    ) -> (DocCanonOutput, DocResult) {
        let doc_idx = kb.n_docs() as u32;
        let mut diag = stage1.diag.clone();
        let t3 = Instant::now();
        let mut span = self.recorder.span("canonicalize");
        span.field("doc", doc_idx);
        let out = canonicalize_into(
            kb,
            &stage1.built,
            &stage1.outcome,
            &self.repo,
            &self.patterns,
            self.canon_config(),
            doc_idx,
        );
        drop(span);
        diag.timings.canonicalize = t3.elapsed();
        (out, diag)
    }
}

// The batch fan-out borrows `&Qkbfly` from worker threads; keep the whole
// system (and the shared-read structures it hands out) `Send + Sync` by
// construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Qkbfly>();
    assert_send_sync::<DocStage1>();
};

/// Prunes the graph's `means`/`sameAs` edges to reflect externally computed
/// resolutions (ILP and pipeline variants), so canonicalization sees the
/// same clustered structure the greedy path produces.
fn apply_resolutions(
    graph: &mut SemanticGraph,
    mentions: &[NodeId],
    resolutions: &FxHashMap<NodeId, MentionResolution>,
) {
    // Means edges: keep only the chosen entity per noun phrase.
    for &n in mentions {
        if !matches!(graph.node(n), NodeKind::NounPhrase { .. }) {
            continue;
        }
        let chosen = resolutions.get(&n).and_then(|r| r.entity);
        let edges = graph.means_of(n);
        for (edge, e) in edges {
            if Some(e) != chosen {
                graph.kill_edge(edge);
            }
        }
    }
    // Pronoun sameAs: keep only the chosen antecedent.
    for &n in mentions {
        if !matches!(graph.node(n), NodeKind::Pronoun { .. }) {
            continue;
        }
        let antecedent = resolutions.get(&n).and_then(|r| r.antecedent);
        for (edge, other) in graph.same_as_of(n) {
            if Some(other) != antecedent {
                graph.kill_edge(edge);
            }
        }
    }
    // NP–NP sameAs: split clusters whose members resolved differently.
    for &n in mentions {
        if !matches!(graph.node(n), NodeKind::NounPhrase { .. }) {
            continue;
        }
        let ea = resolutions.get(&n).and_then(|r| r.entity);
        for (edge, other) in graph.same_as_of(n) {
            if !matches!(graph.node(other), NodeKind::NounPhrase { .. }) {
                continue;
            }
            let eb = resolutions.get(&other).and_then(|r| r.entity);
            if let (Some(a), Some(b)) = (ea, eb) {
                if a != b {
                    graph.kill_edge(edge);
                }
            }
        }
    }
    // Cosmetic faithfulness to Algorithm 1: entity nodes left without any
    // live means edge are implicitly removed (they are simply unreachable).
    let _ = EdgeKind::Means;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkb_kb::{Gender, StatsBuilder};

    fn system(variant: Variant, solver: SolverKind) -> Qkbfly {
        let mut repo = EntityRepository::new();
        let actor = repo.type_system().get("ACTOR").expect("t");
        let org = repo.type_system().get("FOUNDATION").expect("t");
        let pitt = repo.add_entity("Brad Pitt", &["Pitt"], Gender::Male, vec![actor]);
        let one = repo.add_entity(
            "ONE Campaign",
            &["the ONE Campaign"],
            Gender::Neutral,
            vec![org],
        );
        let dpf = repo.add_entity("Daniel Pearl Foundation", &[], Gender::Neutral, vec![org]);
        let mut b = StatsBuilder::new();
        b.add_anchor("Brad Pitt", pitt);
        b.add_anchor("Pitt", pitt);
        b.add_anchor("ONE Campaign", one);
        b.add_anchor("Daniel Pearl Foundation", dpf);
        b.add_entity_article(pitt, ["actor", "film", "support", "donate"]);
        b.add_entity_article(one, ["campaign", "poverty", "support"]);
        b.add_entity_article(dpf, ["foundation", "journalist", "donate"]);
        let stats = b.finalize();
        let patterns = PatternRepository::standard();
        Qkbfly::with_config(
            repo,
            patterns,
            stats,
            QkbflyConfig {
                variant,
                solver,
                ..Default::default()
            },
        )
    }

    const FIG2: &str = "Brad Pitt is an actor and he supports the ONE Campaign. \
         In 2002, Pitt donated $100,000 to the Daniel Pearl Foundation.";

    #[test]
    fn joint_greedy_builds_figure2_kb() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let result = sys.build_kb(&[FIG2.to_string()]);
        assert!(result.kb.n_facts() >= 2, "facts: {}", result.kb.n_facts());
        let rendered: Vec<String> = result.kb.iter_facts().map(|f| result.render(f)).collect();
        // The pronoun-mediated support fact must resolve to Brad Pitt.
        assert!(
            rendered
                .iter()
                .any(|r| r.contains("Brad Pitt") && r.contains("support")),
            "rendered: {rendered:?}"
        );
        // The SVOA clause yields a quadruple.
        assert!(
            result.kb.iter_facts().any(|f| f.arity() == 4),
            "rendered: {rendered:?}"
        );
        assert!(result.timings.total() > Duration::ZERO);
    }

    #[test]
    fn noun_only_produces_no_pronoun_facts() {
        let sys = system(Variant::NounOnly, SolverKind::Greedy);
        let result = sys.build_kb(&[FIG2.to_string()]);
        // fewer extractions than the joint variant (the pronoun clause is
        // dropped), but the donation fact remains
        let rendered: Vec<String> = result.kb.iter_facts().map(|f| result.render(f)).collect();
        assert!(
            rendered.iter().any(|r| r.contains("Daniel Pearl")),
            "rendered: {rendered:?}"
        );
        let joint_sys = system(Variant::Joint, SolverKind::Greedy);
        let joint = joint_sys.build_kb(&[FIG2.to_string()]);
        assert!(result.records.len() <= joint.records.len());
    }

    #[test]
    fn pipeline_variant_runs_and_links() {
        let sys = system(Variant::PipelineArch, SolverKind::Greedy);
        let result = sys.build_kb(&[FIG2.to_string()]);
        assert!(!result.links.is_empty());
        assert!(result.kb.n_facts() >= 1);
    }

    #[test]
    fn ilp_variant_matches_joint_on_simple_input() {
        let greedy_sys = system(Variant::Joint, SolverKind::Greedy);
        let greedy = greedy_sys.build_kb(&[FIG2.to_string()]);
        let ilp_sys = system(Variant::Joint, SolverKind::Ilp);
        let ilp = ilp_sys.build_kb(&[FIG2.to_string()]);
        assert!(ilp.per_doc[0].resolve.ilp_variables > 0);
        assert!(ilp.per_doc[0].resolve.components >= 1);
        assert!(ilp_sys.counters().resolve().ilp_variables > 0);
        // Same subject resolution for the supports fact.
        let has = |r: &BuildResult<'_>| {
            r.kb.iter_facts()
                .map(|f| r.render(f))
                .any(|s| s.contains("Brad Pitt") && s.contains("support"))
        };
        assert_eq!(has(&greedy), has(&ilp));
    }

    #[test]
    fn timings_are_populated_per_stage() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let result = sys.build_kb(&[FIG2.to_string()]);
        let t = &result.per_doc[0].timings;
        assert!(t.preprocess > Duration::ZERO);
        assert!(t.total() >= t.preprocess);
        assert!(result.per_doc[0].graph_size.0 > 0);
    }

    #[test]
    fn extend_kb_streams_to_the_cold_union_build() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let docs = vec![
            FIG2.to_string(),
            "Brad Pitt supported the ONE Campaign.".to_string(),
            "Pitt donated $100,000 to the Daniel Pearl Foundation.".to_string(),
        ];
        let stage1: Vec<Arc<DocStage1>> = docs
            .iter()
            .map(|t| Arc::new(sys.process_doc_stage1(t)))
            .collect();
        // Stream in two turns whose sets overlap on doc 1.
        let mut kb = OnTheFlyKb::new();
        let first = sys.extend_kb(&mut kb, &stage1[..2]);
        assert_eq!((first.merged, first.skipped), (2, 0));
        let names_before: Vec<String> = kb.iter_entities().map(|e| e.name.clone()).collect();
        let facts_before = kb.n_facts();
        let second = sys.extend_kb(&mut kb, &[stage1[1].clone(), stage1[2].clone()]);
        assert_eq!((second.merged, second.skipped), (1, 1));
        // Id stability: the pre-extend KB is a strict prefix of the
        // extended one.
        assert_eq!(
            names_before.as_slice(),
            &kb.iter_entities()
                .map(|e| e.name.clone())
                .collect::<Vec<_>>()[..names_before.len()]
        );
        assert!(kb.n_facts() >= facts_before);
        // Union equivalence: byte-identical to one cold build of the
        // de-duplicated sequence.
        let cold = sys.build_kb(&docs);
        assert_eq!(
            kb.to_json(sys.patterns()).to_string(),
            cold.kb.to_json(sys.patterns()).to_string()
        );
        assert_eq!(kb.n_docs(), 3);
        // Replaying any turn is a no-op.
        let replay = sys.extend_kb(&mut kb, &stage1);
        assert_eq!((replay.merged, replay.skipped), (0, 3));
        assert_eq!(
            kb.to_json(sys.patterns()).to_string(),
            cold.kb.to_json(sys.patterns()).to_string()
        );
    }

    #[test]
    fn provide_stage1_is_order_preserving_and_deduplicated() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let texts = vec![
            FIG2.to_string(),
            "Brad Pitt supported the ONE Campaign.".to_string(),
            FIG2.to_string(),
        ];
        for workers in [1usize, 4] {
            let handle = sys.with_parallelism(workers);
            let before = handle.counters().stage1_computed();
            let provided = handle.provide_stage1(&ComputeStage1, &texts);
            assert_eq!(provided.len(), 3);
            assert_eq!(
                handle.counters().stage1_computed() - before,
                2,
                "duplicates must share one compute (workers={workers})"
            );
            assert!(Arc::ptr_eq(&provided[0], &provided[2]));
            assert_eq!(
                provided[0].fingerprint,
                qkb_util::fingerprint64(FIG2.as_bytes())
            );
            assert_ne!(provided[0].fingerprint, provided[1].fingerprint);
        }
    }

    #[test]
    fn duplicate_documents_in_a_batch_compute_stage1_once() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let a = FIG2.to_string();
        let b = "Brad Pitt supported the ONE Campaign.".to_string();
        let kb_json = |r: &BuildResult<'_>| r.kb.to_json(sys.patterns()).to_string();
        for workers in [1usize, 4] {
            let handle = sys.with_parallelism(workers);
            let before = handle.counters().stage1_computed();
            let repeated = handle.build_kb(&[a.clone(), a.clone(), b.clone()]);
            assert_eq!(
                handle.counters().stage1_computed() - before,
                2,
                "one stage-1 computation per distinct text (workers={workers})"
            );
            // A repeat is merged once: the build equals the deduped one.
            let deduped = handle.build_kb(&[a.clone(), b.clone()]);
            assert_eq!(kb_json(&repeated), kb_json(&deduped), "workers={workers}");
            assert_eq!(repeated.per_doc.len(), 2);
            assert_eq!(repeated.records.len(), deduped.records.len());
            assert_eq!(repeated.kb.n_docs(), 2);
        }
    }

    #[test]
    fn approx_bytes_tracks_document_size() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let small = sys.process_doc_stage1("Brad Pitt is an actor.");
        let big_text = format!("{FIG2} {FIG2} {FIG2} {FIG2}");
        let big = sys.process_doc_stage1(&big_text);
        assert!(small.approx_bytes() > 0);
        assert!(
            big.approx_bytes() > small.approx_bytes(),
            "bigger documents must weigh more: {} vs {}",
            big.approx_bytes(),
            small.approx_bytes()
        );
    }

    #[test]
    fn counters_shared_across_clones() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        assert_eq!(sys.counters().builds(), 0);
        let _ = sys.build_kb(&[FIG2.to_string()]);
        let clone = sys.with_parallelism(2);
        let stage1 = clone.provide_stage1(&ComputeStage1, [&FIG2.to_string()]);
        let _ = clone.extend_kb(&mut OnTheFlyKb::new(), &stage1);
        let _ = clone.extend_kb(&mut OnTheFlyKb::new(), &stage1);
        // 1 direct build + 2 extends, all visible through either handle.
        assert_eq!(sys.counters().builds(), 3);
        assert_eq!(clone.counters().builds(), 3);
        assert_eq!(sys.counters().docs(), 3);
    }

    #[test]
    fn multiple_documents_share_linked_entities() {
        let sys = system(Variant::Joint, SolverKind::Greedy);
        let result = sys.build_kb(&[
            "Brad Pitt supported the ONE Campaign.".to_string(),
            "Pitt donated $100,000 to the Daniel Pearl Foundation.".to_string(),
        ]);
        let pitt_entities: Vec<_> = result
            .kb
            .iter_entities()
            .filter(|e| e.name.contains("Pitt"))
            .collect();
        assert_eq!(
            pitt_entities.len(),
            1,
            "cross-document linking must reuse the repository entity"
        );
    }
}
