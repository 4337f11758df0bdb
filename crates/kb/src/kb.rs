//! The on-the-fly knowledge base (K).
//!
//! Holds the canonicalized output of a QKBfly run: entities that are either
//! *linked* to the background repository or *emerging* (out-of-repository
//! clusters of co-referring names, flagged with `*` in the paper's tables),
//! plus the fact store with the subject/predicate/object and `Type:` search
//! of the §6 demo.
//!
//! # Layered storage (the prefix forest substrate)
//!
//! An [`OnTheFlyKb`] is a chain of immutable, [`Arc`]-shared [`KbPrefix`]
//! layers plus one mutable **tip** segment. Every mutator writes the tip
//! only; reads resolve through the chain newest-to-oldest. Because the
//! builders are append-only and prefix-stable (extending never renumbers
//! an entity id or rewrites a fact — the PR 4/5 property-gated
//! invariants), a frozen chain is a sound shared prefix:
//!
//! * [`OnTheFlyKb::freeze`] seals the tip into a new shared layer;
//! * [`OnTheFlyKb::fork`] starts an O(1) independent KB on top of the
//!   same frozen chain — layers are shared by `Arc`, never copied;
//! * the copy-on-write `touched` overlay keeps even
//!   [`OnTheFlyKb::add_mention`] on a frozen-layer entity tip-local, so
//!   sibling forks never observe each other's writes.
//!
//! Byte accounting splits accordingly: [`OnTheFlyKb::approx_bytes_owned`]
//! is the tip-only delta a fork pays for itself,
//! [`OnTheFlyKb::approx_bytes_total`] adds the (shared) frozen layers.

use crate::entity::EntityId;
use crate::fact::{Fact, FactArg, RelationRef};
use crate::index::KbIndex;
use crate::pattern::PatternRepository;
use crate::repo::EntityRepository;
use qkb_util::define_id;
use qkb_util::text::normalize;
use qkb_util::{FxHashMap, FxHashSet};
use std::sync::Arc;

define_id!(KbEntityId, "identifies an entity within one `OnTheFlyKb`");

/// Linked-vs-emerging status of a KB entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KbEntityKind {
    /// Linked to the entity repository.
    Linked(EntityId),
    /// Emerging: a new entity identified by its mention cluster (§5).
    Emerging,
}

/// One entity of the on-the-fly KB.
#[derive(Clone, Debug)]
pub struct KbEntity {
    /// Stable id within this KB.
    pub id: KbEntityId,
    /// Linked or emerging.
    pub kind: KbEntityKind,
    /// Display name (repository canonical name, or the longest mention of
    /// an emerging cluster).
    pub name: String,
    /// Surface mentions collected for this entity.
    pub mentions: Vec<String>,
}

impl KbEntity {
    /// Paper-style rendering: emerging entities carry an asterisk.
    pub fn display(&self) -> String {
        match self.kind {
            KbEntityKind::Linked(_) => self.name.clone(),
            KbEntityKind::Emerging => format!("{}*", self.name),
        }
    }
}

/// One contiguous segment of a layered KB: the entities, facts, document
/// registrations and posting-index deltas appended while it was the
/// mutable tip. Global ids are `base + offset`, so a segment needs no
/// renumbering when it is frozen or when a fork appends after it.
#[derive(Debug, Default)]
struct Segment {
    /// Global id of this segment's first own entity.
    entity_base: usize,
    /// Entities appended in this segment (global ids `entity_base..`).
    entities: Vec<KbEntity>,
    /// Copy-on-write overrides of entities owned by *earlier* segments,
    /// keyed by global id: `add_mention` on an inherited entity clones
    /// the effective record here instead of mutating the shared layer.
    touched: FxHashMap<usize, KbEntity>,
    /// Global id of this segment's first own fact.
    fact_base: usize,
    /// Facts appended in this segment (global ids `fact_base..`).
    facts: Vec<Fact>,
    /// Provenance index of this segment's first own document.
    doc_base: usize,
    /// Repository-id → KB-id links established in this segment.
    by_repo_id: FxHashMap<EntityId, KbEntityId>,
    /// Fingerprints of documents merged in this segment, in merge order
    /// (duplicates appear once per merge — their index is their
    /// provenance `doc` slot).
    merged_docs: Vec<u64>,
    /// Residency set of this segment's merged documents.
    resident_docs: FxHashSet<u64>,
    /// Posting-index delta covering exactly this segment's appends.
    index: KbIndex,
}

impl Segment {
    /// A fresh, empty segment continuing after `bases`.
    fn continuing(entity_base: usize, fact_base: usize, doc_base: usize) -> Self {
        Segment {
            entity_base,
            fact_base,
            doc_base,
            ..Segment::default()
        }
    }

    /// True when nothing was appended — freezing it would create an
    /// empty layer.
    fn is_empty(&self) -> bool {
        self.entities.is_empty()
            && self.facts.is_empty()
            && self.merged_docs.is_empty()
            && self.touched.is_empty()
    }

    /// Approximate heap footprint of this segment's own content —
    /// dominated by entity mention strings and fact argument literals;
    /// map overhead is estimated per entry.
    fn content_bytes(&self) -> u64 {
        let entity_heap = |e: &KbEntity| {
            std::mem::size_of::<KbEntity>()
                + e.name.capacity()
                + e.mentions.capacity() * std::mem::size_of::<String>()
                + e.mentions.iter().map(|m| m.capacity()).sum::<usize>()
        };
        let entity_bytes: usize = self.entities.iter().map(entity_heap).sum::<usize>()
            + self
                .touched
                .values()
                .map(|e| entity_heap(e) + MAP_ENTRY)
                .sum::<usize>();
        let arg_bytes = |a: &FactArg| match a {
            FactArg::Entity(_) => 0,
            FactArg::Literal(s) | FactArg::Time(s) => s.capacity(),
        };
        let fact_bytes: usize = self
            .facts
            .iter()
            .map(|f| {
                std::mem::size_of::<Fact>()
                    + arg_bytes(&f.subject)
                    + f.args.capacity() * std::mem::size_of::<FactArg>()
                    + f.args.iter().map(arg_bytes).sum::<usize>()
                    + match &f.relation {
                        RelationRef::Novel(p) => p.capacity(),
                        RelationRef::Canonical(_) => 0,
                    }
            })
            .sum();
        let map_bytes = self.by_repo_id.len()
            * (std::mem::size_of::<EntityId>() + std::mem::size_of::<KbEntityId>() + MAP_ENTRY)
            + self.resident_docs.len() * (std::mem::size_of::<u64>() + MAP_ENTRY)
            + self.merged_docs.capacity() * std::mem::size_of::<u64>();
        // The posting-index delta is resident heap too: a session KB's
        // eviction weight must cover it or byte budgets under-count.
        (entity_bytes + fact_bytes + map_bytes + self.index.approx_bytes()) as u64
    }
}

/// Hash-table slot overhead estimate per map entry.
const MAP_ENTRY: usize = 16;

/// One immutable, `Arc`-shared layer of a layered [`OnTheFlyKb`]: a
/// sealed segment plus the fingerprint of the full document sequence up
/// to and including it (the prefix-forest registry key) and its frozen
/// heap footprint (so shared-byte accounting never re-walks a layer).
#[derive(Debug)]
pub struct KbPrefix {
    seg: Segment,
    chain_key: u64,
    bytes: u64,
}

impl KbPrefix {
    /// Fingerprint of the merged-document sequence of the whole chain up
    /// to and including this layer — the prefix-forest registry key.
    pub fn chain_key(&self) -> u64 {
        self.chain_key
    }

    /// Frozen heap footprint of this layer's content.
    pub fn approx_bytes(&self) -> u64 {
        self.bytes
    }

    /// Documents merged in this layer (not the whole chain).
    pub fn n_docs(&self) -> usize {
        self.seg.merged_docs.len()
    }
}

/// Deterministic fingerprint of a document-fingerprint sequence — the
/// one key function shared by [`OnTheFlyKb::freeze`] (which stamps it on
/// the sealed layer) and forest lookups (which compute it from a turn's
/// deduplicated document fingerprints), so the two sides can never
/// drift. Order-sensitive: the provenance `doc` indices depend on merge
/// order, so only an identical *sequence* may share a prefix.
pub fn doc_sequence_key(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    let mut buf: Vec<u8> = Vec::new();
    for fp in fingerprints {
        buf.extend_from_slice(&fp.to_le_bytes());
    }
    qkb_util::fingerprint64(&buf)
}

/// The on-the-fly KB: frozen `Arc`-shared prefix layers plus the
/// mutable tip segment every mutator writes.
#[derive(Debug, Default)]
pub struct OnTheFlyKb {
    layers: Vec<Arc<KbPrefix>>,
    tip: Segment,
}

impl OnTheFlyKb {
    /// An empty KB.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh KB whose reads resolve through `layers` — the O(1) fork
    /// entry point the prefix forest uses (layers are shared, the new
    /// tip starts empty at the chain's global bases).
    pub fn from_layers(layers: Vec<Arc<KbPrefix>>) -> Self {
        let tip = match layers.last() {
            Some(last) => Segment::continuing(
                last.seg.entity_base + last.seg.entities.len(),
                last.seg.fact_base + last.seg.facts.len(),
                last.seg.doc_base + last.seg.merged_docs.len(),
            ),
            None => Segment::default(),
        };
        OnTheFlyKb { layers, tip }
    }

    /// Seals the tip into a new immutable [`KbPrefix`] layer and starts
    /// a fresh empty tip after it. Returns the new layer (`None` when
    /// the tip had nothing to seal). O(tip): the already-frozen layers
    /// are untouched.
    pub fn freeze(&mut self) -> Option<Arc<KbPrefix>> {
        if self.tip.is_empty() {
            return None;
        }
        let chain_key = doc_sequence_key(self.merged_docs());
        let bytes = self.tip.content_bytes();
        let next = Segment::continuing(self.n_entities(), self.n_facts(), self.n_docs());
        let seg = std::mem::replace(&mut self.tip, next);
        let layer = Arc::new(KbPrefix {
            seg,
            chain_key,
            bytes,
        });
        self.layers.push(layer.clone());
        Some(layer)
    }

    /// An independent KB sharing this KB's frozen chain — O(1): only the
    /// `Arc`s are cloned. The (unfrozen) tip is **not** carried over;
    /// freeze first to share everything.
    pub fn fork(&self) -> Self {
        Self::from_layers(self.layers.clone())
    }

    /// The frozen layers of this KB, oldest first (empty for a KB that
    /// was never frozen).
    pub fn frozen_layers(&self) -> &[Arc<KbPrefix>] {
        &self.layers
    }

    /// Fingerprint of this KB's full merged-document sequence (the key
    /// [`OnTheFlyKb::freeze`] would stamp on the next layer).
    pub fn doc_sequence_fingerprint(&self) -> u64 {
        doc_sequence_key(self.merged_docs())
    }

    /// Adds (or finds) the KB entity linked to repository entity `repo_id`.
    pub fn add_linked(&mut self, repo_id: EntityId, name: &str) -> KbEntityId {
        if let Some(id) = self.lookup_repo_id(repo_id) {
            return id;
        }
        let id = KbEntityId::new(self.n_entities());
        self.tip.entities.push(KbEntity {
            id,
            kind: KbEntityKind::Linked(repo_id),
            name: name.to_string(),
            mentions: Vec::new(),
        });
        self.tip.by_repo_id.insert(repo_id, id);
        self.tip.index.index_entity_surface(id, name);
        id
    }

    fn lookup_repo_id(&self, repo_id: EntityId) -> Option<KbEntityId> {
        if let Some(&id) = self.tip.by_repo_id.get(&repo_id) {
            return Some(id);
        }
        self.layers
            .iter()
            .rev()
            .find_map(|l| l.seg.by_repo_id.get(&repo_id).copied())
    }

    /// Adds an emerging entity from its mention cluster. The longest
    /// mention becomes the display name.
    pub fn add_emerging(&mut self, mentions: &[String]) -> KbEntityId {
        let id = KbEntityId::new(self.n_entities());
        let name = mentions
            .iter()
            .max_by_key(|m| m.len())
            .cloned()
            .unwrap_or_else(|| "unknown".to_string());
        self.tip.index.index_entity_surface(id, &name);
        for m in mentions {
            self.tip.index.index_entity_surface(id, m);
        }
        self.tip.entities.push(KbEntity {
            id,
            kind: KbEntityKind::Emerging,
            name,
            mentions: mentions.to_vec(),
        });
        id
    }

    /// Records a surface mention for an entity. On a tip-owned entity
    /// this appends in place; on an entity owned by a frozen layer the
    /// effective record is first cloned into the tip's copy-on-write
    /// overlay — the shared layer is never written, so sibling forks
    /// are unaffected.
    pub fn add_mention(&mut self, id: KbEntityId, mention: &str) {
        let i = id.index();
        if i >= self.tip.entity_base {
            let e = &mut self.tip.entities[i - self.tip.entity_base];
            if e.mentions.iter().any(|m| m == mention) {
                return;
            }
            e.mentions.push(mention.to_string());
        } else {
            if !self.tip.touched.contains_key(&i) {
                let snapshot = self.entity(id).clone();
                self.tip.touched.insert(i, snapshot);
            }
            let e = self.tip.touched.get_mut(&i).expect("just inserted");
            if e.mentions.iter().any(|m| m == mention) {
                return;
            }
            e.mentions.push(mention.to_string());
        }
        self.tip.index.index_entity_surface(id, mention);
    }

    /// Adds a fact.
    pub fn push_fact(&mut self, fact: Fact) {
        let fact_id = self.n_facts() as u32;
        self.tip.index.index_fact(fact_id, &fact);
        self.tip.facts.push(fact);
    }

    /// Records one merged document by the fingerprint of its text. Called
    /// once per merge, in document order, by the one fold every builder
    /// runs (`Qkbfly::extend_kb`; `build_kb` folds into an empty KB) — the
    /// number of recorded documents is the next merge's provenance `doc`
    /// index.
    pub fn record_doc(&mut self, fingerprint: u64) {
        self.tip.merged_docs.push(fingerprint);
        self.tip.resident_docs.insert(fingerprint);
    }

    /// True when a document with this text fingerprint has already been
    /// merged — the streaming dedup probe (`Qkbfly::extend_kb` skips
    /// resident documents idempotently).
    pub fn contains_doc(&self, fingerprint: u64) -> bool {
        self.tip.resident_docs.contains(&fingerprint)
            || self
                .layers
                .iter()
                .any(|l| l.seg.resident_docs.contains(&fingerprint))
    }

    /// Documents merged so far (counting repeated merges of the same
    /// text, which keep their own provenance index).
    pub fn n_docs(&self) -> usize {
        self.tip.doc_base + self.tip.merged_docs.len()
    }

    /// Fingerprints of merged documents, in merge order, concatenated
    /// across the layer chain and the tip.
    pub fn merged_docs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.n_docs());
        for l in &self.layers {
            out.extend_from_slice(&l.seg.merged_docs);
        }
        out.extend_from_slice(&self.tip.merged_docs);
        out
    }

    /// Approximate heap footprint of the whole KB — frozen layers plus
    /// the tip. For byte budgets over *forked* KBs use
    /// [`OnTheFlyKb::approx_bytes_owned`]: this figure counts every
    /// shared layer in full, so summing it across forks double-counts.
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes_total()
    }

    /// Heap footprint this KB exclusively owns: the mutable tip. This is
    /// the per-fork delta a byte-budgeted session store should charge —
    /// frozen layers are shared across forks and accounted once by the
    /// prefix forest.
    pub fn approx_bytes_owned(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
            + self.layers.capacity() as u64 * std::mem::size_of::<Arc<KbPrefix>>() as u64
            + self.tip.content_bytes()
    }

    /// Heap footprint of the whole chain: owned tip plus every frozen
    /// layer (each layer's footprint was computed once at freeze time).
    pub fn approx_bytes_total(&self) -> u64 {
        self.approx_bytes_owned() + self.layers.iter().map(|l| l.bytes).sum::<u64>()
    }

    /// Number of entities (across all layers and the tip).
    pub fn n_entities(&self) -> usize {
        self.tip.entity_base + self.tip.entities.len()
    }

    /// The entity record, resolved through the chain newest-to-oldest:
    /// the tip's copy-on-write overlay shadows frozen layers, and a
    /// newer layer's overlay shadows the owning older layer.
    pub fn entity(&self, id: KbEntityId) -> &KbEntity {
        let i = id.index();
        if let Some(e) = self.tip.touched.get(&i) {
            return e;
        }
        if i >= self.tip.entity_base {
            return &self.tip.entities[i - self.tip.entity_base];
        }
        for layer in self.layers.iter().rev() {
            if let Some(e) = layer.seg.touched.get(&i) {
                return e;
            }
            if i >= layer.seg.entity_base {
                return &layer.seg.entities[i - layer.seg.entity_base];
            }
        }
        panic!("entity id {i} out of range");
    }

    /// All entities in id order, each resolved through the chain (so
    /// overlay mentions are visible exactly as a monolithic KB would
    /// hold them).
    pub fn iter_entities(&self) -> impl Iterator<Item = &KbEntity> + '_ {
        (0..self.n_entities()).map(|i| self.entity(KbEntityId::new(i)))
    }

    /// The fact record (facts are immutable once pushed, so no overlay
    /// resolution is needed — only locating the owning segment).
    pub fn fact(&self, id: u32) -> &Fact {
        let i = id as usize;
        if i >= self.tip.fact_base {
            return &self.tip.facts[i - self.tip.fact_base];
        }
        for layer in self.layers.iter().rev() {
            if i >= layer.seg.fact_base {
                return &layer.seg.facts[i - layer.seg.fact_base];
            }
        }
        panic!("fact id {i} out of range");
    }

    /// All facts in id order.
    pub fn iter_facts(&self) -> impl Iterator<Item = &Fact> + '_ {
        self.layers
            .iter()
            .map(|l| l.seg.facts.as_slice())
            .chain(std::iter::once(self.tip.facts.as_slice()))
            .flatten()
    }

    /// Number of facts.
    pub fn n_facts(&self) -> usize {
        self.tip.fact_base + self.tip.facts.len()
    }

    /// Number of emerging entities. (Entity *kind* is immutable — the
    /// copy-on-write overlay only ever adds mentions — so counting each
    /// segment's own entities is exact.)
    pub fn n_emerging(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.seg.entities.iter())
            .chain(self.tip.entities.iter())
            .filter(|e| e.kind == KbEntityKind::Emerging)
            .count()
    }

    /// Display string of a fact argument.
    pub fn display_arg(&self, arg: &FactArg) -> String {
        match arg {
            FactArg::Entity(id) => self.entity(*id).display(),
            FactArg::Literal(s) | FactArg::Time(s) => display_literal(s),
        }
    }

    /// Display string of a relation.
    pub fn display_relation(&self, rel: &RelationRef, patterns: &PatternRepository) -> String {
        match rel {
            RelationRef::Canonical(id) => patterns.canonical(*id).to_string(),
            RelationRef::Novel(p) => p.clone(),
        }
    }

    /// Paper-style rendering of one fact: `⟨subject, relation, args…⟩`.
    pub fn render_fact(&self, fact: &Fact, patterns: &PatternRepository) -> String {
        let mut parts = vec![
            self.display_arg(&fact.subject),
            self.display_relation(&fact.relation, patterns),
        ];
        parts.extend(fact.args.iter().map(|a| self.display_arg(a)));
        format!("⟨{}⟩", parts.join(", "))
    }

    /// Appends the union of every segment's fact posting for one entity.
    /// Per-segment postings are disjoint (a fact id lives in the segment
    /// that appended it), so the union is exactly the monolithic posting.
    fn extend_facts_of(&self, id: KbEntityId, out: &mut Vec<u32>) {
        for l in &self.layers {
            out.extend_from_slice(l.seg.index.facts_of(id));
        }
        out.extend_from_slice(self.tip.index.facts_of(id));
    }

    /// Fact ids whose slots could match any of the given **normalized**
    /// question mentions under the QA layer's rule (exact equality or
    /// token-suffix containment in either direction) — the indexed
    /// candidate probe behind `answer_in_kb`. The result is a sorted,
    /// de-duplicated *over-approximation*: callers re-check the exact
    /// predicate per fact, so probing is answer-identical to scanning the
    /// whole fact store while costing O(postings) instead of O(|KB|).
    /// Probes union across the layer chain — sound for the same reason.
    pub fn candidate_facts(&self, normalized_mentions: &[String]) -> Vec<u32> {
        let mut entities: FxHashSet<KbEntityId> = FxHashSet::default();
        let mut fact_ids: Vec<u32> = Vec::new();
        for m in normalized_mentions {
            for l in &self.layers {
                l.seg.index.probe_mention(m, &mut entities, &mut fact_ids);
            }
            self.tip
                .index
                .probe_mention(m, &mut entities, &mut fact_ids);
        }
        for e in entities {
            self.extend_facts_of(e, &mut fact_ids);
        }
        fact_ids.sort_unstable();
        fact_ids.dedup();
        fact_ids
    }

    /// Demo-style fact search (§6): substring filters on subject, predicate
    /// and object; a subject/object filter of the form `Type:NAME` matches
    /// linked entities whose types are subsumed by `NAME`.
    ///
    /// Probes the posting indexes for candidates (entities, distinct
    /// literals and distinct relations are enumerated — never the fact
    /// store itself) and re-checks the exact filter per candidate, so the
    /// result is identical to [`OnTheFlyKb::search_scan`].
    pub fn search<'a>(
        &'a self,
        subject: Option<&str>,
        predicate: Option<&str>,
        object: Option<&str>,
        repo: &EntityRepository,
        patterns: &PatternRepository,
    ) -> Vec<&'a Fact> {
        // Candidates from the first present filter; the exact re-check
        // below applies all of them.
        let candidates = if let Some(sf) = subject {
            Some(self.filter_candidates(sf, repo))
        } else if let Some(of) = object {
            Some(self.filter_candidates(of, repo))
        } else {
            predicate.map(|pf| self.predicate_candidates(pf, patterns))
        };
        match candidates {
            Some(ids) => ids
                .into_iter()
                .map(|i| self.fact(i))
                .filter(|f| self.fact_matches(f, subject, predicate, object, repo, patterns))
                .collect(),
            // No filters: every fact matches.
            None => self.iter_facts().collect(),
        }
    }

    /// The pre-index linear scan `search` replaced — kept as the reference
    /// implementation for equivalence tests and benchmark baselines.
    pub fn search_scan<'a>(
        &'a self,
        subject: Option<&str>,
        predicate: Option<&str>,
        object: Option<&str>,
        repo: &EntityRepository,
        patterns: &PatternRepository,
    ) -> Vec<&'a Fact> {
        self.iter_facts()
            .filter(|f| self.fact_matches(f, subject, predicate, object, repo, patterns))
            .collect()
    }

    /// The exact search predicate shared by the indexed and scan paths.
    fn fact_matches(
        &self,
        f: &Fact,
        subject: Option<&str>,
        predicate: Option<&str>,
        object: Option<&str>,
        repo: &EntityRepository,
        patterns: &PatternRepository,
    ) -> bool {
        if let Some(sf) = subject {
            if !self.arg_matches(&f.subject, sf, repo) {
                return false;
            }
        }
        if let Some(pf) = predicate {
            let rel = self.display_relation(&f.relation, patterns);
            if !contains_ci(&rel, pf) {
                return false;
            }
        }
        if let Some(of) = object {
            if !f.args.iter().any(|a| self.arg_matches(a, of, repo)) {
                return false;
            }
        }
        true
    }

    /// Sorted fact-id candidates for one subject/object filter: union of
    /// the postings of matching entities and matching distinct literal
    /// surfaces (a superset of the facts the filter accepts in that slot).
    fn filter_candidates(&self, filter: &str, repo: &EntityRepository) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        if let Some(type_name) = filter.strip_prefix("Type:") {
            // Resolve the type name once for the whole entity walk.
            if let Some(wanted) = resolve_type_filter(repo, type_name) {
                for e in self.iter_entities() {
                    if self.entity_subsumed(e.id, wanted, repo) {
                        self.extend_facts_of(e.id, &mut ids);
                    }
                }
            }
        } else {
            for e in self.iter_entities() {
                if contains_ci(&e.display(), filter) {
                    self.extend_facts_of(e.id, &mut ids);
                }
            }
            for seg_index in self
                .layers
                .iter()
                .map(|l| &l.seg.index)
                .chain(std::iter::once(&self.tip.index))
            {
                for (raw, posting) in seg_index.literals() {
                    if contains_ci(&display_literal(raw), filter) {
                        ids.extend_from_slice(posting);
                    }
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Sorted fact-id candidates for a predicate filter: union of the
    /// postings of distinct relations whose display matches.
    fn predicate_candidates(&self, filter: &str, patterns: &PatternRepository) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::new();
        for seg_index in self
            .layers
            .iter()
            .map(|l| &l.seg.index)
            .chain(std::iter::once(&self.tip.index))
        {
            for (rid, posting) in seg_index.canonical_relations() {
                if contains_ci(patterns.canonical(rid), filter) {
                    ids.extend_from_slice(posting);
                }
            }
            for (novel, posting) in seg_index.novel_relations() {
                if contains_ci(novel, filter) {
                    ids.extend_from_slice(posting);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn arg_matches(&self, arg: &FactArg, filter: &str, repo: &EntityRepository) -> bool {
        if let Some(type_name) = filter.strip_prefix("Type:") {
            if let FactArg::Entity(id) = arg {
                return self.entity_matches_type(*id, type_name, repo);
            }
            return false;
        }
        contains_ci(&self.display_arg(arg), filter)
    }

    /// The `Type:` filter test for one KB entity — the single source of
    /// truth shared by indexed candidate generation and the exact
    /// re-check, so the two cannot desynchronize.
    fn entity_matches_type(
        &self,
        id: KbEntityId,
        type_name: &str,
        repo: &EntityRepository,
    ) -> bool {
        match resolve_type_filter(repo, type_name) {
            Some(wanted) => self.entity_subsumed(id, wanted, repo),
            None => false,
        }
    }

    /// Subsumption test against an already-resolved type (emerging
    /// entities carry no repository types and never match).
    fn entity_subsumed(
        &self,
        id: KbEntityId,
        wanted: crate::types::TypeId,
        repo: &EntityRepository,
    ) -> bool {
        let ts = repo.type_system();
        match self.entity(id).kind {
            KbEntityKind::Linked(repo_id) => repo
                .types_of(repo_id)
                .iter()
                .any(|&t| ts.is_subtype(t, wanted)),
            KbEntityKind::Emerging => false,
        }
    }

    /// Serializes the KB (entities and rendered facts) as JSON for
    /// inspection artifacts. Resolution through the layer chain makes
    /// this byte-identical to the same KB held monolithically — the
    /// equality surface of the fork/extend property tests.
    pub fn to_json(&self, patterns: &PatternRepository) -> qkb_util::json::Value {
        use qkb_util::json::Value;
        Value::object()
            .with("n_entities", self.n_entities())
            .with("n_emerging", self.n_emerging())
            .with("n_facts", self.n_facts())
            .with(
                "entities",
                Value::array(self.iter_entities().map(|e| {
                    Value::object()
                        .with("name", e.display())
                        .with("emerging", e.kind == KbEntityKind::Emerging)
                        .with(
                            "mentions",
                            Value::array(e.mentions.iter().map(|m| Value::from(m.as_str()))),
                        )
                })),
            )
            .with(
                "facts",
                Value::array(self.iter_facts().map(|f| {
                    Value::object()
                        .with("rendered", self.render_fact(f, patterns))
                        .with("arity", f.arity())
                        .with("confidence", f.confidence)
                })),
            )
    }
}

/// Case-insensitive substring match (on normalized text).
fn contains_ci(haystack: &str, needle: &str) -> bool {
    normalize(haystack).contains(&normalize(needle))
}

/// The rendered form of a literal/time slot — shared by `display_arg`
/// and the indexed search's candidate filter so the quoting can never
/// drift between candidate generation and the exact re-check.
fn display_literal(s: &str) -> String {
    format!("\u{201c}{s}\u{201d}")
}

/// Resolves a `Type:NAME` filter name against the repository type
/// system (`None` for unknown types, which match nothing).
fn resolve_type_filter(repo: &EntityRepository, type_name: &str) -> Option<crate::types::TypeId> {
    repo.type_system()
        .get(&type_name.trim().replace(' ', "_").to_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Gender;
    use crate::fact::Provenance;

    fn setup() -> (OnTheFlyKb, EntityRepository, PatternRepository) {
        let mut repo = EntityRepository::new();
        let artist = repo.type_system().get("MUSICAL_ARTIST").expect("t");
        let award = repo.type_system().get("AWARD").expect("t");
        let dylan = repo.add_entity("Bob Dylan", &["Dylan"], Gender::Male, vec![artist]);
        let nobel = repo.add_entity(
            "Nobel Prize in Literature",
            &["the Nobel Prize"],
            Gender::Neutral,
            vec![award],
        );
        let patterns = PatternRepository::standard();
        let mut kb = OnTheFlyKb::new();
        let d = kb.add_linked(dylan, "Bob Dylan");
        let n = kb.add_linked(nobel, "Nobel Prize in Literature");
        let win = patterns.lookup("win").expect("seeded");
        kb.push_fact(Fact {
            subject: FactArg::Entity(d),
            relation: RelationRef::Canonical(win),
            args: vec![FactArg::Entity(n)],
            confidence: 0.9,
            provenance: Provenance::default(),
        });
        let leeds = kb.add_emerging(&["Jessica Leeds".to_string()]);
        kb.push_fact(Fact {
            subject: FactArg::Entity(leeds),
            relation: RelationRef::Novel("accuse of".into()),
            args: vec![FactArg::Literal("groping".into())],
            confidence: 0.7,
            provenance: Provenance::default(),
        });
        (kb, repo, patterns)
    }

    #[test]
    fn linked_entities_deduplicate() {
        let (mut kb, repo, _) = setup();
        let dylan = repo.candidates("Bob Dylan")[0];
        let a = kb.add_linked(dylan, "Bob Dylan");
        let b = kb.add_linked(dylan, "Bob Dylan");
        assert_eq!(a, b);
    }

    #[test]
    fn emerging_entity_display_has_asterisk() {
        let (kb, _, _) = setup();
        let e = kb
            .iter_entities()
            .find(|e| e.kind == KbEntityKind::Emerging)
            .expect("emerging");
        assert_eq!(e.display(), "Jessica Leeds*");
        assert_eq!(kb.n_emerging(), 1);
    }

    #[test]
    fn render_fact_paper_style() {
        let (kb, _, patterns) = setup();
        let rendered = kb.render_fact(kb.fact(0), &patterns);
        assert_eq!(rendered, "⟨Bob Dylan, win, Nobel Prize in Literature⟩");
    }

    #[test]
    fn search_by_substring() {
        let (kb, repo, patterns) = setup();
        let hits = kb.search(Some("dylan"), None, None, &repo, &patterns);
        assert_eq!(hits.len(), 1);
        let hits = kb.search(None, Some("accuse"), None, &repo, &patterns);
        assert_eq!(hits.len(), 1);
        let hits = kb.search(None, None, Some("nobel"), &repo, &patterns);
        assert_eq!(hits.len(), 1);
        let hits = kb.search(Some("nobody"), None, None, &repo, &patterns);
        assert!(hits.is_empty());
    }

    #[test]
    fn type_search_uses_subsumption() {
        let (kb, repo, patterns) = setup();
        // MUSICAL_ARTIST ⊑ ARTIST ⊑ PERSON: all should match Dylan.
        for t in ["Type:MUSICAL ARTIST", "Type:ARTIST", "Type:PERSON"] {
            let hits = kb.search(Some(t), None, None, &repo, &patterns);
            assert_eq!(hits.len(), 1, "filter {t}");
        }
        let hits = kb.search(Some("Type:ORGANIZATION"), None, None, &repo, &patterns);
        assert!(hits.is_empty());
        // Emerging entities never match type filters (no repository types).
        let hits = kb.search(None, None, Some("Type:PERSON"), &repo, &patterns);
        assert!(hits.is_empty());
    }

    #[test]
    fn doc_registry_tracks_merges_and_residency() {
        let (mut kb, _, _) = setup();
        assert_eq!(kb.n_docs(), 0);
        assert!(!kb.contains_doc(42));
        kb.record_doc(42);
        kb.record_doc(7);
        kb.record_doc(42); // a repeated merge keeps its own index
        assert_eq!(kb.n_docs(), 3);
        assert_eq!(kb.merged_docs(), &[42, 7, 42]);
        assert!(kb.contains_doc(42) && kb.contains_doc(7));
        assert!(!kb.contains_doc(8));
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let (mut kb, _, _) = setup();
        let before = kb.approx_bytes();
        assert!(before > 0);
        let e = kb.add_emerging(&["Quite A Long Emerging Name".to_string()]);
        kb.push_fact(Fact {
            subject: FactArg::Entity(e),
            relation: RelationRef::Novel("orbit around".into()),
            args: vec![FactArg::Literal("a literal argument".into())],
            confidence: 0.8,
            provenance: Provenance::default(),
        });
        assert!(kb.approx_bytes() > before);
    }

    #[test]
    fn json_export_shape() {
        let (kb, _, patterns) = setup();
        let v = kb.to_json(&patterns);
        assert_eq!(v["n_facts"], 2);
        assert_eq!(v["n_emerging"], 1);
        assert!(v["facts"].as_array().expect("arr").len() == 2);
    }

    #[test]
    fn freeze_preserves_every_read_and_fork_shares_layers() {
        let (mut kb, repo, patterns) = setup();
        kb.record_doc(42);
        let monolithic = kb.to_json(&patterns).to_string();
        let layer = kb.freeze().expect("non-empty tip seals");
        assert_eq!(layer.chain_key(), doc_sequence_key([42]));
        // Reads resolve through the chain bit-for-bit.
        assert_eq!(kb.to_json(&patterns).to_string(), monolithic);
        assert_eq!(kb.n_docs(), 1);
        assert!(kb.contains_doc(42));
        assert_eq!(
            kb.search(Some("dylan"), None, None, &repo, &patterns).len(),
            1
        );
        // Fork shares the frozen layer by Arc, not by copy.
        let fork = kb.fork();
        assert!(Arc::ptr_eq(
            &kb.frozen_layers()[0],
            &fork.frozen_layers()[0]
        ));
        assert_eq!(fork.to_json(&patterns).to_string(), monolithic);
        // An empty tip has nothing to seal.
        assert!(kb.freeze().is_none());
    }

    #[test]
    fn forks_are_isolated_through_the_copy_on_write_overlay() {
        let (mut kb, repo, _) = setup();
        kb.freeze().expect("seal");
        let dylan_id = KbEntityId::new(0);
        let mut a = kb.fork();
        let mut b = kb.fork();
        a.add_mention(dylan_id, "the bard");
        b.add_mention(dylan_id, "Robert Zimmerman");
        assert!(a.entity(dylan_id).mentions.iter().any(|m| m == "the bard"));
        assert!(!a
            .entity(dylan_id)
            .mentions
            .iter()
            .any(|m| m == "Robert Zimmerman"));
        assert!(kb.entity(dylan_id).mentions.is_empty());
        // The overlay joins the dedup and index paths like an owned record.
        a.add_mention(dylan_id, "the bard");
        assert_eq!(
            a.entity(dylan_id)
                .mentions
                .iter()
                .filter(|m| *m == "the bard")
                .count(),
            1
        );
        // Linked-entity dedup still sees frozen-layer links.
        let repo_dylan = repo.candidates("Bob Dylan")[0];
        assert_eq!(a.add_linked(repo_dylan, "Bob Dylan"), dylan_id);
    }

    #[test]
    fn owned_bytes_exclude_frozen_layers() {
        let (mut kb, _, _) = setup();
        let total_before = kb.approx_bytes_total();
        kb.freeze().expect("seal");
        let fork = kb.fork();
        // The fork owns only its (empty) tip; the chain total still
        // carries the shared layer.
        assert!(fork.approx_bytes_owned() < total_before / 2);
        assert!(fork.approx_bytes_total() >= total_before);
        assert_eq!(
            fork.approx_bytes_total() - fork.approx_bytes_owned(),
            kb.frozen_layers()[0].approx_bytes()
        );
    }
}
