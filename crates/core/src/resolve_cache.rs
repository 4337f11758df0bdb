//! Component-level resolve cache (incremental re-resolution).
//!
//! The per-document NED+CR problem decomposes into independent coupling
//! components (`decompose`), and in the on-the-fly setting the *same*
//! components recur across fresh documents (syndicated boilerplate,
//! breaking-news edits, shared infoboxes). This module memoizes solved
//! assignments at component granularity so only components never seen
//! before re-enter the solver — DeepDive's incremental-inference idea
//! applied to the coupling decomposition.
//!
//! # Cache key
//!
//! A component is fingerprinted by a **canonical byte encoding** of
//! everything the solver reads, and nothing else:
//!
//! * a header with the solver flavour (greedy vs. ILP, plus the ILP
//!   options) and the weight-model parameters (α₁..α₄ bit patterns,
//!   type-signature toggle);
//! * per member, in component order: mention kind, the member's rank in
//!   `NodeId` order (the ILP dedups sameAs pairs by raw node index),
//!   sentence index **relative to the component's minimum** (pronoun
//!   recency uses sentence *distances* only), surface text, pronoun
//!   gender, and the TF-IDF context vector;
//! * every live coupling edge whose endpoints are members (`sameAs`,
//!   relation) or whose mention endpoint is a member (`means`), in
//!   ascending global edge-id order — both solvers scan `edge_ids()`
//!   ascending, so relative edge order (which fixes candidate order and
//!   f64 summation order) must be part of the key. A component's edges
//!   keep their relative order however other components interleave with
//!   them, so the encoding is position-independent across documents.
//!
//! Doc offsets, token positions, NER tags, and anything about *other*
//! components never enter the encoding, so shifting a document or
//! reordering uncoupled mentions leaves keys unchanged. Edge weights
//! are functions of encoded inputs (surface text, contexts, candidate
//! entity ids, patterns) plus the background stats / entity repository
//! — a cache instance must only be shared between `Qkbfly` handles
//! cloned from the same system, where those are `Arc`-shared and the
//! `EntityId`/`Symbol` interning is identical (the serve tier does
//! exactly this).
//!
//! # Collision safety
//!
//! The 64-bit key alone could collide. Every entry therefore stores its
//! full canonical encoding, and a hit is only served after an exact
//! byte comparison against the fresh component's encoding — a key
//! collision degrades to a miss (`ResolveCacheProvider::get` runs the
//! comparison, so the store counts it as one), never to a wrong
//! assignment. A cached assignment that passes the re-check is
//! definitionally the assignment the solver would produce, so the KB
//! stays byte-identical with the cache on or off.

use crate::densify::{DensifyOutcome, MentionResolution};
use crate::graph::{EdgeKind, GraphEdgeId, NodeId, NodeKind, SemanticGraph};
use crate::ilp::{IlpOutcome, IlpSolveOptions};
use crate::weights::WeightModel;
use qkb_kb::{EntityId, Gender};
use qkb_util::{fingerprint64, FxHashMap};
use std::sync::{Arc, Mutex};

/// A pluggable store for solved components. `core` stays free of any
/// serving dependency: offline builds run without a provider (every
/// component reports `bypass`), the serve tier plugs in its sharded,
/// byte-bounded LRU.
pub trait ResolveCacheProvider: Send + Sync {
    /// Looks up the solved component stored under fingerprint `key`,
    /// served only when its canonical encoding equals `encoding`
    /// ([`CachedComponent::matches`]): a fingerprint collision is a
    /// miss. The store settles hit or miss before it counts anything.
    fn get(&self, key: u64, encoding: &[u8]) -> Option<Arc<CachedComponent>>;
    /// Stores a freshly solved component.
    fn insert(&self, key: u64, entry: Arc<CachedComponent>);
}

/// Per-resolve cache outcome tally, recombined across components.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Components served from the cache (after the exact re-check).
    pub hits: u64,
    /// Components solved fresh (including uncacheable components and
    /// re-check rejections).
    pub misses: u64,
    /// Components resolved with no provider attached.
    pub bypass: u64,
}

impl CacheTally {
    /// Sums another tally into this one.
    pub fn add(&mut self, other: &CacheTally) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypass += other.bypass;
    }
}

/// Which solver produced (and may replay) a cached assignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SolverFlavor {
    Greedy,
    Ilp,
}

/// One member's cached resolution; the antecedent is a member index
/// (antecedents are always members of the same component).
#[derive(Clone, Debug)]
struct CachedResolution {
    entity: Option<EntityId>,
    confidence_bits: u64,
    antecedent: Option<u32>,
}

/// A solved component, position-independent: node ids are member
/// indices, edge ids are indices into the canonical edge list.
#[derive(Debug)]
pub struct CachedComponent {
    flavor: SolverFlavor,
    /// Full canonical encoding, kept for the exact re-check on hit.
    encoding: Vec<u8>,
    /// Per member, in component order; `None` when the solver emitted
    /// no resolution for that member.
    resolutions: Vec<Option<CachedResolution>>,
    /// Edges the greedy solve killed, as canonical-edge indices in kill
    /// order (empty for ILP, which never mutates the graph).
    kills: Vec<u32>,
    objective_bits: u64,
    removed_edges: usize,
    /// ILP flags (greedy entries: `optimal` true, `infeasible` false).
    optimal: bool,
    infeasible: bool,
}

impl CachedComponent {
    /// Exact structural re-check: serve this entry only for a component
    /// whose canonical encoding is byte-identical.
    pub fn matches(&self, encoding: &[u8]) -> bool {
        self.encoding == encoding
    }

    /// Approximate heap footprint, for byte-bounded stores.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.encoding.capacity()
            + self.resolutions.capacity() * std::mem::size_of::<Option<CachedResolution>>()
            + self.kills.capacity() * std::mem::size_of::<u32>()
    }

    fn capture_resolutions(
        members: &[NodeId],
        resolutions: &FxHashMap<NodeId, MentionResolution>,
    ) -> Option<Vec<Option<CachedResolution>>> {
        let member_idx: FxHashMap<NodeId, u32> = members
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let mut out = Vec::with_capacity(members.len());
        for m in members {
            out.push(match resolutions.get(m) {
                None => None,
                Some(res) => {
                    let antecedent = match res.antecedent {
                        None => None,
                        // An antecedent outside the component would not
                        // replay; refuse to cache (cannot happen — both
                        // solvers pick antecedents among members).
                        Some(a) => Some(*member_idx.get(&a)?),
                    };
                    Some(CachedResolution {
                        entity: res.entity,
                        confidence_bits: res.confidence.to_bits(),
                        antecedent,
                    })
                }
            });
        }
        Some(out)
    }

    fn replay_resolutions(&self, members: &[NodeId]) -> FxHashMap<NodeId, MentionResolution> {
        debug_assert_eq!(members.len(), self.resolutions.len());
        let mut out = FxHashMap::default();
        for (i, cached) in self.resolutions.iter().enumerate() {
            if let Some(c) = cached {
                out.insert(
                    members[i],
                    MentionResolution {
                        entity: c.entity,
                        confidence: f64::from_bits(c.confidence_bits),
                        antecedent: c.antecedent.map(|a| members[a as usize]),
                    },
                );
            }
        }
        out
    }

    /// Captures a greedy solve. Returns `None` if any kill or
    /// antecedent falls outside the canonical component (never happens
    /// for real solves; refusing keeps caching sound regardless).
    fn capture_greedy(
        fp: &ComponentFingerprint,
        members: &[NodeId],
        outcome: &DensifyOutcome,
        kills: &[GraphEdgeId],
    ) -> Option<Self> {
        let edge_idx: FxHashMap<GraphEdgeId, u32> = fp
            .edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u32))
            .collect();
        let kills = kills
            .iter()
            .map(|e| edge_idx.get(e).copied())
            .collect::<Option<Vec<u32>>>()?;
        Some(Self {
            flavor: SolverFlavor::Greedy,
            encoding: fp.encoding.clone(),
            resolutions: Self::capture_resolutions(members, &outcome.resolutions)?,
            kills,
            objective_bits: outcome.objective.to_bits(),
            removed_edges: outcome.removed_edges,
            optimal: true,
            infeasible: false,
        })
    }

    fn replay_greedy(
        &self,
        members: &[NodeId],
        edges: &[GraphEdgeId],
    ) -> (DensifyOutcome, Vec<GraphEdgeId>) {
        debug_assert_eq!(self.flavor, SolverFlavor::Greedy);
        let outcome = DensifyOutcome {
            resolutions: self.replay_resolutions(members),
            objective: f64::from_bits(self.objective_bits),
            removed_edges: self.removed_edges,
        };
        let kills = self.kills.iter().map(|&i| edges[i as usize]).collect();
        (outcome, kills)
    }

    /// Captures an ILP solve (the ILP never kills edges itself).
    fn capture_ilp(
        fp: &ComponentFingerprint,
        members: &[NodeId],
        out: &IlpOutcome,
    ) -> Option<Self> {
        Some(Self {
            flavor: SolverFlavor::Ilp,
            encoding: fp.encoding.clone(),
            resolutions: Self::capture_resolutions(members, &out.resolutions)?,
            kills: Vec::new(),
            objective_bits: out.objective.to_bits(),
            removed_edges: 0,
            optimal: out.optimal,
            infeasible: out.infeasible,
        })
    }

    /// Replays an ILP solve. Cached components report zero solver
    /// effort (`n_variables`/`nodes`/`pruned_candidates`) — that is the
    /// point of the cache, and the counters feed diagnostics only.
    fn replay_ilp(&self, members: &[NodeId]) -> IlpOutcome {
        debug_assert_eq!(self.flavor, SolverFlavor::Ilp);
        IlpOutcome {
            resolutions: self.replay_resolutions(members),
            objective: f64::from_bits(self.objective_bits),
            optimal: self.optimal,
            infeasible: self.infeasible,
            n_variables: 0,
            nodes: 0,
            pruned_candidates: 0,
        }
    }
}

/// The canonical encoding of one component plus the graph-local ids it
/// abstracts over (needed to replay a cached assignment onto the fresh
/// graph).
pub(crate) struct ComponentFingerprint {
    /// `fingerprint64` of `encoding`.
    pub key: u64,
    /// The canonical byte encoding (see module docs).
    pub encoding: Vec<u8>,
    /// Canonical edge list: every encoded edge's graph id, in ascending
    /// edge-id order. Cached kill lists index into this.
    pub edges: Vec<GraphEdgeId>,
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn gender_byte(g: Gender) -> u8 {
    match g {
        Gender::Male => 0,
        Gender::Female => 1,
        Gender::Neutral => 2,
        Gender::Unknown => 3,
    }
}

/// Canonically encodes `members`' component under the given solver
/// flavour. Returns `None` when the component is **uncacheable**: a
/// live coupling edge leaves the component (possible only when solving
/// a strict subset of a document's mentions — the solvers would then
/// read state the encoding does not capture).
pub(crate) fn fingerprint_component(
    graph: &SemanticGraph,
    members: &[NodeId],
    model: &WeightModel,
    ilp: Option<IlpSolveOptions>,
) -> Option<ComponentFingerprint> {
    let member_idx: FxHashMap<NodeId, u32> = members
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as u32))
        .collect();

    let mut enc = Vec::with_capacity(64 + members.len() * 48);
    enc.push(1u8); // encoding version
    match ilp {
        None => enc.push(0u8),
        Some(opts) => {
            enc.push(1u8);
            enc.push(opts.prune as u8);
            enc.push(opts.warm_start as u8);
        }
    }
    for a in model.alphas {
        push_u64(&mut enc, a.to_bits());
    }
    enc.push(model.use_type_signatures as u8);

    // Members, in component order. Sentence indices are encoded
    // relative to the component minimum (only distances matter), node
    // ids as the member's rank in NodeId order (only relative order
    // matters, for the ILP's sameAs-pair dedup).
    let min_sentence = members
        .iter()
        .map(|&n| match graph.node(n) {
            NodeKind::NounPhrase { sentence, .. } | NodeKind::Pronoun { sentence, .. } => *sentence,
            _ => 0,
        })
        .min()
        .unwrap_or(0);
    let mut by_node: Vec<NodeId> = members.to_vec();
    by_node.sort_unstable();
    push_u64(&mut enc, members.len() as u64);
    for &m in members {
        let rank = by_node.binary_search(&m).expect("member") as u64;
        match graph.node(m) {
            NodeKind::NounPhrase { sentence, text, .. } => {
                enc.push(0u8);
                push_u64(&mut enc, rank);
                push_u64(&mut enc, (sentence - min_sentence) as u64);
                push_str(&mut enc, text);
            }
            NodeKind::Pronoun {
                sentence,
                text,
                gender,
                ..
            } => {
                enc.push(1u8);
                push_u64(&mut enc, rank);
                push_u64(&mut enc, (sentence - min_sentence) as u64);
                push_str(&mut enc, text);
                enc.push(gender_byte(*gender));
            }
            _ => return None, // not a mention: never cacheable
        }
        match graph.context(m) {
            None => enc.push(0u8),
            Some(ctx) => {
                enc.push(1u8);
                push_u64(&mut enc, ctx.nnz() as u64);
                for (sym, v) in ctx.iter() {
                    push_u64(&mut enc, sym.0 as u64);
                    push_u64(&mut enc, v.to_bits());
                }
            }
        }
    }

    // Coupling edges, in ascending global edge-id order: the solvers
    // scan `edge_ids()` ascending, so candidate order and f64 summation
    // order are exactly the relative order preserved here.
    let mut edges: Vec<GraphEdgeId> = Vec::new();
    let mut edge_enc: Vec<u8> = Vec::new();
    for eid in graph.edge_ids() {
        let edge = graph.edge(eid);
        if !edge.alive {
            continue;
        }
        let (ia, ib) = (member_idx.get(&edge.a), member_idx.get(&edge.b));
        match &edge.kind {
            EdgeKind::Means => {
                let (mention, &entity_node, a_is_member) = match (ia, ib) {
                    (Some(&i), None) => (i, &edge.b, 1u8),
                    (None, Some(&i)) => (i, &edge.a, 0u8),
                    _ => continue,
                };
                let NodeKind::Entity { entity } = graph.node(entity_node) else {
                    continue;
                };
                edge_enc.push(0u8);
                push_u64(&mut edge_enc, mention as u64);
                edge_enc.push(a_is_member);
                push_u64(&mut edge_enc, entity.index() as u64);
                edges.push(eid);
            }
            EdgeKind::SameAs | EdgeKind::Relation { .. } => {
                let (ia, ib) = match (ia, ib) {
                    (Some(&a), Some(&b)) => (a, b),
                    (None, None) => continue,
                    // A coupling edge leaving the component: the solver
                    // would read beyond the encoding. Uncacheable.
                    _ => return None,
                };
                match &edge.kind {
                    EdgeKind::SameAs => edge_enc.push(1u8),
                    EdgeKind::Relation { pattern } => {
                        edge_enc.push(2u8);
                        push_str(&mut edge_enc, pattern);
                    }
                    _ => unreachable!(),
                }
                push_u64(&mut edge_enc, ia as u64);
                push_u64(&mut edge_enc, ib as u64);
                edges.push(eid);
            }
            EdgeKind::Depends => continue,
        }
    }
    push_u64(&mut enc, edges.len() as u64);
    enc.extend_from_slice(&edge_enc);

    let key = fingerprint64(&enc);
    Some(ComponentFingerprint {
        key,
        encoding: enc,
        edges,
    })
}

/// Cache outcome of one component, for span fields and the tally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    Hit,
    Miss,
    Bypass,
}

impl CacheOutcome {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }

    pub(crate) fn tally(self, t: &mut CacheTally) {
        match self {
            CacheOutcome::Hit => t.hits += 1,
            CacheOutcome::Miss => t.misses += 1,
            CacheOutcome::Bypass => t.bypass += 1,
        }
    }
}

/// Cache-or-solve for one greedy component: replay a verified hit, else
/// solve and store.
pub(crate) fn cached_densify(
    graph: &SemanticGraph,
    members: &[NodeId],
    model: &WeightModel,
    stats: &qkb_kb::BackgroundStats,
    repo: &qkb_kb::EntityRepository,
    cache: Option<&dyn ResolveCacheProvider>,
) -> (DensifyOutcome, Vec<GraphEdgeId>, CacheOutcome) {
    let Some(provider) = cache else {
        let (out, kills) =
            crate::densify::densify_deferred(graph, members, model, stats, repo, true);
        return (out, kills, CacheOutcome::Bypass);
    };
    let fp = fingerprint_component(graph, members, model, None);
    if let Some(fp) = &fp {
        if let Some(entry) = provider.get(fp.key, &fp.encoding) {
            let (out, kills) = entry.replay_greedy(members, &fp.edges);
            return (out, kills, CacheOutcome::Hit);
        }
    }
    let (out, kills) = crate::densify::densify_deferred(graph, members, model, stats, repo, true);
    if let Some(fp) = &fp {
        if let Some(entry) = CachedComponent::capture_greedy(fp, members, &out, &kills) {
            provider.insert(fp.key, Arc::new(entry));
        }
    }
    (out, kills, CacheOutcome::Miss)
}

/// Cache-or-solve for one ILP component.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cached_ilp(
    graph: &SemanticGraph,
    members: &[NodeId],
    model: &WeightModel,
    stats: &qkb_kb::BackgroundStats,
    repo: &qkb_kb::EntityRepository,
    opts: IlpSolveOptions,
    cache: Option<&dyn ResolveCacheProvider>,
) -> (IlpOutcome, CacheOutcome) {
    let Some(provider) = cache else {
        let out = crate::ilp::resolve_ilp_subset(graph, members, model, stats, repo, opts);
        return (out, CacheOutcome::Bypass);
    };
    let fp = fingerprint_component(graph, members, model, Some(opts));
    if let Some(fp) = &fp {
        if let Some(entry) = provider.get(fp.key, &fp.encoding) {
            return (entry.replay_ilp(members), CacheOutcome::Hit);
        }
    }
    let out = crate::ilp::resolve_ilp_subset(graph, members, model, stats, repo, opts);
    if let Some(fp) = &fp {
        if let Some(entry) = CachedComponent::capture_ilp(fp, members, &out) {
            provider.insert(fp.key, Arc::new(entry));
        }
    }
    (out, CacheOutcome::Miss)
}

/// A plain in-process provider (unbounded, mutex-guarded): the default
/// for offline builds that opt in, and the test double. The serve tier
/// provides the production sharded byte-bounded store.
#[derive(Default)]
pub struct MemoryResolveCache {
    entries: Mutex<FxHashMap<u64, Arc<CachedComponent>>>,
    hits: Mutex<u64>,
    rejects: Mutex<u64>,
}

impl MemoryResolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Verified hits served so far.
    pub fn hits(&self) -> u64 {
        *self.hits.lock().expect("cache lock")
    }

    /// Re-check rejections (fingerprint collisions or poisoned entries).
    pub fn rejects(&self) -> u64 {
        *self.rejects.lock().expect("cache lock")
    }

    /// Test hook: replaces the entry stored under `victim_key` with the
    /// entry stored under `donor_key` (keeping the donor's payload and
    /// encoding), simulating a fingerprint collision / poisoned entry.
    /// Returns false when either key is missing.
    pub fn poison_with(&self, victim_key: u64, donor_key: u64) -> bool {
        let mut entries = self.entries.lock().expect("cache lock");
        let Some(donor) = entries.get(&donor_key).cloned() else {
            return false;
        };
        if !entries.contains_key(&victim_key) {
            return false;
        }
        entries.insert(victim_key, donor);
        true
    }

    /// All resident keys (test hook).
    pub fn keys(&self) -> Vec<u64> {
        self.entries
            .lock()
            .expect("cache lock")
            .keys()
            .copied()
            .collect()
    }
}

impl ResolveCacheProvider for MemoryResolveCache {
    fn get(&self, key: u64, encoding: &[u8]) -> Option<Arc<CachedComponent>> {
        let stored = self
            .entries
            .lock()
            .expect("cache lock")
            .get(&key)
            .cloned()?;
        if stored.matches(encoding) {
            *self.hits.lock().expect("cache lock") += 1;
            Some(stored)
        } else {
            *self.rejects.lock().expect("cache lock") += 1;
            None
        }
    }

    fn insert(&self, key: u64, entry: Arc<CachedComponent>) {
        self.entries.lock().expect("cache lock").insert(key, entry);
    }
}
