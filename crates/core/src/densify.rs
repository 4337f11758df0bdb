//! Stage 2: the greedy densest-subgraph algorithm (Algorithm 1, §4).
//!
//! Joint named-entity disambiguation and co-reference resolution: starting
//! from the full candidate graph, greedily remove the `means`/`sameAs`
//! edge with the smallest contribution to the objective `W(S)` until the
//! four constraints hold:
//!
//! 1. each noun-phrase connects to at most one entity;
//! 2. each pronoun connects to at most one noun phrase;
//! 3. mutually `sameAs`-linked mentions connect to the same entity
//!    (implemented by intersecting candidate sets per mention group and
//!    removing candidates group-wide);
//! 4. pronoun gender must match a linked PERSON entity's gender.
//!
//! Edge-weight recomputation after each removal is *selective and
//! incremental*: only relation edges incident to the affected group's
//! members (and to pronouns targeting it) are rescored. The lazy loop
//! (`densify_deferred` with `lazy`) also keeps each rescoring cheap: a
//! relation edge's `pair_weight` terms are computed once per solve and
//! read back from a memo, and the affected terms' sum before a removal is
//! computed once per group or pronoun, not once per candidate. Both keep
//! every addition in the naive loop's order, so the output is the same
//! to the bit.

use crate::graph::{GraphEdgeId, NodeId, NodeKind, SemanticGraph};
use crate::weights::WeightModel;
use qkb_kb::{BackgroundStats, EntityId, EntityRepository, Gender};
use qkb_util::FxHashMap;

/// Resolution of one mention node after densification.
#[derive(Clone, Debug, Default)]
pub struct MentionResolution {
    /// Linked repository entity, if disambiguated.
    pub entity: Option<EntityId>,
    /// Normalized confidence score (§4 "Confidence Scores").
    pub confidence: f64,
    /// Chosen antecedent (pronouns only).
    pub antecedent: Option<NodeId>,
}

/// Output of the densification.
#[derive(Debug, Default)]
pub struct DensifyOutcome {
    /// Per-mention resolutions.
    pub resolutions: FxHashMap<NodeId, MentionResolution>,
    /// Final objective value `W(S*)`.
    pub objective: f64,
    /// Number of edges removed by the greedy loop.
    pub removed_edges: usize,
}

struct CandState {
    e: EntityId,
    weight: f64,
    alive: bool,
    edges: Vec<GraphEdgeId>,
}

struct GroupState {
    members: Vec<NodeId>,
    cands: Vec<CandState>,
    original: Vec<EntityId>,
}

struct TargetState {
    edge: GraphEdgeId,
    group: usize,
    alive: bool,
}

struct PronState {
    node: NodeId,
    gender: Gender,
    targets: Vec<TargetState>,
}

struct RelEdge {
    a: NodeId,
    b: NodeId,
    pattern: String,
}

enum MentionRef {
    Np(usize),
    Pron(usize),
}

/// The densification engine (holds the working state for one graph).
///
/// The engine only *reads* the graph; every edge removal it decides is
/// recorded in [`Engine::kills`] and applied by the caller afterwards.
/// This is safe because the algorithm never re-reads an edge it has
/// decided to remove (candidate/target liveness is tracked in the
/// engine's own state), and it is what lets independent components of
/// one graph run concurrently against a shared `&SemanticGraph`.
struct Engine<'a> {
    graph: &'a SemanticGraph,
    model: &'a WeightModel,
    stats: &'a BackgroundStats,
    repo: &'a EntityRepository,
    groups: Vec<GroupState>,
    pronouns: Vec<PronState>,
    mention_ref: FxHashMap<NodeId, usize>, // into refs
    refs: Vec<MentionRef>,
    rels: Vec<RelEdge>,
    rels_of: FxHashMap<NodeId, Vec<usize>>,
    /// `pair_weight` per (relation edge, a, b), filled on first read.
    /// `Some` only on the lazy path; the naive loop recomputes every term.
    pair_memo: Option<FxHashMap<(usize, EntityId, EntityId), f64>>,
    removed: usize,
    kills: Vec<GraphEdgeId>,
}

/// Runs Algorithm 1 on the graph.
pub fn densify(
    graph: &mut SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
) -> DensifyOutcome {
    let (outcome, kills) = densify_deferred(graph, mentions, model, stats, repo, false);
    for e in kills {
        graph.kill_edge(e);
    }
    outcome
}

/// [`densify`] against a read-only graph: returns the outcome plus the
/// edge kills the caller must apply to realize it. Restricting `mentions`
/// to one connected component (sameAs/relation coupling) yields exactly
/// that component's slice of the full run — see `decompose`.
///
/// With `lazy` set the greedy loop memoizes removal contributions and
/// re-scores only the entries a removal could have changed, reading each
/// `pair_weight` term from a memo that lives as long as this call; the
/// removal sequence (and therefore the output, bit for bit) is identical
/// to the naive loop — see [`Engine::run_lazy`]. The naive loop, which
/// recomputes every term, is kept as the reference implementation and
/// serves as the benchmark baseline.
pub(crate) fn densify_deferred(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
    lazy: bool,
) -> (DensifyOutcome, Vec<GraphEdgeId>) {
    let mut engine = Engine::init(graph, mentions, model, stats, repo);
    if lazy {
        engine.run_lazy();
    } else {
        engine.run();
    }
    engine.finish()
}

impl<'a> Engine<'a> {
    fn init(
        graph: &'a SemanticGraph,
        mentions: &[NodeId],
        model: &'a WeightModel,
        stats: &'a BackgroundStats,
        repo: &'a EntityRepository,
    ) -> Self {
        let mut kills: Vec<GraphEdgeId> = Vec::new();
        // --- NP groups: connected components over NP–NP sameAs edges with
        // compatible candidate sets (constraint (3) preparation). ---
        let nps: Vec<NodeId> = mentions
            .iter()
            .copied()
            .filter(|&n| matches!(graph.node(n), NodeKind::NounPhrase { .. }))
            .collect();
        let mut parent: FxHashMap<NodeId, NodeId> = nps.iter().map(|&n| (n, n)).collect();
        fn find(parent: &mut FxHashMap<NodeId, NodeId>, mut x: NodeId) -> NodeId {
            while parent[&x] != x {
                let p = parent[&x];
                let gp = parent[&p];
                parent.insert(x, gp);
                x = gp;
            }
            x
        }
        // Candidate sets per NP (from live means edges).
        let np_cands: FxHashMap<NodeId, Vec<EntityId>> = nps
            .iter()
            .map(|&n| (n, graph.means_of(n).iter().map(|&(_, e)| e).collect()))
            .collect();
        let mut conflict_edges: Vec<GraphEdgeId> = Vec::new();
        for &n in &nps {
            for (edge, other) in graph.same_as_of(n) {
                if !matches!(graph.node(other), NodeKind::NounPhrase { .. }) {
                    continue;
                }
                let ra = find(&mut parent, n);
                let rb = find(&mut parent, other);
                if ra == rb {
                    continue;
                }
                // Merge only when candidate sets are compatible: either one
                // side is unlinked or the intersection is non-empty.
                let ca = &np_cands[&n];
                let cb = &np_cands[&other];
                let compatible =
                    ca.is_empty() || cb.is_empty() || ca.iter().any(|e| cb.contains(e));
                if compatible {
                    parent.insert(ra, rb);
                } else {
                    conflict_edges.push(edge);
                }
            }
        }
        // Conflicting string matches cannot satisfy constraint (3): the
        // corresponding sameAs edges are removed up front.
        kills.extend(conflict_edges);

        // Materialize groups.
        let mut group_of: FxHashMap<NodeId, usize> = FxHashMap::default();
        let mut groups: Vec<GroupState> = Vec::new();
        for &n in &nps {
            let root = find(&mut parent, n);
            let gid = *group_of.entry(root).or_insert_with(|| {
                groups.push(GroupState {
                    members: Vec::new(),
                    cands: Vec::new(),
                    original: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gid].members.push(n);
            group_of.insert(n, gid);
        }

        // Group candidate sets: intersection of the members' non-empty sets.
        for g in groups.iter_mut() {
            let mut inter: Option<Vec<EntityId>> = None;
            for m in &g.members {
                let cs = &np_cands[m];
                if cs.is_empty() {
                    continue;
                }
                inter = Some(match inter {
                    None => cs.clone(),
                    Some(prev) => prev.into_iter().filter(|e| cs.contains(e)).collect(),
                });
            }
            let set = inter.unwrap_or_default();
            g.original = set.clone();
            for e in set {
                let mut weight = 0.0;
                let mut edges = Vec::new();
                for m in &g.members {
                    for (edge, cand) in graph.means_of(*m) {
                        if cand == e {
                            weight += model.means_weight(graph, stats, *m, e);
                            edges.push(edge);
                        }
                    }
                }
                g.cands.push(CandState {
                    e,
                    weight,
                    alive: true,
                    edges,
                });
            }
            // Kill means edges outside the intersected set (Algorithm 1's
            // preamble).
            for m in &g.members {
                for (edge, cand) in graph.means_of(*m) {
                    if !g.cands.iter().any(|c| c.e == cand) {
                        kills.push(edge);
                    }
                }
            }
        }

        // --- Pronouns and their antecedent targets. ---
        let mut pronouns: Vec<PronState> = Vec::new();
        for &n in mentions {
            let NodeKind::Pronoun { gender, .. } = graph.node(n) else {
                continue;
            };
            let gender = *gender;
            let mut targets = Vec::new();
            for (edge, other) in graph.same_as_of(n) {
                let Some(&gid) = group_of.get(&other) else {
                    continue;
                };
                // Constraint (4) pre-filter: a target whose every candidate
                // is a PERSON of the wrong gender can never be chosen.
                let group = &groups[gid];
                let viable = group.cands.is_empty()
                    || group.cands.iter().any(|c| gender_ok(repo, c.e, gender));
                if viable {
                    targets.push(TargetState {
                        edge,
                        group: gid,
                        alive: true,
                    });
                } else {
                    kills.push(edge);
                }
            }
            pronouns.push(PronState {
                node: n,
                gender,
                targets,
            });
        }

        // --- Mention references and relation edges. ---
        let mut refs = Vec::new();
        let mut mention_ref = FxHashMap::default();
        for (gid, g) in groups.iter().enumerate() {
            for m in &g.members {
                mention_ref.insert(*m, refs.len());
                refs.push(MentionRef::Np(gid));
            }
        }
        for (pid, p) in pronouns.iter().enumerate() {
            mention_ref.insert(p.node, refs.len());
            refs.push(MentionRef::Pron(pid));
        }

        // Relation edges between two of *our* mentions, in edge-id order.
        // Edges touching a node outside the mention set (clause nodes, or
        // — under component decomposition — nothing, since coupling edges
        // never cross components) carry weight 0 by construction
        // (`cand_set` of a non-mention is empty) and are skipped.
        let mut rels = Vec::new();
        let mut rels_of: FxHashMap<NodeId, Vec<usize>> = FxHashMap::default();
        for e in graph.edge_ids() {
            let edge = graph.edge(e);
            if !edge.alive {
                continue;
            }
            if let crate::graph::EdgeKind::Relation { pattern } = &edge.kind {
                if !mention_ref.contains_key(&edge.a) || !mention_ref.contains_key(&edge.b) {
                    continue;
                }
                let idx = rels.len();
                rels.push(RelEdge {
                    a: edge.a,
                    b: edge.b,
                    pattern: pattern.clone(),
                });
                rels_of.entry(edge.a).or_default().push(idx);
                rels_of.entry(edge.b).or_default().push(idx);
            }
        }

        Self {
            graph,
            model,
            stats,
            repo,
            groups,
            pronouns,
            mention_ref,
            refs,
            rels,
            rels_of,
            pair_memo: None,
            removed: 0,
            kills,
        }
    }

    /// Candidate entities currently visible at a mention node.
    fn cand_set(&self, node: NodeId) -> Vec<EntityId> {
        match self.mention_ref.get(&node).map(|&r| &self.refs[r]) {
            Some(MentionRef::Np(gid)) => self.groups[*gid]
                .cands
                .iter()
                .filter(|c| c.alive)
                .map(|c| c.e)
                .collect(),
            Some(MentionRef::Pron(pid)) => {
                let p = &self.pronouns[*pid];
                let mut out = Vec::new();
                for t in p.targets.iter().filter(|t| t.alive) {
                    for c in self.groups[t.group].cands.iter().filter(|c| c.alive) {
                        if gender_ok(self.repo, c.e, p.gender) && !out.contains(&c.e) {
                            out.push(c.e);
                        }
                    }
                }
                out
            }
            None => Vec::new(),
        }
    }

    /// Weight of relation edge `idx` under the current candidate sets.
    ///
    /// With the memo on, each pair term is read from `pair_memo` and the
    /// terms are added in [`WeightModel::relation_weight`]'s order (`ca`
    /// outer, `cb` inner, from `0.0`): `pair_weight` is a pure function
    /// of (a, b, pattern), so the sum is the same bits either way.
    fn rel_weight(&mut self, idx: usize) -> f64 {
        let r = &self.rels[idx];
        let ca = self.cand_set(r.a);
        if ca.is_empty() {
            return 0.0;
        }
        let cb = self.cand_set(r.b);
        if cb.is_empty() {
            return 0.0;
        }
        let (model, stats, repo) = (self.model, self.stats, self.repo);
        let Some(memo) = self.pair_memo.as_mut() else {
            return model.relation_weight(stats, repo, &ca, &cb, &r.pattern);
        };
        let mut w = 0.0;
        for &a in &ca {
            for &b in &cb {
                w += *memo
                    .entry((idx, a, b))
                    .or_insert_with(|| model.pair_weight(stats, repo, a, b, &r.pattern));
            }
        }
        w
    }

    /// Sum of the current weights of relation edges `affected`, in order.
    fn rel_sum(&mut self, affected: &[usize]) -> f64 {
        affected.iter().map(|&r| self.rel_weight(r)).sum()
    }

    /// Relation edges whose weight depends on group `gid` (incident to a
    /// member, or to a pronoun currently targeting the group).
    fn rels_touching_group(&self, gid: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for m in &self.groups[gid].members {
            if let Some(v) = self.rels_of.get(m) {
                out.extend_from_slice(v);
            }
        }
        for p in &self.pronouns {
            if p.targets.iter().any(|t| t.alive && t.group == gid) {
                if let Some(v) = self.rels_of.get(&p.node) {
                    out.extend_from_slice(v);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Contribution of removing candidate `ci` from group `gid`:
    /// `c(x, y, S) = W(S) − W(S′)` restricted to the affected terms
    /// (selective recomputation). `affected` is `rels_touching_group(gid)`
    /// and `before` its [`Engine::rel_sum`] in the current state; the call
    /// restores the one flag it clears, so one pair serves every candidate
    /// of the group.
    fn group_removal_contribution(
        &mut self,
        gid: usize,
        ci: usize,
        affected: &[usize],
        before: f64,
    ) -> f64 {
        self.groups[gid].cands[ci].alive = false;
        let after = self.rel_sum(affected);
        self.groups[gid].cands[ci].alive = true;
        self.groups[gid].cands[ci].weight + (before - after)
    }

    /// Contribution of removing pronoun `pid`'s target `ti`; `affected`
    /// is the pronoun's `rels_of` and `before` its [`Engine::rel_sum`].
    /// As for a group, one pair serves every target of the pronoun.
    fn pron_removal_contribution(
        &mut self,
        pid: usize,
        ti: usize,
        affected: &[usize],
        before: f64,
    ) -> f64 {
        self.pronouns[pid].targets[ti].alive = false;
        let after = self.rel_sum(affected);
        self.pronouns[pid].targets[ti].alive = true;
        before - after
    }

    /// Relation edges incident to pronoun `pid`.
    fn rels_of_pronoun(&self, pid: usize) -> Vec<usize> {
        self.rels_of
            .get(&self.pronouns[pid].node)
            .cloned()
            .unwrap_or_default()
    }

    /// The greedy loop: remove the cheapest violating edge until the
    /// constraints hold.
    fn run(&mut self) {
        loop {
            // Collect removable items (violations of constraints (1)/(2)).
            let mut best: Option<(f64, Removal)> = None;
            for gid in 0..self.groups.len() {
                let alive = self.groups[gid].cands.iter().filter(|c| c.alive).count();
                if alive < 2 {
                    continue;
                }
                for ci in 0..self.groups[gid].cands.len() {
                    if !self.groups[gid].cands[ci].alive {
                        continue;
                    }
                    let affected = self.rels_touching_group(gid);
                    let before = self.rel_sum(&affected);
                    let c = self.group_removal_contribution(gid, ci, &affected, before);
                    if best.as_ref().is_none_or(|(b, _)| c < *b) {
                        best = Some((c, Removal::GroupCand(gid, ci)));
                    }
                }
            }
            for pid in 0..self.pronouns.len() {
                let alive = self.pronouns[pid]
                    .targets
                    .iter()
                    .filter(|t| t.alive)
                    .count();
                if alive < 2 {
                    continue;
                }
                for ti in 0..self.pronouns[pid].targets.len() {
                    if !self.pronouns[pid].targets[ti].alive {
                        continue;
                    }
                    let affected = self.rels_of_pronoun(pid);
                    let before = self.rel_sum(&affected);
                    let mut c = self.pron_removal_contribution(pid, ti, &affected, before);
                    // Recency tie-break: prefer keeping nearer antecedents
                    // by making farther targets marginally cheaper to drop.
                    let tgroup = self.pronouns[pid].targets[ti].group;
                    if let Some(&m) = self.groups[tgroup].members.first() {
                        let dist = sentence_distance(self.graph, self.pronouns[pid].node, m);
                        c -= 1e-6 * dist as f64;
                    }
                    if best.as_ref().is_none_or(|(b, _)| c < *b) {
                        best = Some((c, Removal::PronTarget(pid, ti)));
                    }
                }
            }
            let Some((_, removal)) = best else {
                break; // all constraints satisfied
            };
            match removal {
                Removal::GroupCand(gid, ci) => {
                    self.groups[gid].cands[ci].alive = false;
                    let edges = self.groups[gid].cands[ci].edges.clone();
                    for e in edges {
                        self.kills.push(e);
                        self.removed += 1;
                    }
                }
                Removal::PronTarget(pid, ti) => {
                    self.pronouns[pid].targets[ti].alive = false;
                    let e = self.pronouns[pid].targets[ti].edge;
                    self.kills.push(e);
                    self.removed += 1;
                }
            }
        }
    }

    /// [`Engine::run`] with memoized contributions.
    ///
    /// Produces the **identical removal sequence** (hence identical kills,
    /// resolutions and confidences): the scan order and the strict-min
    /// first-wins rule are the same, and every value read is the exact
    /// contribution — a cached entry is only reused while all of its
    /// inputs are untouched. A contribution reads (a) its own group's /
    /// pronoun's alive flags and static weights, and (b) the weights of
    /// the relation edges incident to its group or pronoun — which in
    /// turn read the candidate sets of both endpoints. A removal changes
    /// the candidate set of exactly one group (plus the pronouns
    /// targeting it) or one pronoun, so only rel weights in
    /// `rels_touching_group` / `rels_of` can move; everything whose
    /// read-set intersects that edge set is invalidated, the rest of the
    /// cache stays exact. This turns the per-iteration full rescan into
    /// a neighborhood rescan — the asymptotic win that makes the
    /// decomposed resolve path fast on large coupling components.
    ///
    /// Each rescoring is cheaper too, and still exact:
    /// * `pair_memo` is switched on, so every `pair_weight` term of a
    ///   relation edge is computed once per engine and then read back;
    ///   [`Engine::rel_weight`] adds the memoized terms in the order the
    ///   naive loop adds the computed ones.
    /// * A slot refill computes the affected edges and their `before` sum
    ///   once, not once per candidate/target: each contribution restores
    ///   the one alive flag it clears, so `before` reads the same state
    ///   (and gets the same bits) for all of them.
    fn run_lazy(&mut self) {
        self.pair_memo = Some(FxHashMap::default());
        let mut group_cache: Vec<Option<Vec<f64>>> = vec![None; self.groups.len()];
        let mut pron_cache: Vec<Option<Vec<f64>>> = vec![None; self.pronouns.len()];
        loop {
            let mut best: Option<(f64, Removal)> = None;
            for (gid, slot) in group_cache.iter_mut().enumerate() {
                let alive = self.groups[gid].cands.iter().filter(|c| c.alive).count();
                if alive < 2 {
                    continue;
                }
                if slot.is_none() {
                    let affected = self.rels_touching_group(gid);
                    let before = self.rel_sum(&affected);
                    let mut vals = vec![f64::INFINITY; self.groups[gid].cands.len()];
                    for (ci, v) in vals.iter_mut().enumerate() {
                        if self.groups[gid].cands[ci].alive {
                            *v = self.group_removal_contribution(gid, ci, &affected, before);
                        }
                    }
                    *slot = Some(vals);
                }
                let vals: &[f64] = slot.as_deref().expect("cache filled above");
                for (ci, &c) in vals.iter().enumerate() {
                    if !self.groups[gid].cands[ci].alive {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(b, _)| c < *b) {
                        best = Some((c, Removal::GroupCand(gid, ci)));
                    }
                }
            }
            for (pid, slot) in pron_cache.iter_mut().enumerate() {
                let alive = self.pronouns[pid]
                    .targets
                    .iter()
                    .filter(|t| t.alive)
                    .count();
                if alive < 2 {
                    continue;
                }
                if slot.is_none() {
                    let affected = self.rels_of_pronoun(pid);
                    let before = self.rel_sum(&affected);
                    let mut vals = vec![f64::INFINITY; self.pronouns[pid].targets.len()];
                    for (ti, v) in vals.iter_mut().enumerate() {
                        if !self.pronouns[pid].targets[ti].alive {
                            continue;
                        }
                        let mut c = self.pron_removal_contribution(pid, ti, &affected, before);
                        // Same recency tie-break as `run` (static inputs,
                        // safe to cache).
                        let tgroup = self.pronouns[pid].targets[ti].group;
                        if let Some(&m) = self.groups[tgroup].members.first() {
                            let dist = sentence_distance(self.graph, self.pronouns[pid].node, m);
                            c -= 1e-6 * dist as f64;
                        }
                        *v = c;
                    }
                    *slot = Some(vals);
                }
                let vals: &[f64] = slot.as_deref().expect("cache filled above");
                for (ti, &c) in vals.iter().enumerate() {
                    if !self.pronouns[pid].targets[ti].alive {
                        continue;
                    }
                    if best.as_ref().is_none_or(|(b, _)| c < *b) {
                        best = Some((c, Removal::PronTarget(pid, ti)));
                    }
                }
            }
            let Some((_, removal)) = best else {
                break; // all constraints satisfied
            };
            match removal {
                Removal::GroupCand(gid, ci) => {
                    // Rel weights that can move: those reading group
                    // `gid`'s candidate set, directly or through a
                    // pronoun that targets it.
                    let changed = self.rels_touching_group(gid);
                    self.groups[gid].cands[ci].alive = false;
                    let edges = self.groups[gid].cands[ci].edges.clone();
                    for e in edges {
                        self.kills.push(e);
                        self.removed += 1;
                    }
                    self.invalidate(&changed, &mut group_cache, &mut pron_cache);
                    group_cache[gid] = None;
                }
                Removal::PronTarget(pid, ti) => {
                    // Only the pronoun's own candidate set changes, so
                    // only its incident rel weights can move (sorted:
                    // `rels_of` is filled in ascending edge order).
                    let changed = self.rels_of_pronoun(pid);
                    let tgroup = self.pronouns[pid].targets[ti].group;
                    self.pronouns[pid].targets[ti].alive = false;
                    let e = self.pronouns[pid].targets[ti].edge;
                    self.kills.push(e);
                    self.removed += 1;
                    self.invalidate(&changed, &mut group_cache, &mut pron_cache);
                    pron_cache[pid] = None;
                    // The pronoun may no longer target `tgroup`, which
                    // shrinks that group's affected-rel set.
                    group_cache[tgroup] = None;
                }
            }
        }
    }

    /// Drops every cached contribution whose value can read the weight of
    /// a relation edge in `changed` (sorted ascending): groups with an
    /// incident member, pronouns with an incident node — and the groups
    /// those pronouns target, since `rels_touching_group` includes the
    /// rels of targeting pronouns.
    fn invalidate(
        &self,
        changed: &[usize],
        group_cache: &mut [Option<Vec<f64>>],
        pron_cache: &mut [Option<Vec<f64>>],
    ) {
        if changed.is_empty() {
            return;
        }
        let hits = |node: NodeId| {
            self.rels_of
                .get(&node)
                .is_some_and(|v| v.iter().any(|r| changed.binary_search(r).is_ok()))
        };
        for (gid, g) in self.groups.iter().enumerate() {
            if group_cache[gid].is_some() && g.members.iter().any(|&m| hits(m)) {
                group_cache[gid] = None;
            }
        }
        for (pid, p) in self.pronouns.iter().enumerate() {
            if !hits(p.node) {
                continue;
            }
            pron_cache[pid] = None;
            for t in p.targets.iter().filter(|t| t.alive) {
                group_cache[t.group] = None;
            }
        }
    }

    /// Final objective value.
    fn objective(&mut self) -> f64 {
        let means: f64 = self
            .groups
            .iter()
            .flat_map(|g| g.cands.iter())
            .filter(|c| c.alive)
            .map(|c| c.weight)
            .sum();
        let rels: f64 = (0..self.rels.len()).map(|r| self.rel_weight(r)).sum();
        means + rels
    }

    /// Confidence of the chosen candidate for a group (§4): the chosen
    /// edge's contribution normalized over counterfactual alternatives.
    fn group_confidence(&mut self, gid: usize) -> (Option<EntityId>, f64) {
        let alive: Vec<usize> = (0..self.groups[gid].cands.len())
            .filter(|&i| self.groups[gid].cands[i].alive)
            .collect();
        let Some(&chosen) = alive.first() else {
            return (None, 1.0);
        };
        let original: Vec<EntityId> = self.groups[gid].original.clone();
        if original.len() <= 1 {
            return (Some(self.groups[gid].cands[chosen].e), 1.0);
        }
        // c(nᵢ, eᵢₜ, Sₜ): contribution of candidate t when it alone is
        // alive for this group.
        let saved: Vec<bool> = self.groups[gid].cands.iter().map(|c| c.alive).collect();
        let mut contributions = Vec::with_capacity(original.len());
        let mut chosen_contrib = 0.0;
        for ci in 0..self.groups[gid].cands.len() {
            for (i, c) in self.groups[gid].cands.iter_mut().enumerate() {
                c.alive = i == ci;
            }
            let affected = self.rels_touching_group(gid);
            let rel_sum = self.rel_sum(&affected);
            let contrib = self.groups[gid].cands[ci].weight + rel_sum;
            contributions.push(contrib.max(0.0));
            if ci == chosen {
                chosen_contrib = contrib.max(0.0);
            }
        }
        for (c, &a) in self.groups[gid].cands.iter_mut().zip(&saved) {
            c.alive = a;
        }
        let total: f64 = contributions.iter().sum();
        let confidence = if total > 0.0 {
            (chosen_contrib / total).clamp(0.0, 1.0)
        } else {
            1.0 / original.len() as f64
        };
        (Some(self.groups[gid].cands[chosen].e), confidence)
    }

    fn finish(mut self) -> (DensifyOutcome, Vec<GraphEdgeId>) {
        let objective = self.objective();
        let mut resolutions: FxHashMap<NodeId, MentionResolution> = FxHashMap::default();
        let mut group_res: Vec<(Option<EntityId>, f64)> = Vec::with_capacity(self.groups.len());
        for gid in 0..self.groups.len() {
            group_res.push(self.group_confidence(gid));
        }
        for (gid, g) in self.groups.iter().enumerate() {
            let (entity, confidence) = group_res[gid];
            for m in &g.members {
                resolutions.insert(
                    *m,
                    MentionResolution {
                        entity,
                        confidence,
                        antecedent: None,
                    },
                );
            }
        }
        for p in &self.pronouns {
            let chosen = p.targets.iter().find(|t| t.alive);
            let res = match chosen {
                Some(t) => {
                    let (entity, confidence) = group_res[t.group];
                    let antecedent = self.groups[t.group].members.first().copied();
                    MentionResolution {
                        entity,
                        confidence,
                        antecedent,
                    }
                }
                None => MentionResolution::default(),
            };
            resolutions.insert(p.node, res);
        }
        (
            DensifyOutcome {
                resolutions,
                objective,
                removed_edges: self.removed,
            },
            self.kills,
        )
    }
}

enum Removal {
    GroupCand(usize, usize),
    PronTarget(usize, usize),
}

/// Does entity `e` satisfy gender constraint (4) against a pronoun of
/// gender `g`?
fn gender_ok(repo: &EntityRepository, e: EntityId, g: Gender) -> bool {
    match g {
        Gender::Male | Gender::Female => repo.gender(e).matches(g),
        // "it" must not link to persons.
        Gender::Neutral => repo.gender(e) != Gender::Male && repo.gender(e) != Gender::Female,
        Gender::Unknown => true,
    }
}

fn sentence_distance(graph: &SemanticGraph, a: NodeId, b: NodeId) -> usize {
    let s = |n: NodeId| match graph.node(n) {
        NodeKind::NounPhrase { sentence, .. } => *sentence,
        NodeKind::Pronoun { sentence, .. } => *sentence,
        _ => 0,
    };
    s(a).abs_diff(s(b))
}

/// Independent per-mention NED (the *pipeline* architecture's second
/// stage): each mention picks its best candidate by means weight alone; no
/// candidate-set intersection, no joint terms.
pub fn resolve_independent(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
) -> FxHashMap<NodeId, MentionResolution> {
    let mut out = FxHashMap::default();
    for &n in mentions {
        if !matches!(graph.node(n), NodeKind::NounPhrase { .. }) {
            continue;
        }
        let cands = graph.means_of(n);
        if cands.is_empty() {
            out.insert(n, MentionResolution::default());
            continue;
        }
        let mut scored: Vec<(f64, EntityId)> = cands
            .iter()
            .map(|&(_, e)| (model.means_weight(graph, stats, n, e), e))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let total: f64 = scored.iter().map(|(w, _)| w.max(0.0)).sum();
        let confidence = if total > 0.0 {
            (scored[0].0.max(0.0) / total).clamp(0.0, 1.0)
        } else {
            1.0 / scored.len() as f64
        };
        out.insert(
            n,
            MentionResolution {
                entity: Some(scored[0].1),
                confidence,
                antecedent: None,
            },
        );
    }
    out
}

/// Recency-based pronoun resolution (the *pipeline* architecture's third
/// stage): nearest preceding gender-compatible noun phrase.
pub fn resolve_pronouns_by_recency(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    resolutions: &mut FxHashMap<NodeId, MentionResolution>,
    repo: &EntityRepository,
) {
    for &n in mentions {
        let NodeKind::Pronoun { gender, .. } = graph.node(n) else {
            continue;
        };
        let gender = *gender;
        let mut best: Option<(usize, NodeId)> = None; // (distance, target)
        for (_, other) in graph.same_as_of(n) {
            if !matches!(graph.node(other), NodeKind::NounPhrase { .. }) {
                continue;
            }
            // Gender check against the target's resolved entity, if any.
            if let Some(res) = resolutions.get(&other) {
                if let Some(e) = res.entity {
                    if !gender_ok(repo, e, gender) {
                        continue;
                    }
                }
            }
            let d = sentence_distance(graph, n, other);
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, other));
            }
        }
        let res = match best {
            Some((_, t)) => {
                let target_res = resolutions.get(&t).cloned().unwrap_or_default();
                MentionResolution {
                    entity: target_res.entity,
                    confidence: target_res.confidence,
                    antecedent: Some(t),
                }
            }
            None => MentionResolution::default(),
        };
        resolutions.insert(n, res);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildConfig, BuiltGraph};
    use crate::decompose::decompose;
    use qkb_corpus::background::{background_corpus, build_stats};
    use qkb_corpus::docgen::{news_corpus, wiki_corpus};
    use qkb_corpus::world::{World, WorldConfig};
    use qkb_kb::StatsBuilder;
    use qkb_nlp::Pipeline;
    use qkb_openie::ClausIe;

    /// A world with an ambiguous "Liverpool": city vs football club. The
    /// background stats contain a type signature that "play for" takes
    /// clubs, so the joint model should resolve the club reading.
    fn fixture() -> (EntityRepository, BackgroundStats) {
        let mut repo = EntityRepository::new();
        let city_t = repo.type_system().get("CITY").expect("t");
        let club_t = repo.type_system().get("FOOTBALL_CLUB").expect("t");
        let fb_t = repo.type_system().get("FOOTBALLER").expect("t");
        let city = repo.add_entity("Liverpool", &[], Gender::Neutral, vec![city_t]);
        let club = repo.add_entity(
            "Liverpool F.C.",
            &["Liverpool"],
            Gender::Neutral,
            vec![club_t],
        );
        let player = repo.add_entity("Marcus Keller", &["Keller"], Gender::Male, vec![fb_t]);

        let mut b = StatsBuilder::new();
        // Priors: the city is the dominant sense of the bare name.
        for _ in 0..3 {
            b.add_anchor("Liverpool", city);
        }
        b.add_anchor("Liverpool", club);
        b.add_anchor("Marcus Keller", player);
        b.add_anchor("Keller", player);
        // Both senses mention "play" (concert halls vs football) so the
        // context feature alone cannot separate them; only the type
        // signature can — the Table 4 mechanism.
        b.add_entity_article(city, ["port", "city", "play", "river"]);
        b.add_entity_article(club, ["football", "club", "league", "play"]);
        b.add_entity_article(player, ["football", "striker", "play", "goal"]);
        b.add_clause_signature(&[fb_t], &[club_t], "play for");
        b.add_clause_signature(&[fb_t], &[club_t], "play for");
        b.add_clause_signature(&[fb_t], &[club_t], "play for");
        b.add_clause_signature(&[fb_t], &[city_t], "live in");
        (repo, b.finalize())
    }

    fn build(text: &str, repo: &EntityRepository, stats: &BackgroundStats) -> BuiltGraph {
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate(text);
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        build_graph(&doc, &clauses, repo, stats, BuildConfig::default())
    }

    fn run(
        text: &str,
        repo: &EntityRepository,
        stats: &BackgroundStats,
    ) -> (BuiltGraph, DensifyOutcome) {
        let mut built = build(text, repo, stats);
        let model = WeightModel::default();
        let mentions = built.mentions.clone();
        let outcome = densify(&mut built.graph, &mentions, &model, stats, repo);
        (built, outcome)
    }

    #[test]
    fn type_signature_disambiguates_club() {
        let (repo, stats) = fixture();
        let (built, outcome) = run("Marcus Keller plays for Liverpool.", &repo, &stats);
        let liverpool_node = built
            .graph
            .node_ids()
            .find(|&n| {
                matches!(built.graph.node(n), NodeKind::NounPhrase { text, .. } if text == "Liverpool")
            })
            .unwrap_or_else(|| {
                for n in built.graph.node_ids() {
                    eprintln!("node {:?}", built.graph.node(n));
                }
                panic!("mention not found")
            });
        let res = &outcome.resolutions[&liverpool_node];
        let club = repo.candidates("Liverpool F.C.")[0];
        assert_eq!(
            res.entity,
            Some(club),
            "joint model should pick the club (type signature)"
        );
        assert!(res.confidence > 0.3);
    }

    #[test]
    fn prior_wins_without_relation_context() {
        let (repo, stats) = fixture();
        // Bare copular sentence: no play-for signature to exploit, prior
        // should dominate and choose the city.
        let (built, outcome) = run("Liverpool is a large city.", &repo, &stats);
        let node = built
            .graph
            .node_ids()
            .find(|&n| {
                matches!(built.graph.node(n), NodeKind::NounPhrase { text, .. } if text == "Liverpool")
            })
            .expect("mention");
        let res = &outcome.resolutions[&node];
        let city = repo.candidates("Liverpool")[0];
        assert_eq!(res.entity, Some(city));
    }

    #[test]
    fn constraints_hold_after_densify() {
        let (repo, stats) = fixture();
        let (built, _) = run(
            "Marcus Keller plays for Liverpool. He scored against Ashford United. \
             Keller joined Liverpool in 2014.",
            &repo,
            &stats,
        );
        let g = &built.graph;
        for n in g.node_ids() {
            match g.node(n) {
                NodeKind::NounPhrase { .. } => {
                    assert!(
                        g.means_of(n).len() <= 1,
                        "constraint (1): at most one means edge"
                    );
                }
                NodeKind::Pronoun { .. } => {
                    assert!(
                        g.same_as_of(n).len() <= 1,
                        "constraint (2): at most one sameAs edge per pronoun"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn pronoun_resolves_to_gendered_person() {
        let (repo, stats) = fixture();
        let (built, outcome) = run(
            "Marcus Keller plays for Liverpool. He scored twice.",
            &repo,
            &stats,
        );
        let pron = built
            .graph
            .node_ids()
            .find(|&n| matches!(built.graph.node(n), NodeKind::Pronoun { .. }))
            .expect("pronoun");
        let res = &outcome.resolutions[&pron];
        let keller = repo.candidates("Marcus Keller")[0];
        assert_eq!(res.entity, Some(keller));
        assert!(res.antecedent.is_some());
    }

    #[test]
    fn same_as_groups_share_the_entity() {
        let (repo, stats) = fixture();
        let (built, outcome) = run(
            "Marcus Keller plays for Liverpool. Keller scored against Ashford United.",
            &repo,
            &stats,
        );
        let nodes: Vec<NodeId> = built
            .graph
            .node_ids()
            .filter(|&n| {
                matches!(built.graph.node(n), NodeKind::NounPhrase { text, .. } if text.contains("Keller"))
            })
            .collect();
        assert!(nodes.len() >= 2);
        let entities: Vec<Option<EntityId>> = nodes
            .iter()
            .map(|n| outcome.resolutions[n].entity)
            .collect();
        assert!(
            entities.windows(2).all(|w| w[0] == w[1]),
            "constraint (3): sameAs group shares one entity: {entities:?}"
        );
    }

    /// The memoized loop must reproduce the naive loop exactly on
    /// `mentions`: same kills in the same order, same objective, same
    /// resolutions bit for bit.
    fn assert_lazy_matches_naive(
        built: &BuiltGraph,
        mentions: &[NodeId],
        repo: &EntityRepository,
        stats: &BackgroundStats,
        what: &str,
    ) {
        let model = WeightModel::default();
        let (naive, naive_kills) =
            densify_deferred(&built.graph, mentions, &model, stats, repo, false);
        let (lazy, lazy_kills) =
            densify_deferred(&built.graph, mentions, &model, stats, repo, true);
        assert_eq!(lazy_kills, naive_kills, "kill sequence diverged: {what}");
        assert_eq!(lazy.removed_edges, naive.removed_edges, "{what}");
        assert_eq!(
            lazy.objective.to_bits(),
            naive.objective.to_bits(),
            "{what}"
        );
        assert_eq!(lazy.resolutions.len(), naive.resolutions.len(), "{what}");
        for (node, res) in &naive.resolutions {
            let got = &lazy.resolutions[node];
            assert_eq!(got.entity, res.entity, "{what} @ {node:?}");
            assert_eq!(got.antecedent, res.antecedent, "{what} @ {node:?}");
            assert_eq!(
                got.confidence.to_bits(),
                res.confidence.to_bits(),
                "{what} @ {node:?}"
            );
        }
    }

    #[test]
    fn lazy_run_matches_naive_run_exactly() {
        let (repo, stats) = fixture();
        for text in [
            "Marcus Keller plays for Liverpool.",
            "Marcus Keller plays for Liverpool. He scored twice.",
            "Marcus Keller plays for Liverpool. He scored against Ashford United. \
             Keller joined Liverpool in 2014. Liverpool is a large city.",
        ] {
            let built = build(text, &repo, &stats);
            assert_lazy_matches_naive(&built, &built.mentions, &repo, &stats, text);
        }

        // Corpus scale, over the world and stats `tests/parallel.rs`
        // builds: wiki pages joined 8 to a document as `bench_resolve`
        // joins them, then news documents. Each whole document and each
        // of its coupling components is compared.
        let world = World::generate(WorldConfig::default());
        let stats = build_stats(&world, &background_corpus(&world, 10, 5));
        let repo = &world.repo;
        let wiki = wiki_corpus(&world, 20 * 8, 4242);
        let news = news_corpus(&world, 120, 977);
        let docs = wiki
            .docs
            .chunks(8)
            .map(|pages| {
                pages
                    .iter()
                    .map(|d| d.text.as_str())
                    .collect::<Vec<_>>()
                    .join("\n\n")
            })
            .chain(news.docs.iter().map(|d| d.text.clone()));
        let (mut most_means, mut most_targets) = (0, 0);
        for (i, text) in docs.enumerate() {
            let built = build(&text, repo, &stats);
            let g = &built.graph;
            assert_lazy_matches_naive(&built, &built.mentions, repo, &stats, &format!("doc {i}"));
            for (c, comp) in decompose(g, &built.mentions).iter().enumerate() {
                let means: usize = comp.iter().map(|&m| g.means_of(m).len()).sum();
                most_means = most_means.max(means);
                let what = format!("doc {i} component {c}");
                assert_lazy_matches_naive(&built, comp, repo, &stats, &what);
            }
            for &m in &built.mentions {
                if matches!(g.node(m), NodeKind::Pronoun { .. }) {
                    most_targets = most_targets.max(g.same_as_of(m).len());
                }
            }
        }
        // The inputs must keep exercising large components and real
        // antecedent choices.
        assert!(
            most_means >= 100,
            "largest component has {most_means} means edges"
        );
        assert!(most_targets >= 2, "no pronoun has two sameAs targets");
    }

    #[test]
    fn independent_resolution_ignores_context() {
        let (repo, stats) = fixture();
        let built = build("Marcus Keller plays for Liverpool.", &repo, &stats);
        let model = WeightModel {
            use_type_signatures: false,
            ..Default::default()
        };
        let res = resolve_independent(&built.graph, &built.mentions, &model, &stats);
        let node = built
            .graph
            .node_ids()
            .find(|&n| {
                matches!(built.graph.node(n), NodeKind::NounPhrase { text, .. } if text == "Liverpool")
            })
            .expect("mention");
        // Independent NED follows the prior: the city — the documented
        // failure mode of the pipeline variant (Table 4).
        let city = repo.candidates("Liverpool")[0];
        assert_eq!(res[&node].entity, Some(city));
    }
}
