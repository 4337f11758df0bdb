//! The ILP variant of joint NED+CR (Appendix A; the QKBfly-ilp arm of
//! Table 6).
//!
//! The densest-subgraph problem is translated into a 0-1 ILP: a binary
//! variable `cnd_ij` per mention `i` and candidate `j` with
//! `Σ_j cnd_ij = 1`, sameAs-coupled mentions constrained to equal
//! candidate choices, and a product variable `joint-rel_ijtk` per relation
//! edge and candidate pair carrying the pairwise relation weight. The
//! paper solves this with Gurobi; we solve it exactly with the
//! branch-and-bound solver of `qkb-ilp`.

use crate::densify::MentionResolution;
use crate::graph::{NodeId, NodeKind, SemanticGraph};
use crate::weights::WeightModel;
use qkb_ilp::{Ilp, SolveStatus, Solver, VarId};
use qkb_kb::{BackgroundStats, EntityId, EntityRepository, Gender};
use qkb_util::FxHashMap;

/// Result of the ILP resolution.
#[derive(Debug)]
pub struct IlpOutcome {
    /// Per-mention resolutions (same shape as the greedy outcome).
    pub resolutions: FxHashMap<NodeId, MentionResolution>,
    /// Objective value of the solved program.
    pub objective: f64,
    /// True if the solver proved optimality (false under node budget).
    pub optimal: bool,
    /// True if the program had no feasible assignment (every resolution
    /// is then the zeroed default).
    pub infeasible: bool,
    /// Number of ILP variables (the paper's scalability observation:
    /// "a very large number of variables" on long documents).
    pub n_variables: usize,
    /// Branch-and-bound nodes the solver explored.
    pub nodes: u64,
    /// Candidate entities eliminated before the solver by the admissible
    /// domination bound (zero unless pruning was requested).
    pub pruned_candidates: usize,
}

/// Knobs of [`resolve_ilp_subset`]: the cold baseline uses
/// `IlpSolveOptions::default()` (no pruning, no warm start); the
/// decomposed fast path enables both. The solver always runs with its
/// default node budget.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IlpSolveOptions {
    /// Eliminate dominated candidates before building the program.
    pub prune: bool,
    /// Seed the solver with the independent-greedy incumbent.
    pub warm_start: bool,
}

/// Strictness margin of the candidate-domination prune. It must clear
/// the solver's `1e-12` tie tolerance by orders of magnitude: a pruned
/// candidate's best completion is then *strictly* below the optimum, so
/// it can neither be optimal nor tie-break its way into the returned
/// solution.
const PRUNE_EPS: f64 = 1e-6;

/// Solves NED+CR for one document graph via the Appendix-A ILP (the
/// cold, unpruned baseline arm).
pub fn resolve_ilp(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
) -> IlpOutcome {
    resolve_ilp_subset(
        graph,
        mentions,
        model,
        stats,
        repo,
        IlpSolveOptions::default(),
    )
}

/// Solves the Appendix-A ILP restricted to `mentions` (all of them, or
/// one coupling component under decomposition), with optional candidate
/// pruning and greedy warm start.
pub(crate) fn resolve_ilp_subset(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
    opts: IlpSolveOptions,
) -> IlpOutcome {
    let mut ilp = Ilp::new();

    // Full candidate sets per mention, before any pruning: confidence
    // normalization and the pruning bounds must see the complete sets.
    // Pronoun candidate sets are the gender-filtered union over their
    // sameAs targets.
    let mut full_cands: FxHashMap<NodeId, Vec<EntityId>> = FxHashMap::default();
    for &n in mentions {
        let cands: Vec<EntityId> = match graph.node(n) {
            NodeKind::NounPhrase { .. } => graph.means_of(n).iter().map(|&(_, e)| e).collect(),
            NodeKind::Pronoun { gender, .. } => {
                let mut out = Vec::new();
                for (_, t) in graph.same_as_of(n) {
                    for (_, e) in graph.means_of(t) {
                        if gender_ok(repo, e, *gender) && !out.contains(&e) {
                            out.push(e);
                        }
                    }
                }
                out
            }
            _ => continue,
        };
        if cands.is_empty() {
            continue;
        }
        full_cands.insert(n, cands);
    }

    let pruned_of = if opts.prune {
        prune_candidates(graph, mentions, model, stats, repo, &full_cands)
    } else {
        FxHashMap::default()
    };
    let pruned_candidates: usize = pruned_of.values().map(Vec::len).sum();

    // Candidate variables per mention (surviving candidates only).
    let mut cand_vars: FxHashMap<NodeId, Vec<(EntityId, VarId)>> = FxHashMap::default();
    for &n in mentions {
        let Some(cands) = full_cands.get(&n) else {
            continue;
        };
        let dropped = pruned_of.get(&n);
        let vars: Vec<(EntityId, VarId)> = cands
            .iter()
            .copied()
            .filter(|e| dropped.is_none_or(|d| !d.contains(e)))
            .map(|e| {
                let w = match graph.node(n) {
                    NodeKind::NounPhrase { .. } => model.means_weight(graph, stats, n, e),
                    // Pronouns inherit candidates without own means weight.
                    _ => 0.0,
                };
                (e, ilp.add_var(w))
            })
            .collect();
        // Constraint (1)/(2): exactly one candidate per mention.
        let ids: Vec<VarId> = vars.iter().map(|&(_, v)| v).collect();
        ilp.exactly_one(&ids);
        cand_vars.insert(n, vars);
    }

    // Constraint (3): sameAs-linked noun phrases choose equal candidates.
    for &n in mentions {
        if !matches!(graph.node(n), NodeKind::NounPhrase { .. }) {
            continue;
        }
        for (_, other) in graph.same_as_of(n) {
            if other.index() <= n.index() {
                continue; // each pair once
            }
            if !matches!(graph.node(other), NodeKind::NounPhrase { .. }) {
                continue;
            }
            let (Some(va), Some(vb)) = (cand_vars.get(&n), cand_vars.get(&other)) else {
                continue;
            };
            // cnd_ij = cnd_tj for every shared candidate j; candidates on
            // only one side are forbidden (= 0 via equality with nothing).
            for &(e, v) in va {
                match vb.iter().find(|&&(e2, _)| e2 == e) {
                    Some(&(_, v2)) => ilp.equal(v, v2),
                    None => ilp.add_constraint(&[(v, 1.0)], qkb_ilp::ConstraintOp::Eq, 0.0),
                }
            }
            for &(e, v2) in vb {
                if !va.iter().any(|&(e2, _)| e2 == e) {
                    ilp.add_constraint(&[(v2, 1.0)], qkb_ilp::ConstraintOp::Eq, 0.0);
                }
            }
        }
    }

    // Joint-rel product variables per relation edge and candidate pair.
    // The `(y, a, b)` triples are kept so a warm-start incumbent can set
    // every product variable consistently (`y = a ∧ b`).
    let mut joint: Vec<(VarId, VarId, VarId)> = Vec::new();
    for eid in graph.edge_ids() {
        let edge = graph.edge(eid);
        if !edge.alive {
            continue;
        }
        let crate::graph::EdgeKind::Relation { pattern } = &edge.kind else {
            continue;
        };
        let (Some(va), Some(vb)) = (cand_vars.get(&edge.a), cand_vars.get(&edge.b)) else {
            continue;
        };
        // Appendix A introduces a joint-rel variable for *every* candidate
        // pair of a relation edge — including zero-weight ones. This is
        // what blows up the variable count on long documents (Table 6's
        // scalability observation), so we keep the translation faithful
        // (pruning shrinks the candidate sets it ranges over, not the
        // per-pair expansion).
        for &(ea, v1) in va {
            for &(eb, v2) in vb {
                let w = model.pair_weight(stats, repo, ea, eb, pattern);
                let y = ilp.add_var(w);
                ilp.and_constraint(y, v1, v2);
                joint.push((y, v1, v2));
            }
        }
    }

    let n_variables = ilp.n_vars();
    let mut solver = Solver::new();
    if opts.warm_start {
        solver = solver.with_incumbent(greedy_incumbent(&ilp, mentions, &cand_vars, &joint));
    }
    let solution = solver.solve(&ilp);
    let optimal = solution.status == SolveStatus::Optimal;
    let infeasible = solution.status == SolveStatus::Infeasible;

    // Extract resolutions.
    let mut resolutions: FxHashMap<NodeId, MentionResolution> = FxHashMap::default();
    for &n in mentions {
        let res = match cand_vars.get(&n) {
            Some(vars) => {
                let chosen = vars
                    .iter()
                    .find(|&&(_, v)| solution.values.get(v.index()).copied().unwrap_or(false))
                    .map(|&(e, _)| e);
                // Confidence: weight share among candidates (softmax-free
                // normalization, mirroring the greedy confidence notion).
                // Normalized over the FULL candidate set — pruning must
                // not inflate the surviving candidates' confidence.
                let full = &full_cands[&n];
                let weights: Vec<f64> = full
                    .iter()
                    .map(|&e| match graph.node(n) {
                        NodeKind::NounPhrase { .. } => {
                            model.means_weight(graph, stats, n, e).max(0.0)
                        }
                        _ => 1.0,
                    })
                    .collect();
                let total: f64 = weights.iter().sum();
                let confidence = match chosen {
                    Some(e) if total > 0.0 => {
                        let idx = full.iter().position(|&e2| e2 == e).expect("chosen");
                        (weights[idx] / total).clamp(0.0, 1.0)
                    }
                    Some(_) => 1.0 / full.len() as f64,
                    None => 0.0,
                };
                let antecedent = match graph.node(n) {
                    NodeKind::Pronoun { .. } => chosen.and_then(|e| {
                        graph
                            .same_as_of(n)
                            .into_iter()
                            .map(|(_, t)| t)
                            .find(|&t| graph.means_of(t).iter().any(|&(_, e2)| e2 == e))
                    }),
                    _ => None,
                };
                MentionResolution {
                    entity: chosen,
                    confidence,
                    antecedent,
                }
            }
            None => MentionResolution::default(),
        };
        resolutions.insert(n, res);
    }

    IlpOutcome {
        resolutions,
        objective: solution.objective.max(0.0),
        optimal,
        infeasible,
        n_variables,
        nodes: solution.nodes,
        pruned_candidates,
    }
}

/// The independent-greedy incumbent for a built program: every mention
/// takes its best means-weight candidate (`resolve_independent`'s
/// choice; pronoun weights are all zero so the first candidate stands
/// in), and every joint-rel product variable is set to the conjunction
/// of its factors. SameAs-coupled mentions whose independent choices
/// disagree make the assignment infeasible — the solver then discards
/// the incumbent, which is always sound.
fn greedy_incumbent(
    ilp: &Ilp,
    mentions: &[NodeId],
    cand_vars: &FxHashMap<NodeId, Vec<(EntityId, VarId)>>,
    joint: &[(VarId, VarId, VarId)],
) -> Vec<bool> {
    let mut values = vec![false; ilp.n_vars()];
    let obj = ilp.objective();
    for &n in mentions {
        let Some(vars) = cand_vars.get(&n) else {
            continue;
        };
        // First-wins argmax over the variables' own objective
        // coefficients (the means weights), matching
        // `resolve_independent`'s stable descending sort.
        let mut best: Option<(f64, VarId)> = None;
        for &(_, v) in vars {
            let w = obj[v.index()];
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, v));
            }
        }
        if let Some((_, v)) = best {
            values[v.index()] = true;
        }
    }
    for &(y, a, b) in joint {
        values[y.index()] = values[a.index()] && values[b.index()];
    }
    values
}

/// Admissible candidate pruning over sameAs groups.
///
/// Noun phrases are grouped into connected components of the NP–NP
/// sameAs graph (restricted to mentions with candidates). The equality
/// constraints force every member of a connected group to one shared
/// choice, and propagate a zero along any path through a member lacking
/// a candidate — so a candidate outside the intersection of the
/// members' sets can never be chosen and is dropped outright (the
/// program stays infeasible in exactly the same cases: an emptied
/// candidate list makes `exactly_one` unsatisfiable just as the
/// forced-zero variables did).
///
/// Within the intersection, candidate `j` is eliminated when some `j'`
/// satisfies
///
/// ```text
/// Σ_m means(m, j') > Σ_m means(m, j) + Σ_m Σ_e max_k pair_weight(j, k) + ε
/// ```
///
/// summed over the group members `m` and the relation edges `e`
/// incident to each, with `k` ranging over the partner's **full**
/// candidate set. The right-hand side upper-bounds the total objective
/// any assignment can attribute to the group choosing `j` (all weights
/// are nonnegative: priors, context similarity, coherence and type
/// signatures are frequencies/overlaps, and the α-coefficients are
/// nonnegative — pruning is skipped entirely otherwise). Swapping the
/// whole group from `j` to `j'` keeps every other mention's choice
/// feasible (no equality constraint leaves the group, and pronouns
/// carry no equality constraints at all), so any assignment through `j`
/// is strictly beaten and `j` is never in the optimal support. A
/// singleton group degenerates to the per-mention bound. Pronouns are
/// never pruned (their candidate weights are all zero).
fn prune_candidates(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
    full_cands: &FxHashMap<NodeId, Vec<EntityId>>,
) -> FxHashMap<NodeId, Vec<EntityId>> {
    if model.alphas.iter().any(|&a| a < 0.0) {
        return FxHashMap::default();
    }
    // Live relation edges incident to each mention, with the partner and
    // orientation (pair_weight's type-signature term is directional).
    let mut rels_of: FxHashMap<NodeId, Vec<(NodeId, bool, String)>> = FxHashMap::default();
    for eid in graph.edge_ids() {
        let edge = graph.edge(eid);
        if !edge.alive {
            continue;
        }
        let crate::graph::EdgeKind::Relation { pattern } = &edge.kind else {
            continue;
        };
        if !full_cands.contains_key(&edge.a) || !full_cands.contains_key(&edge.b) {
            continue;
        }
        rels_of
            .entry(edge.a)
            .or_default()
            .push((edge.b, true, pattern.clone()));
        rels_of
            .entry(edge.b)
            .or_default()
            .push((edge.a, false, pattern.clone()));
    }

    // --- sameAs groups over noun phrases with candidates. ---
    let nps: Vec<NodeId> = mentions
        .iter()
        .copied()
        .filter(|&n| {
            matches!(graph.node(n), NodeKind::NounPhrase { .. }) && full_cands.contains_key(&n)
        })
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
    for &n in &nps {
        for (_, other) in graph.same_as_of(n) {
            if !parent.contains_key(&other) {
                continue;
            }
            let (ra, rb) = (find(&mut parent, n), find(&mut parent, other));
            if ra != rb {
                parent.insert(ra, rb);
            }
        }
    }
    let mut groups: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for &n in &nps {
        let root = find(&mut parent, n);
        groups.entry(root).or_default().push(n);
    }

    let mut pruned: FxHashMap<NodeId, Vec<EntityId>> = FxHashMap::default();
    for members in groups.values() {
        // Group-viable candidates: the intersection of the members' sets,
        // in the first member's candidate order (members are in `mentions`
        // order via the `nps` scan).
        let first = &full_cands[&members[0]];
        let viable: Vec<EntityId> = first
            .iter()
            .copied()
            .filter(|e| members[1..].iter().all(|m| full_cands[m].contains(e)))
            .collect();
        // Summed means weight and coupling upper bound per viable candidate.
        let means: Vec<f64> = viable
            .iter()
            .map(|&e| {
                members
                    .iter()
                    .map(|&m| model.means_weight(graph, stats, m, e))
                    .sum()
            })
            .collect();
        let best = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut group_dropped: Vec<EntityId> = Vec::new();
        for (ci, &e) in viable.iter().enumerate() {
            if viable.len() < 2 || means[ci] >= best {
                continue; // the argmax always survives
            }
            // Upper bound on the joint-rel mass the group choosing `e`
            // could contribute across every incident relation edge.
            let coupling: f64 = members
                .iter()
                .filter_map(|m| rels_of.get(m))
                .flatten()
                .map(|(partner, forward, pattern)| {
                    full_cands[partner]
                        .iter()
                        .map(|&k| {
                            if *forward {
                                model.pair_weight(stats, repo, e, k, pattern)
                            } else {
                                model.pair_weight(stats, repo, k, e, pattern)
                            }
                        })
                        .fold(0.0f64, f64::max)
                })
                .sum();
            if best > means[ci] + coupling + PRUNE_EPS {
                group_dropped.push(e);
            }
        }
        // Per-member drop list: dominated group candidates plus everything
        // outside the intersection (equality-forced zeros).
        for &m in members {
            let dropped: Vec<EntityId> = full_cands[&m]
                .iter()
                .copied()
                .filter(|e| !viable.contains(e) || group_dropped.contains(e))
                .collect();
            if !dropped.is_empty() {
                pruned.insert(m, dropped);
            }
        }
    }
    pruned
}

fn gender_ok(repo: &EntityRepository, e: EntityId, g: Gender) -> bool {
    match g {
        Gender::Male | Gender::Female => repo.gender(e).matches(g),
        Gender::Neutral => repo.gender(e) != Gender::Male && repo.gender(e) != Gender::Female,
        Gender::Unknown => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildConfig};
    use qkb_kb::StatsBuilder;
    use qkb_nlp::Pipeline;
    use qkb_openie::ClausIe;

    fn fixture() -> (EntityRepository, qkb_kb::BackgroundStats) {
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
        for _ in 0..3 {
            b.add_anchor("Liverpool", city);
        }
        b.add_anchor("Liverpool", club);
        b.add_anchor("Marcus Keller", player);
        b.add_entity_article(city, ["port", "city", "play", "river"]);
        b.add_entity_article(club, ["football", "club", "league", "play"]);
        b.add_entity_article(player, ["football", "striker", "play", "goal"]);
        for _ in 0..3 {
            b.add_clause_signature(&[fb_t], &[club_t], "play for");
        }
        (repo, b.finalize())
    }

    #[test]
    fn ilp_resolves_like_the_greedy_on_clear_cases() {
        let (repo, stats) = fixture();
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate("Marcus Keller plays for Liverpool.");
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        let built = build_graph(&doc, &clauses, &repo, &stats, BuildConfig::default());
        let model = WeightModel::default();
        let outcome = resolve_ilp(&built.graph, &built.mentions, &model, &stats, &repo);
        assert!(outcome.optimal);
        assert!(outcome.n_variables > 0);
        let liverpool = built
            .graph
            .node_ids()
            .find(|&n| {
                matches!(built.graph.node(n), NodeKind::NounPhrase { text, .. } if text == "Liverpool")
            })
            .expect("mention");
        let club = repo.candidates("Liverpool F.C.")[0];
        assert_eq!(outcome.resolutions[&liverpool].entity, Some(club));
    }

    #[test]
    fn ilp_objective_at_least_greedy() {
        let (repo, stats) = fixture();
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate(
            "Marcus Keller plays for Liverpool. He scored against Ashford United. \
             Keller joined Liverpool in 2014.",
        );
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        let model = WeightModel::default();

        let mut built = build_graph(&doc, &clauses, &repo, &stats, BuildConfig::default());
        let ilp_out = resolve_ilp(&built.graph, &built.mentions, &model, &stats, &repo);

        let mentions = built.mentions.clone();
        let greedy_out =
            crate::densify::densify(&mut built.graph, &mentions, &model, &stats, &repo);
        // The exact solver's objective must not be beaten by the greedy
        // heuristic (they optimize the same W(S) up to the pruned-candidate
        // means terms, which are included in both).
        assert!(
            ilp_out.objective + 1e-9 >= greedy_out.objective * 0.99,
            "ilp {} vs greedy {}",
            ilp_out.objective,
            greedy_out.objective
        );
    }

    #[test]
    fn pronoun_gender_constraint_respected() {
        let (repo, stats) = fixture();
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate("Marcus Keller plays for Liverpool. He scored twice.");
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        let built = build_graph(&doc, &clauses, &repo, &stats, BuildConfig::default());
        let model = WeightModel::default();
        let outcome = resolve_ilp(&built.graph, &built.mentions, &model, &stats, &repo);
        let pron = built
            .graph
            .node_ids()
            .find(|&n| matches!(built.graph.node(n), NodeKind::Pronoun { .. }))
            .expect("pronoun");
        let keller = repo.candidates("Marcus Keller")[0];
        assert_eq!(outcome.resolutions[&pron].entity, Some(keller));
    }
}
