//! Component decomposition of the per-document resolve problem.
//!
//! Both the greedy densest-subgraph objective (§4) and the Appendix-A
//! ILP only couple mentions through live `sameAs` and relation edges:
//! the means terms are per-mention, sameAs conflicts/equalities bind the
//! two endpoints, and joint-rel products bind the two endpoints of a
//! relation edge. Mentions in different connected components of that
//! coupling graph therefore contribute *independent* summands to `W(S)`,
//! and the optimum (greedy trajectory, respectively) of the whole
//! problem is the union of the per-component optima (trajectories):
//!
//! * **Greedy**: `densify`'s removal loop always removes a
//!   minimum-contribution candidate, and a candidate's contribution only
//!   reads state inside its own component — so the subsequence of
//!   removals touching one component is exactly the removal sequence of
//!   running that component alone, and the surviving subgraph (hence
//!   every resolution and confidence) is identical.
//! * **ILP**: the feasible set is the product of the per-component
//!   feasible sets and the objective is separable, so the per-component
//!   optima compose into a global optimum; the branch-and-bound's
//!   deterministic tie-break (first improving leaf in stable branch
//!   order) picks the same assignment per component either way.
//!
//! Components are enumerated in order of their first member's position
//! in `mentions`, and members keep their `mentions` order. They are
//! solved in that order on the calling thread, and the recombined
//! output is byte-for-byte what the monolithic solve produces. A
//! component solves in tens of microseconds, so fanning the solves out
//! over threads would cost more than it saves.

use crate::densify::{densify_deferred, DensifyOutcome, MentionResolution};
use crate::graph::{EdgeKind, NodeId, SemanticGraph};
use crate::ilp::{resolve_ilp_subset, IlpOutcome, IlpSolveOptions};
use crate::weights::WeightModel;
use qkb_kb::{BackgroundStats, EntityRepository};
use qkb_obs::Recorder;
use qkb_util::FxHashMap;

/// Splits `mentions` into the connected components of the coupling
/// graph (live `sameAs` + relation edges with both endpoints in
/// `mentions`). Components are ordered by first appearance in
/// `mentions`; each component lists its members in `mentions` order.
pub fn decompose(graph: &SemanticGraph, mentions: &[NodeId]) -> Vec<Vec<NodeId>> {
    let index_of: FxHashMap<NodeId, usize> =
        mentions.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut parent: Vec<usize> = (0..mentions.len()).collect();

    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]]; // path halving
            i = parent[i];
        }
        i
    }

    for eid in graph.edge_ids() {
        let edge = graph.edge(eid);
        if !edge.alive || !matches!(edge.kind, EdgeKind::SameAs | EdgeKind::Relation { .. }) {
            continue;
        }
        let (Some(&a), Some(&b)) = (index_of.get(&edge.a), index_of.get(&edge.b)) else {
            continue;
        };
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            // Union by smaller index keeps roots stable w.r.t. mention
            // order, though the grouping below is order-insensitive.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    }

    let mut comp_of_root: FxHashMap<usize, usize> = FxHashMap::default();
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for (i, &m) in mentions.iter().enumerate() {
        let root = find(&mut parent, i);
        let c = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[c].push(m);
    }
    components
}

/// Greedy densification, component-decomposed. Every per-component
/// solve uses the lazy (memoized-contribution) greedy loop —
/// byte-identical to the naive loop, see `densify_deferred`. Every
/// component solves against the unmodified graph; the edge kills are
/// buffered per component and applied in component order after the
/// last solve. Returns the combined outcome and the component count.
pub fn densify_decomposed(
    graph: &mut SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
    recorder: &Recorder,
) -> (DensifyOutcome, usize) {
    let components = decompose(graph, mentions);
    if components.len() <= 1 {
        let n = components.len();
        let mut span = recorder.span("resolve_component");
        span.field("component", 0usize);
        span.field("mentions", mentions.len());
        let (outcome, kills) = densify_deferred(graph, mentions, model, stats, repo, true);
        drop(span);
        for e in kills {
            graph.kill_edge(e);
        }
        return (outcome, n);
    }
    let results: Vec<_> = components
        .iter()
        .enumerate()
        .map(|(i, comp)| {
            let mut span = recorder.span("resolve_component");
            span.field("component", i);
            span.field("mentions", comp.len());
            densify_deferred(graph, comp, model, stats, repo, true)
        })
        .collect();
    let n = components.len();
    let mut outcome = DensifyOutcome::default();
    for (part, kills) in results {
        outcome.objective += part.objective;
        outcome.removed_edges += part.removed_edges;
        outcome.resolutions.extend(part.resolutions);
        for e in kills {
            graph.kill_edge(e);
        }
    }
    (outcome, n)
}

/// ILP resolution, component-decomposed. Mirrors the monolithic solve
/// exactly: if **any** component is infeasible the whole document
/// reports infeasible with every mention zeroed, matching what the
/// single big program would return. Variable/node/pruning counters are
/// summed across components.
pub(crate) fn resolve_ilp_decomposed(
    graph: &SemanticGraph,
    mentions: &[NodeId],
    model: &WeightModel,
    stats: &BackgroundStats,
    repo: &EntityRepository,
    opts: IlpSolveOptions,
    recorder: &Recorder,
) -> (IlpOutcome, usize) {
    let components = decompose(graph, mentions);
    if components.len() <= 1 {
        let n = components.len();
        let mut span = recorder.span("resolve_component");
        span.field("component", 0usize);
        span.field("mentions", mentions.len());
        let out = resolve_ilp_subset(graph, mentions, model, stats, repo, opts);
        return (out, n);
    }
    let parts: Vec<IlpOutcome> = components
        .iter()
        .enumerate()
        .map(|(i, comp)| {
            let mut span = recorder.span("resolve_component");
            span.field("component", i);
            span.field("mentions", comp.len());
            resolve_ilp_subset(graph, comp, model, stats, repo, opts)
        })
        .collect();
    let n = components.len();
    let infeasible = parts.iter().any(|p| p.infeasible);
    let mut out = IlpOutcome {
        resolutions: FxHashMap::default(),
        objective: 0.0,
        optimal: !infeasible,
        infeasible,
        n_variables: 0,
        nodes: 0,
        pruned_candidates: 0,
    };
    for part in parts {
        out.n_variables += part.n_variables;
        out.nodes += part.nodes;
        out.pruned_candidates += part.pruned_candidates;
        if !infeasible {
            out.objective += part.objective;
            out.optimal &= part.optimal;
            out.resolutions.extend(part.resolutions);
        }
    }
    if infeasible {
        for &m in mentions {
            out.resolutions.insert(m, MentionResolution::default());
        }
    }
    (out, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildConfig};
    use crate::densify::densify;
    use crate::ilp::resolve_ilp;
    use qkb_kb::{Gender, StatsBuilder};
    use qkb_nlp::Pipeline;
    use qkb_openie::ClausIe;

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
        repo.add_entity(
            "Ashford United",
            &["Ashford"],
            Gender::Neutral,
            vec![club_t],
        );
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

    fn built(
        repo: &EntityRepository,
        stats: &BackgroundStats,
        text: &str,
    ) -> crate::build::BuiltGraph {
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate(text);
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        build_graph(&doc, &clauses, repo, stats, BuildConfig::default())
    }

    #[test]
    fn components_partition_the_mentions() {
        let (repo, stats) = fixture();
        let b = built(
            &repo,
            &stats,
            "Marcus Keller plays for Liverpool. Ashford United lost again.",
        );
        let components = decompose(&b.graph, &b.mentions);
        let flat: Vec<NodeId> = components.iter().flatten().copied().collect();
        // The concatenation in component order is a permutation of the
        // mentions; each member keeps its relative order.
        assert_eq!(flat.len(), b.mentions.len());
        for comp in &components {
            let mut last = None;
            for n in comp {
                let pos = b.mentions.iter().position(|m| m == n).expect("member");
                assert!(last.is_none_or(|p| p < pos));
                last = Some(pos);
            }
        }
    }

    #[test]
    fn unrelated_sentences_split_into_multiple_components() {
        let (repo, stats) = fixture();
        let b = built(
            &repo,
            &stats,
            "Marcus Keller plays for Liverpool. Ashford United lost again.",
        );
        let components = decompose(&b.graph, &b.mentions);
        assert!(
            components.len() > 1,
            "expected ≥2 components, got {}",
            components.len()
        );
    }

    #[test]
    fn decomposed_densify_matches_monolithic() {
        let (repo, stats) = fixture();
        let model = WeightModel::default();
        let text = "Marcus Keller plays for Liverpool. He scored against Ashford United. \
                    Ashford United lost again. Keller joined Liverpool in 2014.";
        let mut mono = built(&repo, &stats, text);
        let mentions = mono.mentions.clone();
        let base = densify(&mut mono.graph, &mentions, &model, &stats, &repo);

        let mut dec = built(&repo, &stats, text);
        let mentions = dec.mentions.clone();
        let (out, n) = densify_decomposed(
            &mut dec.graph,
            &mentions,
            &model,
            &stats,
            &repo,
            &Recorder::disabled(),
        );
        assert!(n >= 1);
        assert_eq!(out.resolutions.len(), base.resolutions.len());
        for (node, res) in &base.resolutions {
            let got = &out.resolutions[node];
            assert_eq!(got.entity, res.entity, "entity @ {node:?}");
            assert_eq!(got.antecedent, res.antecedent);
            assert_eq!(got.confidence.to_bits(), res.confidence.to_bits());
        }
    }

    #[test]
    fn decomposed_ilp_matches_monolithic() {
        let (repo, stats) = fixture();
        let model = WeightModel::default();
        let text = "Marcus Keller plays for Liverpool. Ashford United lost again.";
        let mono = built(&repo, &stats, text);
        let base = resolve_ilp(&mono.graph, &mono.mentions, &model, &stats, &repo);
        let opts = IlpSolveOptions {
            prune: true,
            warm_start: true,
        };
        let (out, n) = resolve_ilp_decomposed(
            &mono.graph,
            &mono.mentions,
            &model,
            &stats,
            &repo,
            opts,
            &Recorder::disabled(),
        );
        assert!(n > 1);
        assert_eq!(out.resolutions.len(), base.resolutions.len());
        for (node, res) in &base.resolutions {
            let got = &out.resolutions[node];
            assert_eq!(got.entity, res.entity, "entity @ {node:?}");
            assert_eq!(got.antecedent, res.antecedent);
            assert_eq!(got.confidence.to_bits(), res.confidence.to_bits());
        }
        assert!(out.optimal);
        assert!(out.n_variables <= base.n_variables);
    }

    #[test]
    fn pruned_candidate_never_in_unpruned_optimum() {
        // Exhaustive admissibility check on real small documents: every
        // candidate dropped by the pruning bound must be absent from the
        // support of the exact unpruned optimum.
        let (repo, stats) = fixture();
        let model = WeightModel::default();
        for text in [
            "Marcus Keller plays for Liverpool.",
            "Marcus Keller plays for Liverpool. Ashford United lost again.",
            "Keller joined Liverpool in 2014. He scored twice.",
        ] {
            let b = built(&repo, &stats, text);
            let base = resolve_ilp(&b.graph, &b.mentions, &model, &stats, &repo);
            let pruned = resolve_ilp_subset(
                &b.graph,
                &b.mentions,
                &model,
                &stats,
                &repo,
                IlpSolveOptions {
                    prune: true,
                    warm_start: false,
                },
            );
            // Identical supports (and confidences) with and without
            // pruning — pruning only removes non-optimal candidates.
            for (node, res) in &base.resolutions {
                let got = &pruned.resolutions[node];
                assert_eq!(got.entity, res.entity, "support changed @ {node:?}");
                assert_eq!(got.confidence.to_bits(), res.confidence.to_bits());
            }
        }
    }
}
