//! Stage 3: on-the-fly KB canonicalization (§5).
//!
//! After densification, mention clusters (connected components over the
//! surviving `sameAs` edges) become KB entities: linked when the cluster
//! carries a confident entity link, emerging when it is a group of
//! out-of-repository names, literal otherwise. Relation patterns are merged
//! through the paraphrase synsets of the pattern repository; new patterns
//! become new relations. Clause structure yields higher-arity facts:
//! mention nodes attached to the same clause node via `depends` edges merge
//! into a single n-ary fact. Fact confidence is the minimum confidence of
//! its disambiguated entity arguments, thresholded at τ.

use crate::build::BuiltGraph;
use crate::densify::DensifyOutcome;
use crate::graph::{NodeId, NodeKind};
use qkb_kb::{
    EntityRepository, Fact, FactArg, KbEntityId, OnTheFlyKb, PatternRepository, Provenance,
    RelationRef,
};

use qkb_openie::Extraction;
use qkb_util::FxHashMap;

/// Canonicalization parameters.
#[derive(Clone, Copy, Debug)]
pub struct CanonConfig {
    /// Confidence threshold τ for keeping facts (§4 uses 0.5; §7.3 uses
    /// 0.9 for the high-precision IE regime).
    pub tau: f64,
    /// Links below this confidence are demoted to emerging entities (§5:
    /// "groups ... linked with very low confidence scores" become new
    /// entities).
    pub low_link: f64,
    /// Emit higher-arity facts (false for the QKBfly-triples QA variant).
    pub emit_nary: bool,
}

impl Default for CanonConfig {
    fn default() -> Self {
        Self {
            tau: 0.5,
            low_link: 0.2,
            emit_nary: true,
        }
    }
}

/// Per-document canonicalization output (assessment-oriented views).
#[derive(Debug, Default)]
pub struct DocCanonOutput {
    /// Surface extractions with confidences (for Table 3-style assessment;
    /// `kept` reflects the τ filter; the id list holds the resolved
    /// repository entity per slot — subject first — for link-aware
    /// assessment).
    pub extractions: Vec<(Extraction, bool, Vec<Option<qkb_kb::EntityId>>)>,
    /// Entity links chosen for noun-phrase mentions: `(sentence, phrase,
    /// entity, confidence)` (for Table 4-style assessment).
    pub links: Vec<(usize, String, qkb_kb::EntityId, f64)>,
}

/// The deterministic cluster layout of one densified document: union-find
/// roots over the surviving `sameAs` edges, with clusters listed in
/// first-member-appearance order (over `built.mentions`) — the order the
/// apply step walks them in.
struct ClusterPlan {
    /// Resolved union-find root per mention node.
    root_of: FxHashMap<NodeId, NodeId>,
    /// Clusters in first-appearance order.
    clusters: Vec<Cluster>,
}

/// One mention cluster of a [`ClusterPlan`].
struct Cluster {
    /// The cluster's union-find root.
    root: NodeId,
    /// Member mention nodes, in `built.mentions` order.
    members: Vec<NodeId>,
}

/// What canonicalization decided for one mention cluster — everything the
/// KB-state-dependent apply step needs, computed without touching the KB.
enum ClusterDecision {
    /// A standalone time mention.
    Time(String),
    /// Linked to the entity repository with the given confidence; the
    /// member texts become KB mentions and `links` are the per-NP link
    /// records `(sentence, phrase, confidence)` for NED assessment.
    Linked {
        /// The resolved repository entity.
        entity: qkb_kb::EntityId,
        /// Its repository-canonical display name (resolved at decide
        /// time, so the apply step needs no repository access).
        name: String,
        /// Link confidence (the group resolution's).
        confidence: f64,
        /// Noun-phrase member texts, in member order.
        texts: Vec<String>,
        /// Link records for every NP member.
        links: Vec<(usize, String, f64)>,
    },
    /// An emerging entity: a cluster of new proper names (§5).
    Emerging {
        /// Noun-phrase member texts, in member order.
        texts: Vec<String>,
    },
    /// An unlinked, improper cluster kept as a literal argument.
    Literal(String),
}

/// Computes the cluster layout of one document (union-find over surviving
/// `sameAs` edges). Pure in the stage-1 artifact; cheap relative to
/// deciding and applying.
fn plan_clusters(built: &BuiltGraph) -> ClusterPlan {
    let g = &built.graph;
    let mut parent: FxHashMap<NodeId, NodeId> = built.mentions.iter().map(|&n| (n, n)).collect();
    fn find(parent: &mut FxHashMap<NodeId, NodeId>, mut x: NodeId) -> NodeId {
        while parent[&x] != x {
            let p = parent[&x];
            let gp = parent[&p];
            parent.insert(x, gp);
            x = gp;
        }
        x
    }
    for &n in &built.mentions {
        for (_, other) in g.same_as_of(n) {
            if parent.contains_key(&other) {
                let (ra, rb) = (find(&mut parent, n), find(&mut parent, other));
                if ra != rb {
                    parent.insert(ra, rb);
                }
            }
        }
    }
    let mut root_of: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    let mut cluster_of_root: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut clusters: Vec<Cluster> = Vec::new();
    for &n in &built.mentions {
        let root = find(&mut parent, n);
        root_of.insert(n, root);
        let idx = *cluster_of_root.entry(root).or_insert_with(|| {
            clusters.push(Cluster {
                root,
                members: Vec::new(),
            });
            clusters.len() - 1
        });
        clusters[idx].members.push(n);
    }
    ClusterPlan { root_of, clusters }
}

/// Decides one cluster: linked, emerging, literal or time. A pure
/// function of the stage-1 artifact and the shared repositories — never
/// reads or writes the KB.
fn decide_cluster(
    built: &BuiltGraph,
    outcome: &DensifyOutcome,
    repo: &EntityRepository,
    config: CanonConfig,
    cluster: &Cluster,
) -> ClusterDecision {
    let g = &built.graph;
    let nodes = &cluster.members;
    // Time mentions stand alone.
    if let Some(&t) = nodes
        .iter()
        .find(|&&n| matches!(g.node(n), NodeKind::NounPhrase { is_time: true, .. }))
    {
        if let NodeKind::NounPhrase {
            time_value: Some(v),
            ..
        } = g.node(t)
        {
            return ClusterDecision::Time(v.clone());
        }
    }
    // Resolution: any member carries the group resolution.
    let res = nodes
        .iter()
        .filter_map(|n| outcome.resolutions.get(n))
        .find(|r| r.entity.is_some());
    let texts: Vec<String> = nodes
        .iter()
        .filter_map(|&n| match g.node(n) {
            NodeKind::NounPhrase { text, .. } => Some(text.clone()),
            _ => None,
        })
        .collect();
    let any_proper = nodes
        .iter()
        .any(|&n| matches!(g.node(n), NodeKind::NounPhrase { proper: true, .. }));
    // §5: clusters that link only with very low confidence — or whose
    // fullest name contradicts the linked entity's alias dictionary —
    // are treated as *new* (emerging) entities.
    let link_contradicted = |e: qkb_kb::EntityId| -> bool {
        let aliases = &repo.entity(e).aliases;
        texts
            .iter()
            .filter(|t| t.split_whitespace().count() >= 2)
            .any(|t| {
                !aliases.iter().any(|a| {
                    let (na, nt) = (qkb_util::text::normalize(a), qkb_util::text::normalize(t));
                    na == nt
                        || qkb_util::text::is_token_suffix(&nt, &na)
                        || qkb_util::text::is_token_suffix(&na, &nt)
                })
            })
    };
    match res {
        Some(r)
            if r.confidence >= config.low_link
                && !link_contradicted(r.entity.expect("checked")) =>
        {
            let e = r.entity.expect("checked");
            let mut links = Vec::new();
            for &n in nodes {
                if let NodeKind::NounPhrase { sentence, text, .. } = g.node(n) {
                    links.push((*sentence, text.clone(), r.confidence));
                }
            }
            ClusterDecision::Linked {
                entity: e,
                name: repo.entity(e).canonical.clone(),
                confidence: r.confidence,
                texts,
                links,
            }
        }
        _ if any_proper && !texts.is_empty() => ClusterDecision::Emerging { texts },
        _ => {
            let text = texts
                .first()
                .cloned()
                .or_else(|| {
                    nodes.iter().find_map(|&n| match g.node(n) {
                        NodeKind::Pronoun { text, .. } => Some(text.clone()),
                        _ => None,
                    })
                })
                .unwrap_or_default();
            ClusterDecision::Literal(text)
        }
    }
}

/// Canonicalizes one densified document graph into the shared KB: plan
/// the clusters, decide every cluster in order, apply. Must be called in
/// document order for deterministic KB identifiers.
pub fn canonicalize_into(
    kb: &mut OnTheFlyKb,
    built: &BuiltGraph,
    outcome: &DensifyOutcome,
    repo: &EntityRepository,
    patterns: &PatternRepository,
    config: CanonConfig,
    doc_idx: u32,
) -> DocCanonOutput {
    let plan = plan_clusters(built);
    let decisions: Vec<ClusterDecision> = plan
        .clusters
        .iter()
        .map(|c| decide_cluster(built, outcome, repo, config, c))
        .collect();
    apply_decisions(kb, built, &plan, &decisions, patterns, config, doc_idx)
}

/// The KB-state-dependent half of canonicalization: allocates KB entity
/// ids and emits facts by walking the plan's clusters **in plan order**
/// with their decisions.
fn apply_decisions(
    kb: &mut OnTheFlyKb,
    built: &BuiltGraph,
    plan: &ClusterPlan,
    decisions: &[ClusterDecision],
    patterns: &PatternRepository,
    config: CanonConfig,
    doc_idx: u32,
) -> DocCanonOutput {
    let g = &built.graph;
    let mut out = DocCanonOutput::default();

    // --- cluster -> KB entity / literal ---
    #[derive(Clone)]
    enum Slot {
        Entity(KbEntityId, f64),
        Literal(String),
        Time(String),
    }
    let mut cluster_slot: FxHashMap<NodeId, Slot> = FxHashMap::default();
    for (cluster, decision) in plan.clusters.iter().zip(decisions) {
        match decision {
            ClusterDecision::Time(v) => {
                cluster_slot.insert(cluster.root, Slot::Time(v.clone()));
            }
            ClusterDecision::Linked {
                entity,
                name,
                confidence,
                texts,
                links,
            } => {
                let kb_id = kb.add_linked(*entity, name);
                for t in texts {
                    kb.add_mention(kb_id, t);
                }
                cluster_slot.insert(cluster.root, Slot::Entity(kb_id, *confidence));
                for (sentence, text, confidence) in links {
                    out.links
                        .push((*sentence, text.clone(), *entity, *confidence));
                }
            }
            ClusterDecision::Emerging { texts } => {
                let kb_id = kb.add_emerging(texts);
                cluster_slot.insert(cluster.root, Slot::Entity(kb_id, 1.0));
            }
            ClusterDecision::Literal(text) => {
                cluster_slot.insert(cluster.root, Slot::Literal(text.clone()));
            }
        }
    }

    // Pronoun slots follow their antecedent's cluster; unresolved pronouns
    // stay literal (Figure 4's "she forget the lyric").
    let slot_of = |node: NodeId| -> Slot {
        plan.root_of
            .get(&node)
            .and_then(|root| cluster_slot.get(root))
            .cloned()
            .unwrap_or_else(|| Slot::Literal(mention_text(g, node)))
    };

    // Canonicalized display surface of a slot: the *resolved* entity name
    // (what the on-the-fly KB exposes, and what Table 3's assessors judge),
    // not the raw mention string.
    let surface_of = |slot: &Slot, kb: &OnTheFlyKb| -> String {
        match slot {
            Slot::Entity(id, _) => kb.entity(*id).name.clone(),
            Slot::Literal(t) => t.clone(),
            Slot::Time(t) => t.clone(),
        }
    };
    // Repository entity a slot resolved to (None for emerging/literals).
    let link_of = |slot: &Slot, kb: &OnTheFlyKb| -> Option<qkb_kb::EntityId> {
        match slot {
            Slot::Entity(id, _) => match kb.entity(*id).kind {
                qkb_kb::KbEntityKind::Linked(r) => Some(r),
                _ => None,
            },
            _ => None,
        }
    };

    // --- facts from clauses ---
    for clause in &built.clauses {
        if clause.negated || clause.args.is_empty() {
            continue;
        }
        let Some(subj_node) = clause.subject else {
            continue;
        };
        let subj_slot = slot_of(subj_node);
        let (subject, conf) = match &subj_slot {
            Slot::Entity(id, c) => (FactArg::Entity(*id), *c),
            Slot::Literal(t) => (FactArg::Literal(t.clone()), 1.0),
            Slot::Time(t) => (FactArg::Time(t.clone()), 1.0),
        };
        let provenance = Provenance {
            doc: doc_idx,
            sentence: clause.sentence as u32,
        };

        // Binary facts: subject + each argument under its own pattern.
        let mut rendered_args: Vec<(FactArg, f64, String)> = Vec::new();
        for arg in &clause.args {
            let slot = slot_of(arg.node);
            let (fa, c) = match &slot {
                Slot::Entity(id, c) => (FactArg::Entity(*id), *c),
                Slot::Literal(t) => (FactArg::Literal(t.clone()), 1.0),
                Slot::Time(t) => (FactArg::Time(t.clone()), 1.0),
            };
            rendered_args.push((fa, c, arg.pattern.clone()));
        }
        let subj_surface = surface_of(&subj_slot, kb);
        let mut arg_slots: Vec<Slot> = Vec::new();
        for arg in &clause.args {
            arg_slots.push(slot_of(arg.node));
        }
        for (i, (fa, c, pattern)) in rendered_args.iter().enumerate() {
            let fact_conf = conf.min(*c);
            let relation = canonical_relation(patterns, pattern);
            let kept = fact_conf >= config.tau;
            let _ = fa;
            out.extractions.push((
                Extraction {
                    sentence: clause.sentence,
                    subject: subj_surface.clone(),
                    subject_head: mention_head(g, subj_node),
                    relation: pattern.clone(),
                    args: vec![surface_of(&arg_slots[i], kb)],
                    arg_heads: vec![mention_head_of_arg(g, built, clause, i)],
                    confidence: fact_conf,
                },
                kept,
                vec![link_of(&subj_slot, kb), link_of(&arg_slots[i], kb)],
            ));
            if kept {
                kb.push_fact(Fact {
                    subject: subject.clone(),
                    relation,
                    args: vec![rendered_args[i].0.clone()],
                    confidence: fact_conf,
                    provenance,
                });
            }
        }

        // Higher-arity fact: merge all arguments of the clause (§5).
        if config.emit_nary && rendered_args.len() >= 2 {
            let fact_conf = rendered_args
                .iter()
                .fold(conf, |acc, (_, c, _)| acc.min(*c));
            let joined_pattern = {
                let mut p = clause.verb_lemma.clone();
                for arg in &clause.args {
                    if let Some(prep) = arg.pattern.strip_prefix(&clause.verb_lemma) {
                        let prep = prep.trim();
                        if !prep.is_empty() {
                            p.push(' ');
                            p.push_str(prep);
                        }
                    }
                }
                p
            };
            let relation = canonical_relation(patterns, &joined_pattern);
            let kept = fact_conf >= config.tau;
            out.extractions.push((
                Extraction {
                    sentence: clause.sentence,
                    subject: subj_surface.clone(),
                    subject_head: mention_head(g, subj_node),
                    relation: joined_pattern.clone(),
                    args: arg_slots.iter().map(|s| surface_of(s, kb)).collect(),
                    arg_heads: (0..clause.args.len())
                        .map(|i| mention_head_of_arg(g, built, clause, i))
                        .collect(),
                    confidence: fact_conf,
                },
                kept,
                std::iter::once(link_of(&subj_slot, kb))
                    .chain(arg_slots.iter().map(|s| link_of(s, kb)))
                    .collect(),
            ));
            if kept {
                kb.push_fact(Fact {
                    subject,
                    relation,
                    args: rendered_args.into_iter().map(|(fa, _, _)| fa).collect(),
                    confidence: fact_conf,
                    provenance,
                });
            }
        }
    }

    // --- facts from possessive relation edges ---
    for (owner, name, role, sentence) in &built.extra_relations {
        let so = slot_of(*owner);
        let sn = slot_of(*name);
        let (subject, c1) = match &sn {
            Slot::Entity(id, c) => (FactArg::Entity(*id), *c),
            Slot::Literal(t) => (FactArg::Literal(t.clone()), 1.0),
            Slot::Time(t) => (FactArg::Time(t.clone()), 1.0),
        };
        let (object, c2) = match &so {
            Slot::Entity(id, c) => (FactArg::Entity(*id), *c),
            Slot::Literal(t) => (FactArg::Literal(t.clone()), 1.0),
            Slot::Time(t) => (FactArg::Time(t.clone()), 1.0),
        };
        let fact_conf = c1.min(c2);
        // "Pitt's ex-wife Angelina Jolie": ⟨Jolie, be ex-wife of, Pitt⟩.
        let pattern = format!("be {role} of");
        let relation = canonical_relation(patterns, &pattern);
        let kept = fact_conf >= config.tau;
        out.extractions.push((
            Extraction {
                sentence: *sentence,
                subject: surface_of(&sn, kb),
                subject_head: mention_head(g, *name),
                relation: pattern,
                args: vec![surface_of(&so, kb)],
                arg_heads: vec![mention_head(g, *owner)],
                confidence: fact_conf,
            },
            kept,
            vec![link_of(&sn, kb), link_of(&so, kb)],
        ));
        if kept {
            kb.push_fact(Fact {
                subject,
                relation,
                args: vec![object],
                confidence: fact_conf,
                provenance: Provenance {
                    doc: doc_idx,
                    sentence: *sentence as u32,
                },
            });
        }
    }

    out
}

/// Canonicalizes a pattern: synset of the pattern repository when known,
/// novel relation otherwise (§5).
pub fn canonical_relation(patterns: &PatternRepository, pattern: &str) -> RelationRef {
    match patterns.lookup(pattern) {
        Some(id) => RelationRef::Canonical(id),
        None => RelationRef::Novel(pattern.to_string()),
    }
}

fn mention_text(g: &crate::graph::SemanticGraph, n: NodeId) -> String {
    match g.node(n) {
        NodeKind::NounPhrase { text, .. } => text.clone(),
        NodeKind::Pronoun { text, .. } => text.clone(),
        _ => String::new(),
    }
}

fn mention_head(g: &crate::graph::SemanticGraph, n: NodeId) -> usize {
    match g.node(n) {
        NodeKind::NounPhrase { head, .. } => *head,
        NodeKind::Pronoun { head, .. } => *head,
        _ => 0,
    }
}

fn mention_head_of_arg(
    g: &crate::graph::SemanticGraph,
    _built: &BuiltGraph,
    clause: &crate::build::GraphClause,
    arg_idx: usize,
) -> usize {
    clause
        .args
        .get(arg_idx)
        .map(|a| mention_head(g, a.node))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_graph, BuildConfig};
    use crate::densify::densify;
    use crate::weights::WeightModel;
    use qkb_kb::{BackgroundStats, Gender, StatsBuilder};
    use qkb_nlp::Pipeline;
    use qkb_openie::ClausIe;

    fn repo() -> EntityRepository {
        let mut repo = EntityRepository::new();
        let actor = repo.type_system().get("ACTOR").expect("t");
        let org = repo.type_system().get("FOUNDATION").expect("t");
        repo.add_entity("Brad Pitt", &["Pitt"], Gender::Male, vec![actor]);
        repo.add_entity(
            "Daniel Pearl Foundation",
            &["the Daniel Pearl Foundation"],
            Gender::Neutral,
            vec![org],
        );
        repo
    }

    fn stats(repo: &EntityRepository) -> BackgroundStats {
        let mut b = StatsBuilder::new();
        let pitt = repo.candidates("Brad Pitt")[0];
        let dpf = repo.candidates("Daniel Pearl Foundation")[0];
        b.add_anchor("Brad Pitt", pitt);
        b.add_anchor("Pitt", pitt);
        b.add_anchor("Daniel Pearl Foundation", dpf);
        b.add_entity_article(pitt, ["actor", "film", "donate"]);
        b.add_entity_article(dpf, ["foundation", "charity", "donate"]);
        b.finalize()
    }

    fn run(text: &str, config: CanonConfig) -> (OnTheFlyKb, DocCanonOutput, PatternRepository) {
        let repo = repo();
        let stats = stats(&repo);
        let patterns = PatternRepository::standard();
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate(text);
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        let mut built = build_graph(&doc, &clauses, &repo, &stats, BuildConfig::default());
        let model = WeightModel::default();
        let mentions = built.mentions.clone();
        let outcome = densify(&mut built.graph, &mentions, &model, &stats, &repo);
        let mut kb = OnTheFlyKb::new();
        let out = canonicalize_into(&mut kb, &built, &outcome, &repo, &patterns, config, 0);
        (kb, out, patterns)
    }

    #[test]
    fn builds_quadruple_from_svoa() {
        let (kb, _, patterns) = run(
            "Pitt donated $100,000 to the Daniel Pearl Foundation.",
            CanonConfig::default(),
        );
        let quad = kb.iter_facts().find(|f| f.arity() == 4).expect("quad");
        let rendered = kb.render_fact(quad, &patterns);
        assert!(rendered.contains("Brad Pitt"), "rendered: {rendered}");
        assert!(rendered.contains("$100,000"), "rendered: {rendered}");
        assert!(
            rendered.contains("Daniel Pearl Foundation"),
            "rendered: {rendered}"
        );
    }

    #[test]
    fn pronoun_facts_resolve_to_entity() {
        let (kb, _, patterns) = run(
            "Brad Pitt is an actor. He supported the Daniel Pearl Foundation.",
            CanonConfig::default(),
        );
        let support = kb
            .iter_facts()
            .find(|f| kb.render_fact(f, &patterns).contains("support"))
            .expect("support fact");
        match &support.subject {
            FactArg::Entity(id) => {
                assert_eq!(kb.entity(*id).name, "Brad Pitt");
            }
            other => panic!("subject should be the resolved entity, got {other:?}"),
        }
    }

    #[test]
    fn unknown_names_become_emerging_entities() {
        let (kb, _, _) = run(
            "Jessica Leeds accused Quimby Vance of harassment.",
            CanonConfig::default(),
        );
        assert!(kb.n_emerging() >= 1, "emerging entities expected");
        let leeds = kb
            .iter_entities()
            .find(|e| e.name.contains("Leeds"))
            .expect("Leeds entity");
        assert!(leeds.display().ends_with('*'));
    }

    #[test]
    fn literals_stay_literal() {
        let (kb, _, _) = run("Brad Pitt is an actor.", CanonConfig::default());
        let fact = kb.iter_facts().next().expect("one fact");
        assert!(matches!(&fact.args[0], FactArg::Literal(t) if t.contains("actor")));
    }

    #[test]
    fn tau_filters_low_confidence_facts() {
        let strict = CanonConfig {
            tau: 0.99,
            ..Default::default()
        };
        let (_, out, _) = run(
            "Pitt donated $100,000 to the Daniel Pearl Foundation.",
            strict,
        );
        // extraction records exist even when τ drops the facts
        assert!(!out.extractions.is_empty());
    }

    #[test]
    fn canonical_relation_maps_paraphrases() {
        let patterns = PatternRepository::standard();
        let a = canonical_relation(&patterns, "star in");
        let b = canonical_relation(&patterns, "play in");
        match (a, b) {
            (RelationRef::Canonical(x), RelationRef::Canonical(y)) => assert_eq!(x, y),
            other => panic!("expected canonical synsets, got {other:?}"),
        }
        assert!(matches!(
            canonical_relation(&patterns, "zorb with"),
            RelationRef::Novel(_)
        ));
    }

    #[test]
    fn link_records_emitted() {
        let (_, out, _) = run(
            "Brad Pitt supported the Daniel Pearl Foundation.",
            CanonConfig::default(),
        );
        assert!(
            out.links.iter().any(|(_, p, _, _)| p.contains("Pitt")),
            "links: {:?}",
            out.links
        );
    }

    #[test]
    fn time_arguments_canonicalized() {
        let (kb, _, _) = run(
            "Pitt joined the Daniel Pearl Foundation in 2002.",
            CanonConfig::default(),
        );
        let has_time = kb.iter_facts().any(|f| {
            f.args
                .iter()
                .any(|a| matches!(a, FactArg::Time(t) if t == "2002"))
        });
        assert!(has_time, "facts: {}", kb.n_facts());
    }
}
