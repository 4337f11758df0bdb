//! Stage 1: semantic-graph construction (§3).
//!
//! Builds one graph per document from the annotated sentences and their
//! ClausIE clauses: clause nodes with `depends` edges, mention nodes
//! (noun phrases, times, pronouns), `means` edges to repository candidates,
//! `relation` edges from clause structure plus the possessive heuristic
//! ("Pitt's ex-wife Angelina Jolie" → relation candidate "ex-wife"), and
//! initial `sameAs` edges from string matching (same NER label) and the
//! five-sentence backward pronoun window.

use crate::graph::{EdgeKind, NodeId, NodeKind, SemanticGraph};
use qkb_kb::{BackgroundStats, EntityRepository, Gender};
use qkb_nlp::{AnnotatedDoc, NerTag, PosTag, Sentence};
use qkb_openie::{ArgKind, Clause};
use qkb_util::text::{is_token_prefix, is_token_suffix, normalize};
use qkb_util::FxHashMap;

/// One clause's projection onto graph nodes.
#[derive(Clone, Debug)]
pub struct GraphClause {
    /// The clause node.
    pub node: NodeId,
    /// Sentence index.
    pub sentence: usize,
    /// Lemmatized verb.
    pub verb_lemma: String,
    /// Clause type label.
    pub ctype: qkb_openie::ClauseType,
    /// Subject mention node.
    pub subject: Option<NodeId>,
    /// Non-subject argument nodes with their relation patterns.
    pub args: Vec<GraphArg>,
    /// True if negated (negated clauses contribute no facts).
    pub negated: bool,
}

/// One non-subject argument in the graph.
#[derive(Clone, Debug)]
pub struct GraphArg {
    /// Mention node.
    pub node: NodeId,
    /// Relation pattern toward this argument ("donate to").
    pub pattern: String,
    /// Constituent role.
    pub kind: ArgKind,
}

/// Stage-1 output: the graph plus clause projections and the mention-node
/// inventory.
pub struct BuiltGraph {
    /// The semantic graph.
    pub graph: SemanticGraph,
    /// Clause projections in document order.
    pub clauses: Vec<GraphClause>,
    /// All mention nodes (noun phrases and pronouns).
    pub mentions: Vec<NodeId>,
    /// Non-clausal relation pairs from the possessive heuristic:
    /// `(owner, name, role-noun pattern, sentence)`.
    pub extra_relations: Vec<(NodeId, NodeId, String, usize)>,
}

/// Maximum entity candidates per mention (keeps the densification
/// tractable; candidates are prior-ranked so truncation is benign).
const MAX_CANDIDATES: usize = 8;

/// Backward pronoun window in sentences (§3: five).
pub const PRONOUN_WINDOW: usize = 5;

/// Builder configuration.
#[derive(Clone, Copy, Debug)]
pub struct BuildConfig {
    /// Include pronoun nodes at all (false for QKBfly-noun).
    pub use_pronouns: bool,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self { use_pronouns: true }
    }
}

/// Builds the semantic graph for one document.
pub fn build_graph(
    doc: &AnnotatedDoc,
    clauses_per_sentence: &[Vec<Clause>],
    repo: &EntityRepository,
    stats: &BackgroundStats,
    config: BuildConfig,
) -> BuiltGraph {
    let mut g = SemanticGraph::new();
    let mut clauses = Vec::new();
    let mut mentions: Vec<NodeId> = Vec::new();
    let mut extra_relations: Vec<(NodeId, NodeId, String, usize)> = Vec::new();
    // (sentence, head token) -> mention node
    let mut mention_index: FxHashMap<(usize, usize), NodeId> = FxHashMap::default();

    for (s_idx, sentence) in doc.sentences.iter().enumerate() {
        let sentence_clauses = clauses_per_sentence.get(s_idx).map_or(&[][..], |c| &c[..]);
        let mut clause_nodes: Vec<NodeId> = Vec::with_capacity(sentence_clauses.len());

        for clause in sentence_clauses {
            let cnode = g.add_node(NodeKind::Clause {
                sentence: s_idx,
                ctype: clause.ctype.as_str(),
                verb: clause.verb_lemma.clone(),
            });
            clause_nodes.push(cnode);

            // Subject mention.
            let subj_node = mention_node(
                &mut g,
                &mut mention_index,
                &mut mentions,
                repo,
                stats,
                sentence,
                s_idx,
                &clause.subject.tokens,
                clause.subject.head,
                config,
            );
            if let Some(sn) = subj_node {
                g.add_edge(cnode, sn, EdgeKind::Depends);
            }

            // Non-subject arguments.
            let mut args = Vec::new();
            for arg in clause.non_subject_args() {
                let anode = mention_node(
                    &mut g,
                    &mut mention_index,
                    &mut mentions,
                    repo,
                    stats,
                    sentence,
                    s_idx,
                    &arg.tokens,
                    arg.head,
                    config,
                );
                let Some(anode) = anode else { continue };
                g.add_edge(cnode, anode, EdgeKind::Depends);
                let pattern = clause.relation_pattern(arg);
                if let Some(sn) = subj_node {
                    if sn != anode {
                        g.add_edge(
                            sn,
                            anode,
                            EdgeKind::Relation {
                                pattern: pattern.clone(),
                            },
                        );
                    }
                }
                args.push(GraphArg {
                    node: anode,
                    pattern,
                    kind: arg.kind,
                });
            }

            clauses.push(GraphClause {
                node: cnode,
                sentence: s_idx,
                verb_lemma: clause.verb_lemma.clone(),
                ctype: clause.ctype,
                subject: subj_node,
                args,
                negated: clause.negated,
            });
        }

        // Clause dependency edges (§3: "a clause may be connected to
        // multiple dependent clauses").
        for (ci, clause) in sentence_clauses.iter().enumerate() {
            if let Some(parent) = clause.parent {
                if parent < clause_nodes.len() && parent != ci {
                    g.add_edge(clause_nodes[ci], clause_nodes[parent], EdgeKind::Depends);
                }
            }
        }

        // Possessive heuristic: "'s <noun>" — the middle noun is a relation
        // candidate between the owner and the following name (§3).
        possessive_relations(
            &mut g,
            &mut mention_index,
            &mut mentions,
            &mut extra_relations,
            repo,
            stats,
            sentence,
            s_idx,
            config,
        );
    }

    add_same_as_edges(&mut g, &mentions);

    BuiltGraph {
        graph: g,
        clauses,
        mentions,
        extra_relations,
    }
}

/// Creates (or finds) the mention node for an argument span.
#[allow(clippy::too_many_arguments)]
fn mention_node(
    g: &mut SemanticGraph,
    index: &mut FxHashMap<(usize, usize), NodeId>,
    mentions: &mut Vec<NodeId>,
    repo: &EntityRepository,
    stats: &BackgroundStats,
    sentence: &Sentence,
    s_idx: usize,
    span: &[usize],
    head: usize,
    config: BuildConfig,
) -> Option<NodeId> {
    if let Some(&n) = index.get(&(s_idx, head)) {
        return Some(n);
    }
    let head_tok = sentence.tokens.get(head)?;

    // Pronoun node.
    if head_tok.pos == PosTag::PRP {
        if !config.use_pronouns {
            return None;
        }
        let gender = match head_tok.lower().as_str() {
            "he" | "him" | "himself" => Gender::Male,
            "she" | "herself" => Gender::Female,
            "her" => Gender::Female,
            "it" | "itself" => Gender::Neutral,
            _ => Gender::Unknown,
        };
        let node = g.add_node(NodeKind::Pronoun {
            sentence: s_idx,
            head,
            text: head_tok.text.clone(),
            gender,
        });
        set_ctx(g, stats, sentence, node);
        index.insert((s_idx, head), node);
        mentions.push(node);
        return Some(node);
    }

    // Time mention?
    let time_value = sentence
        .times
        .iter()
        .find(|m| head >= m.start && head < m.end)
        .map(|m| m.value.to_string());
    let is_time = time_value.is_some();

    let text = span_text(sentence, span);
    let proper = span
        .iter()
        .any(|&i| sentence.tokens[i].pos.is_proper_noun() || sentence.tokens[i].ner != NerTag::O)
        && !is_time;
    let node = g.add_node(NodeKind::NounPhrase {
        sentence: s_idx,
        head,
        text: text.clone(),
        ner: head_tok.ner,
        is_time,
        time_value,
        proper,
    });
    set_ctx(g, stats, sentence, node);
    index.insert((s_idx, head), node);
    mentions.push(node);

    // Means edges to repository candidates (dictionary-restricted, §4).
    if !is_time {
        for cand in candidate_entities(repo, &text, span, sentence) {
            let enode = g.entity_node(cand);
            g.add_edge(node, enode, EdgeKind::Means);
        }
    }
    Some(node)
}

fn set_ctx(g: &mut SemanticGraph, stats: &BackgroundStats, sentence: &Sentence, node: NodeId) {
    let tokens: Vec<&str> = sentence
        .tokens
        .iter()
        .filter(|t| t.text.chars().any(|c| c.is_alphanumeric()))
        .map(|t| t.lemma.as_str())
        .collect();
    let ctx = stats.context_of(tokens);
    g.set_context(node, ctx);
}

fn span_text(sentence: &Sentence, span: &[usize]) -> String {
    span.iter()
        .filter_map(|&i| sentence.tokens.get(i))
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Dictionary lookup for a mention: full span, determiner-stripped span,
/// and the maximal capitalized sub-span. Candidates are deduplicated and
/// truncated to [`MAX_CANDIDATES`].
fn candidate_entities(
    repo: &EntityRepository,
    text: &str,
    span: &[usize],
    sentence: &Sentence,
) -> Vec<qkb_kb::EntityId> {
    let mut out: Vec<qkb_kb::EntityId> = Vec::new();
    let mut push_all = |ids: &[qkb_kb::EntityId]| {
        for &id in ids {
            if !out.contains(&id) && out.len() < MAX_CANDIDATES {
                out.push(id);
            }
        }
    };
    push_all(repo.candidates(text));
    // Determiner-stripped.
    let norm = normalize(text);
    for det in ["the ", "a ", "an "] {
        if let Some(rest) = norm.strip_prefix(det) {
            push_all(repo.candidates(rest));
        }
    }
    // Capitalized sub-span ("warrior Achilles" -> "Achilles").
    let caps: Vec<&str> = span
        .iter()
        .filter_map(|&i| sentence.tokens.get(i))
        .filter(|t| t.pos.is_proper_noun())
        .map(|t| t.text.as_str())
        .collect();
    if !caps.is_empty() {
        push_all(repo.candidates(&caps.join(" ")));
        // Last proper token alone (surname).
        push_all(repo.candidates(caps[caps.len() - 1]));
    }
    out
}

/// Possessive-apposition relation candidates (§3):
/// `X 's <role-noun> <Name>` adds a relation edge labelled by the role
/// noun between X and Name.
#[allow(clippy::too_many_arguments)]
fn possessive_relations(
    g: &mut SemanticGraph,
    index: &mut FxHashMap<(usize, usize), NodeId>,
    mentions: &mut Vec<NodeId>,
    extra_relations: &mut Vec<(NodeId, NodeId, String, usize)>,
    repo: &EntityRepository,
    stats: &BackgroundStats,
    sentence: &Sentence,
    s_idx: usize,
    config: BuildConfig,
) {
    let toks = &sentence.tokens;
    for i in 0..toks.len() {
        if toks[i].pos != PosTag::POS || i == 0 {
            continue;
        }
        // owner: the token before 's (or a multi-token proper span ending
        // there)
        let owner_head = i - 1;
        if !toks[owner_head].pos.is_noun() {
            continue;
        }
        // role noun(s) directly after the clitic
        let mut j = i + 1;
        let role_start = j;
        while j < toks.len() && toks[j].pos == PosTag::NN {
            j += 1;
        }
        if j == role_start {
            continue;
        }
        let role_head = j - 1;
        // name after the role noun
        let name_start = j;
        let mut k = j;
        while k < toks.len() && toks[k].pos.is_proper_noun() {
            k += 1;
        }
        if k == name_start {
            continue;
        }
        let owner_span: Vec<usize> = owner_span_of(toks, owner_head);
        let name_span: Vec<usize> = (name_start..k).collect();
        let owner = mention_node(
            g,
            index,
            mentions,
            repo,
            stats,
            sentence,
            s_idx,
            &owner_span,
            owner_head,
            config,
        );
        let name = mention_node(
            g,
            index,
            mentions,
            repo,
            stats,
            sentence,
            s_idx,
            &name_span,
            k - 1,
            config,
        );
        if let (Some(o), Some(n)) = (owner, name) {
            if o != n {
                g.add_edge(
                    o,
                    n,
                    EdgeKind::Relation {
                        pattern: toks[role_head].lemma.clone(),
                    },
                );
                extra_relations.push((o, n, toks[role_head].lemma.clone(), s_idx));
            }
        }
    }
}

/// Expands the owner head backwards over a proper-noun run.
fn owner_span_of(toks: &[qkb_nlp::Token], head: usize) -> Vec<usize> {
    let mut start = head;
    while start > 0 && toks[start - 1].pos.is_proper_noun() {
        start -= 1;
    }
    (start..=head).collect()
}

/// Adds the initial `sameAs` edges (§3): string matching for NP pairs with
/// the same NER label, and the backward pronoun window.
fn add_same_as_edges(g: &mut SemanticGraph, mentions: &[NodeId]) {
    // Collect mention metadata first (borrow discipline).
    struct M {
        node: NodeId,
        sentence: usize,
        head: usize,
        text: String,
        ner: NerTag,
        pronoun: Option<Gender>,
        is_time: bool,
        proper: bool,
    }
    let ms: Vec<M> = mentions
        .iter()
        .map(|&n| match g.node(n) {
            NodeKind::NounPhrase {
                sentence,
                head,
                text,
                ner,
                is_time,
                proper,
                ..
            } => M {
                node: n,
                sentence: *sentence,
                head: *head,
                text: text.clone(),
                ner: *ner,
                pronoun: None,
                is_time: *is_time,
                proper: *proper,
            },
            NodeKind::Pronoun {
                sentence,
                head,
                text,
                gender,
            } => M {
                node: n,
                sentence: *sentence,
                head: *head,
                text: text.clone(),
                ner: NerTag::O,
                pronoun: Some(*gender),
                is_time: false,
                proper: false,
            },
            _ => unreachable!("mentions are NP or pronoun nodes"),
        })
        .collect();

    // (a) NP–NP string matching with equal NER labels.
    for i in 0..ms.len() {
        if ms[i].pronoun.is_some() || ms[i].is_time || !ms[i].proper {
            continue;
        }
        for j in (i + 1)..ms.len() {
            if ms[j].pronoun.is_some() || ms[j].is_time || !ms[j].proper {
                continue;
            }
            if ms[i].ner != ms[j].ner {
                continue;
            }
            let (a, b) = (normalize(&ms[i].text), normalize(&ms[j].text));
            let a = strip_det(&a);
            let b = strip_det(&b);
            if a == b
                || is_token_suffix(&a, &b)
                || is_token_suffix(&b, &a)
                || is_token_prefix(&a, &b)
                || is_token_prefix(&b, &a)
            {
                g.add_edge(ms[i].node, ms[j].node, EdgeKind::SameAs);
            }
        }
    }

    // (b) Pronoun window: pronouns link to noun phrases in the preceding
    // `PRONOUN_WINDOW` sentences (and earlier in the same sentence).
    for p in ms.iter().filter(|m| m.pronoun.is_some()) {
        let gender = p.pronoun.expect("pronoun");
        for t in ms.iter().filter(|m| m.pronoun.is_none() && !m.is_time) {
            let before = t.sentence < p.sentence || (t.sentence == p.sentence && t.head < p.head);
            let in_window = p.sentence.saturating_sub(PRONOUN_WINDOW) <= t.sentence;
            if !before || !in_window || !t.proper {
                continue;
            }
            // Personal pronouns target PERSON-ish mentions; "it" targets
            // non-person mentions.
            let compatible = match gender {
                Gender::Male | Gender::Female => {
                    t.ner == NerTag::Person || t.ner == NerTag::Misc || t.ner == NerTag::O
                }
                Gender::Neutral => t.ner != NerTag::Person,
                Gender::Unknown => true,
            };
            if compatible {
                g.add_edge(p.node, t.node, EdgeKind::SameAs);
            }
        }
    }
}

fn strip_det(s: &str) -> String {
    for det in ["the ", "a ", "an "] {
        if let Some(rest) = s.strip_prefix(det) {
            return rest.to_string();
        }
    }
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkb_nlp::Pipeline;
    use qkb_openie::ClausIe;

    fn fixture_repo() -> EntityRepository {
        let mut repo = EntityRepository::new();
        let actor = repo.type_system().get("ACTOR").expect("t");
        let org = repo.type_system().get("FOUNDATION").expect("t");
        let character = repo.type_system().get("CHARACTER").expect("t");
        let film = repo.type_system().get("FILM").expect("t");
        repo.add_entity(
            "Brad Pitt",
            &["William Bradley Pitt", "Pitt"],
            Gender::Male,
            vec![actor],
        );
        repo.add_entity(
            "ONE Campaign",
            &["the ONE Campaign"],
            Gender::Neutral,
            vec![org],
        );
        repo.add_entity("Daniel Pearl Foundation", &[], Gender::Neutral, vec![org]);
        repo.add_entity(
            "Achilles",
            &["warrior Achilles"],
            Gender::Male,
            vec![character],
        );
        repo.add_entity("Troy", &[], Gender::Neutral, vec![film]);
        repo
    }

    fn build(text: &str) -> (BuiltGraph, EntityRepository) {
        let repo = fixture_repo();
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate(text);
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<Clause>> = doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        let stats = BackgroundStats::empty();
        let built = build_graph(&doc, &clauses, &repo, &stats, BuildConfig::default());
        (built, repo)
    }

    #[test]
    fn paper_figure2_structure() {
        // The two sentences of Figure 2.
        let (built, _repo) = build(
            "Brad Pitt is an actor and he supports the ONE Campaign. \
             In 2002, Pitt donated $100,000 to the Daniel Pearl Foundation.",
        );
        let g = &built.graph;
        // Clause nodes: SVC + SVO in sentence 0, SVOA in sentence 1.
        assert!(built.clauses.len() >= 3, "got {}", built.clauses.len());
        // Pronoun node for "he".
        let has_pronoun = g
            .node_ids()
            .any(|n| matches!(g.node(n), NodeKind::Pronoun { text, .. } if text == "he"));
        assert!(has_pronoun);
        // "Brad Pitt" has a means edge to the repository entity.
        let np = g
            .node_ids()
            .find(|&n| {
                matches!(g.node(n), NodeKind::NounPhrase { text, .. } if text.contains("Brad"))
            })
            .expect("Brad Pitt node");
        assert!(!g.means_of(np).is_empty());
        // "he" has sameAs candidates.
        let pron = g
            .node_ids()
            .find(|&n| matches!(g.node(n), NodeKind::Pronoun { .. }))
            .expect("pronoun node");
        assert!(!g.same_as_of(pron).is_empty());
    }

    #[test]
    fn same_as_links_pitt_variants() {
        let (built, _repo) =
            build("Brad Pitt is an actor. Pitt donated $100,000 to the Daniel Pearl Foundation.");
        let g = &built.graph;
        let full = g
            .node_ids()
            .find(
                |&n| matches!(g.node(n), NodeKind::NounPhrase { text, .. } if text == "Brad Pitt"),
            )
            .expect("full name node");
        let linked = g.same_as_of(full);
        assert!(
            linked.iter().any(|&(_, other)| {
                matches!(g.node(other), NodeKind::NounPhrase { text, .. } if text == "Pitt")
            }),
            "Pitt and Brad Pitt must be sameAs-linked"
        );
    }

    #[test]
    fn time_mentions_carry_values() {
        let (built, _) = build("Pitt donated $100,000 to the Daniel Pearl Foundation in 2002.");
        let g = &built.graph;
        let time_node = g
            .node_ids()
            .find(|&n| matches!(g.node(n), NodeKind::NounPhrase { is_time: true, .. }));
        assert!(time_node.is_some(), "a time mention node must exist");
        if let NodeKind::NounPhrase { time_value, .. } = g.node(time_node.expect("some")) {
            assert_eq!(time_value.as_deref(), Some("2002"));
        }
    }

    #[test]
    fn noun_only_config_skips_pronouns() {
        let repo = fixture_repo();
        let pipeline = Pipeline::with_gazetteer(repo.gazetteer());
        let doc = pipeline.annotate("Brad Pitt is an actor. He supports the ONE Campaign.");
        let clausie = ClausIe::new();
        let clauses: Vec<Vec<Clause>> = doc.sentences.iter().map(|s| clausie.detect(s)).collect();
        let stats = BackgroundStats::empty();
        let built = build_graph(
            &doc,
            &clauses,
            &repo,
            &stats,
            BuildConfig {
                use_pronouns: false,
            },
        );
        assert!(!built
            .graph
            .node_ids()
            .any(|n| matches!(built.graph.node(n), NodeKind::Pronoun { .. })));
    }

    #[test]
    fn possessive_heuristic_adds_relation_edge() {
        let (built, _) = build("Pitt 's ex-wife Angelina Jolie filed for divorce.");
        let g = &built.graph;
        let has_role_edge = g.edge_ids().any(|e| {
            matches!(
                &g.edge(e).kind,
                EdgeKind::Relation { pattern } if pattern == "ex-wife"
            )
        });
        assert!(has_role_edge, "graph:\n{}", g.render(&fixture_repo()));
    }

    #[test]
    fn literal_arguments_have_no_candidates() {
        let (built, _) = build("Brad Pitt is an actor.");
        let g = &built.graph;
        let actor_node = g
            .node_ids()
            .find(|&n| {
                matches!(g.node(n), NodeKind::NounPhrase { text, .. } if text.contains("actor"))
            })
            .expect("actor literal node");
        assert!(g.means_of(actor_node).is_empty());
    }
}
