//! Property-based tests on the core invariants: densified graphs satisfy
//! the paper's constraints (1)–(4), confidences are normalized, and the
//! end-to-end pipeline is total over generated documents.

use proptest::prelude::*;
use qkb_corpus::world::{World, WorldConfig};
use qkb_kb::OnTheFlyKb;
use qkbfly::{ComputeStage1, NodeKind, Qkbfly, QkbflyConfig, SolverKind, Variant};
use std::sync::Arc;

fn system(world: &World) -> Qkbfly {
    let bg = qkb_corpus::background::background_corpus(world, 10, 5);
    let stats = qkb_corpus::background::build_stats(world, &bg);
    let mut repo = qkb_kb::EntityRepository::new();
    for e in world.repo.iter() {
        let aliases: Vec<&str> = e.aliases.iter().map(String::as_str).collect();
        repo.add_entity(&e.canonical, &aliases, e.gender, e.types.clone());
    }
    let mut patterns = qkb_kb::PatternRepository::standard();
    qkb_corpus::render::extend_patterns(&mut patterns);
    Qkbfly::with_config(
        repo,
        patterns,
        stats,
        QkbflyConfig {
            variant: Variant::Joint,
            solver: SolverKind::Greedy,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any generated document, densification leaves a graph satisfying
    /// constraints (1) and (2), and every fact confidence lies in [τ, 1].
    #[test]
    fn constraints_and_confidences_hold(doc_seed in 0u64..5000) {
        let world = World::generate(WorldConfig::default());
        let sys = system(&world);
        let corpus = qkb_corpus::docgen::wiki_corpus(&world, 1, doc_seed);
        let doc = &corpus.docs[0];

        // Reproduce the internal stages to inspect the graph.
        let nlp = qkb_nlp::Pipeline::with_gazetteer(world.repo.gazetteer());
        let ann = nlp.annotate(&doc.text);
        let clausie = qkb_openie::ClausIe::new();
        let clauses: Vec<Vec<qkb_openie::Clause>> =
            ann.sentences.iter().map(|s| clausie.detect(s)).collect();
        let stats = sys.stats();
        let mut built = qkbfly::build::build_graph(
            &ann,
            &clauses,
            sys.repo(),
            stats,
            qkbfly::build::BuildConfig::default(),
        );
        let mentions = built.mentions.clone();
        let outcome = qkbfly::densify::densify(
            &mut built.graph,
            &mentions,
            &qkbfly::WeightModel::default(),
            stats,
            sys.repo(),
        );
        for n in built.graph.node_ids() {
            match built.graph.node(n) {
                NodeKind::NounPhrase { .. } => {
                    prop_assert!(built.graph.means_of(n).len() <= 1, "constraint (1)");
                }
                NodeKind::Pronoun { .. } => {
                    prop_assert!(built.graph.same_as_of(n).len() <= 1, "constraint (2)");
                }
                _ => {}
            }
        }
        for res in outcome.resolutions.values() {
            prop_assert!((0.0..=1.0).contains(&res.confidence));
        }
        prop_assert!(outcome.objective >= -1e-9);

        // End-to-end: τ respected on kept facts.
        let result = sys.build_kb(std::slice::from_ref(&doc.text));
        for f in result.kb.iter_facts() {
            prop_assert!(f.confidence >= sys.config().tau - 1e-9);
            prop_assert!(f.confidence <= 1.0 + 1e-9);
            prop_assert!(f.arity() >= 3);
        }
    }

    /// Session-streaming invariant (union equivalence + id stability):
    /// splitting a random document sequence into arbitrary query turns
    /// and streaming each turn through `extend_kb` yields a KB
    /// byte-identical to one cold `build_kb` of the whole sequence —
    /// repeats included, since a cold build merges each distinct document
    /// once in first-arrival order — at per-turn provide and cold-build
    /// parallelism 1, 2 and 8, while already-resident documents are
    /// skipped idempotently and existing entity ids / facts are never
    /// renumbered or rewritten by an extension (the KB before a turn is a
    /// strict prefix of the KB after it).
    #[test]
    fn streaming_extend_kb_matches_cold_union_build(
        corpus_seed in 0u64..500,
        turns_spec in proptest::collection::vec((0usize..6, 0u8..3), 1..9),
    ) {
        let world = World::generate(WorldConfig::default());
        let sys = system(&world);
        let pool: Vec<String> = qkb_corpus::docgen::wiki_corpus(&world, 6, corpus_seed)
            .docs
            .iter()
            .map(|d| d.text.clone())
            .collect();
        // `turns_spec` is an arbitrary multiset/order over the pool cut
        // into query turns: `(pick, cut)` starts a new turn whenever
        // `cut == 0`, so turn sizes, overlaps and repeats all vary.
        let mut turns: Vec<Vec<String>> = vec![Vec::new()];
        for &(pick, cut) in &turns_spec {
            if cut == 0 && !turns.last().expect("non-empty").is_empty() {
                turns.push(Vec::new());
            }
            turns.last_mut().expect("non-empty").push(pool[pick % pool.len()].clone());
        }
        // The reference: one cold build over the de-duplicated union in
        // first-arrival order.
        let mut union: Vec<String> = Vec::new();
        for text in turns.iter().flatten() {
            if !union.contains(text) {
                union.push(text.clone());
            }
        }
        let cold = sys.build_kb(&union);
        let cold_json = cold.kb.to_json(sys.patterns()).to_string();
        let all: Vec<String> = turns.iter().flatten().cloned().collect();

        for parallelism in [1usize, 2, 8] {
            let handle = sys.with_parallelism(parallelism);
            // A cold build of the sequence with its repeats merges each
            // distinct document once: it is the deduped union's build.
            let repeated = handle.build_kb(&all);
            prop_assert_eq!(
                &repeated.kb.to_json(sys.patterns()).to_string(),
                &cold_json,
                "cold build with repeats diverged from the deduped one at parallelism {}",
                parallelism
            );
            prop_assert_eq!(repeated.per_doc.len(), union.len());
            prop_assert_eq!(repeated.records.len(), cold.records.len());
            prop_assert_eq!(repeated.links.len(), cold.links.len());
            let mut kb = OnTheFlyKb::new();
            let mut total_merged = 0usize;
            let mut total_skipped = 0usize;
            for turn in &turns {
                // Id stability: snapshot the KB state before the turn...
                let names_before: Vec<String> =
                    kb.iter_entities().map(|e| e.display()).collect();
                let facts_before = kb.n_facts();
                let stage1 = handle.provide_stage1(&ComputeStage1, turn.iter());
                let outcome = handle.extend_kb(&mut kb, &stage1);
                total_merged += outcome.merged;
                total_skipped += outcome.skipped;
                // ... and it must be a strict prefix of the state after.
                let names_after: Vec<String> =
                    kb.iter_entities().map(|e| e.display()).collect();
                prop_assert!(
                    names_after.len() >= names_before.len()
                        && names_after[..names_before.len()] == names_before[..],
                    "extend_kb renumbered existing entities at parallelism {}",
                    parallelism
                );
                prop_assert!(kb.n_facts() >= facts_before);
            }
            prop_assert_eq!(total_merged, union.len());
            prop_assert_eq!(
                total_merged + total_skipped,
                turns.iter().map(Vec::len).sum::<usize>(),
                "every streamed document is either merged once or skipped"
            );
            prop_assert_eq!(kb.n_docs(), union.len());
            prop_assert_eq!(
                &kb.to_json(sys.patterns()).to_string(),
                &cold_json,
                "streamed KB diverged from the cold union build at parallelism {}",
                parallelism
            );
        }
    }

    /// Prefix-forest invariant (the copy-on-extend soundness bar): build
    /// a random prefix of documents, `freeze()` it into an immutable
    /// shared layer, `fork()` a new KB on the frozen chain, stream a
    /// random delta into the fork — the result is byte-identical to one
    /// cold `build_kb` of the de-duplicated full sequence, at provide
    /// parallelism 1, 2 and 8, while the fork really shares the frozen
    /// layer (`Arc` identity) and the original KB is untouched by the
    /// fork's writes.
    #[test]
    fn forked_prefix_extension_matches_cold_build(
        corpus_seed in 0u64..500,
        prefix_picks in proptest::collection::vec(0usize..6, 1..4),
        delta_picks in proptest::collection::vec(0usize..6, 1..5),
    ) {
        let world = World::generate(WorldConfig::default());
        let sys = system(&world);
        let pool: Vec<String> = qkb_corpus::docgen::wiki_corpus(&world, 6, corpus_seed)
            .docs
            .iter()
            .map(|d| d.text.clone())
            .collect();
        let prefix: Vec<String> =
            prefix_picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let delta: Vec<String> =
            delta_picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        // The reference: one cold build over the de-duplicated
        // prefix-then-delta sequence in first-arrival order.
        let mut union: Vec<String> = Vec::new();
        for text in prefix.iter().chain(&delta) {
            if !union.contains(text) {
                union.push(text.clone());
            }
        }
        let cold_json = sys.build_kb(&union).kb.to_json(sys.patterns()).to_string();

        for parallelism in [1usize, 2, 8] {
            let handle = sys.with_parallelism(parallelism);
            // Build the shared prefix and seal it.
            let mut base = OnTheFlyKb::new();
            handle.stream_into_kb(&ComputeStage1, &mut base, &prefix);
            let layer = base.freeze().expect("non-empty prefix seals");
            prop_assert_eq!(layer.chain_key(), base.doc_sequence_fingerprint());
            let base_json = base.to_json(sys.patterns()).to_string();

            // Fork and extend with the delta.
            let mut fork = base.fork();
            prop_assert!(Arc::ptr_eq(
                &base.frozen_layers()[0],
                &fork.frozen_layers()[0]
            ));
            handle.stream_into_kb(&ComputeStage1, &mut fork, &delta);
            prop_assert_eq!(
                &fork.to_json(sys.patterns()).to_string(),
                &cold_json,
                "forked+extended KB diverged from the cold build at parallelism {}",
                parallelism
            );
            // The fork's writes landed in its own tip: the base KB and
            // the shared layer render exactly as before.
            prop_assert_eq!(
                &base.to_json(sys.patterns()).to_string(),
                &base_json,
                "a fork's extension must not leak into its sibling"
            );
        }
    }
}
