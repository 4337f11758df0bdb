//! Parallel determinism: `build_kb` must produce a byte-identical
//! canonicalized KB for every `parallelism` setting — the per-document
//! phase fans out across workers, but the merge phase folds outputs in
//! document order with stable tie-breaking.

use qkb_corpus::world::{World, WorldConfig};
use qkbfly::{BuildResult, Qkbfly, QkbflyConfig, SolverKind, Variant};

fn system(world: &World, parallelism: usize) -> Qkbfly {
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
            parallelism,
            ..Default::default()
        },
    )
}

fn batch(world: &World, n_docs: usize) -> Vec<String> {
    let corpus = qkb_corpus::docgen::wiki_corpus(world, n_docs, 4242);
    corpus.docs.iter().map(|d| d.text.clone()).collect()
}

/// Full observable state of a build result, rendered to a stable string:
/// canonicalized facts + entity clusters (the KB JSON), extraction
/// records, and link records.
fn fingerprint(sys: &Qkbfly, result: &BuildResult<'_>) -> String {
    let mut s = String::new();
    s.push_str(&result.kb.to_json(sys.patterns()).to_string());
    s.push('\n');
    for r in &result.records {
        s.push_str(&format!(
            "record doc={} kept={} slots={:?} {:?}\n",
            r.doc, r.kept, r.slot_entities, r.extraction
        ));
    }
    for l in &result.links {
        s.push_str(&format!(
            "link doc={} sent={} phrase={:?} entity={:?} conf={:?}\n",
            l.doc, l.sentence, l.phrase, l.entity, l.confidence
        ));
    }
    s
}

#[test]
fn parallelism_does_not_change_the_kb() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 12);
    assert!(docs.len() >= 8, "need a real batch, got {}", docs.len());

    let serial_sys = system(&world, 1);
    let serial = serial_sys.build_kb(&docs);
    let serial_fp = fingerprint(&serial_sys, &serial);
    assert!(serial.kb.n_facts() > 0, "fixture must yield facts");

    for parallelism in [2, 8] {
        let sys = system(&world, parallelism);
        let result = sys.build_kb(&docs);
        let fp = fingerprint(&sys, &result);
        assert_eq!(
            serial_fp, fp,
            "parallelism={parallelism} diverged from the serial build"
        );
        assert_eq!(serial.kb.n_facts(), result.kb.n_facts());
        assert_eq!(serial.kb.n_entities(), result.kb.n_entities());
        assert_eq!(serial.per_doc.len(), result.per_doc.len());
    }
}

/// Resolve-stage determinism: component decomposition (with candidate
/// pruning and warm start on the ILP path, lazy rescoring on the greedy
/// path) must leave the full observable build state byte-identical to
/// the monolithic serial resolve at every `resolve_parallelism`.
#[test]
fn component_parallel_resolve_is_byte_identical() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 8);
    for solver in [SolverKind::Greedy, SolverKind::Ilp] {
        let mono_sys = system(&world, 1).with_config_override(|c| {
            c.solver = solver;
            c.resolve_decomposition = false;
        });
        let mono = mono_sys.build_kb(&docs);
        let mono_fp = fingerprint(&mono_sys, &mono);
        assert!(mono.kb.n_facts() > 0, "fixture must yield facts");

        for resolve_parallelism in [1usize, 2, 8] {
            let sys = system(&world, 1).with_config_override(|c| {
                c.solver = solver;
                c.resolve_decomposition = true;
                c.resolve_parallelism = resolve_parallelism;
            });
            let result = sys.build_kb(&docs);
            assert_eq!(
                fingerprint(&sys, &result),
                mono_fp,
                "solver={solver:?} resolve_parallelism={resolve_parallelism} diverged \
                 from the monolithic resolve"
            );
        }
    }
}

#[test]
fn parallelism_zero_resolves_to_available_cores() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 4);
    let auto_sys = system(&world, 0);
    let serial_sys = system(&world, 1);
    let auto_fp = fingerprint(&auto_sys, &auto_sys.build_kb(&docs));
    let serial_fp = fingerprint(&serial_sys, &serial_sys.build_kb(&docs));
    assert_eq!(auto_fp, serial_fp);
}

#[test]
fn cloned_handles_share_repositories() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 3);
    let sys = system(&world, 2);
    let handle = sys.clone();
    // Handles are independently usable (e.g. one per request thread) and
    // agree exactly.
    let a = fingerprint(&sys, &sys.build_kb(&docs));
    let b = fingerprint(&handle, &handle.build_kb(&docs));
    assert_eq!(a, b);
    // The clone shares the repositories rather than copying them.
    assert!(std::ptr::eq(sys.repo(), handle.repo()));
    assert!(std::ptr::eq(sys.patterns(), handle.patterns()));
    assert!(std::ptr::eq(sys.stats(), handle.stats()));
}
