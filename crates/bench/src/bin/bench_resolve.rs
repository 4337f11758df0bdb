//! **Resolve-stage microbench** — monolithic NED+CR vs the
//! component-decomposed resolve with candidate pruning and greedy warm
//! start, with a byte-identity cross-check (the decomposed KB must equal
//! the monolithic KB).
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_resolve
//!       [-- --quick] [-- --docs N] [-- --out FILE.json]`
//!
//! Two arms, each timing the decomposed path production runs against its
//! monolithic baseline:
//! * **greedy** — the production solver. Baseline: whole-document
//!   densification (`resolve_decomposition = false`). Fast: coupling
//!   components solved one after another with lazy rescoring.
//! * **ilp** — the exact Appendix-A solver on a smaller doc set.
//!   Baseline: one monolithic program, no pruning, cold branch-and-bound.
//!   Fast: per-component programs with dominated candidates pruned and
//!   the greedy incumbent warm-starting the search.
//!
//! The JSON report (default `BENCH_resolve.json`) records `resolve_us`,
//! `ilp_variables` and `bnb_nodes` of both sides of each arm; both arms
//! assert the ≥2x speedup bar that CI enforces.

use qkb_bench::{build_fixture, Table};
use qkb_util::json::Value;
use qkbfly::{Qkbfly, ResolveCounters, SolverKind, Variant};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

struct ArmRun {
    /// Stable KB rendering (byte-identity check).
    fingerprint: String,
    /// Best-of-reps summed resolve-stage wall clock (seconds).
    resolve_s: f64,
    /// Summed resolve counters across the batch.
    counters: ResolveCounters,
}

/// Builds the batch once for the fingerprint/counters, then re-runs it
/// `reps` times keeping the best summed resolve-stage wall clock.
fn run_arm(sys: &Qkbfly, docs: &[String], reps: usize) -> ArmRun {
    let first = sys.build_kb(docs);
    let fingerprint = first.kb.to_json(sys.patterns()).to_string();
    let mut counters = ResolveCounters::default();
    for d in &first.per_doc {
        counters.add(&d.resolve);
    }
    let mut resolve_s = first.timings.resolve.as_secs_f64();
    for _ in 1..reps {
        let result = sys.build_kb(docs);
        std::hint::black_box(result.kb.n_facts());
        resolve_s = resolve_s.min(result.timings.resolve.as_secs_f64());
    }
    ArmRun {
        fingerprint,
        resolve_s,
        counters,
    }
}

/// One solver arm: the monolithic baseline and the decomposed path,
/// which must build the byte-identical KB. Returns
/// `(baseline, decomposed)`.
fn bench_solver(base_sys: &Qkbfly, docs: &[String], reps: usize, label: &str) -> (ArmRun, ArmRun) {
    let monolithic = base_sys.with_config_override(|c| c.resolve_decomposition = false);
    let baseline = run_arm(&monolithic, docs, reps);
    let decomposed = base_sys.with_config_override(|c| c.resolve_decomposition = true);
    let fast = run_arm(&decomposed, docs, reps);
    assert_eq!(
        fast.fingerprint, baseline.fingerprint,
        "{label}: decomposed KB diverged from the monolithic KB — determinism bug"
    );
    (baseline, fast)
}

fn run_json(run: &ArmRun) -> Value {
    Value::object()
        .with("resolve_us", run.resolve_s * 1e6)
        .with("components", run.counters.components)
        .with("ilp_variables", run.counters.ilp_variables)
        .with("bnb_nodes", run.counters.bnb_nodes)
        .with("pruned_candidates", run.counters.pruned_candidates)
}

fn arm_json(label: &str, docs: usize, baseline: &ArmRun, fast: &ArmRun, bar: f64) -> Value {
    let headline = baseline.resolve_s / fast.resolve_s;
    println!(
        "\n{label}: {headline:.2}x over monolithic (bar: {bar:.1}x) — \
         {} -> {} ILP vars, {} -> {} bnb nodes",
        baseline.counters.ilp_variables,
        fast.counters.ilp_variables,
        baseline.counters.bnb_nodes,
        fast.counters.bnb_nodes,
    );
    assert!(
        headline >= bar,
        "{label}: resolve speedup {headline:.2}x is below the {bar:.1}x bar \
         (baseline {:.1} ms vs decomposed {:.1} ms)",
        baseline.resolve_s * 1e3,
        fast.resolve_s * 1e3,
    );
    Value::object()
        .with("docs", docs)
        .with("baseline", run_json(baseline))
        .with("decomposed", run_json(fast))
        .with("speedup", headline)
        .with("deterministic", true)
}

fn print_arms(title: &str, baseline: &ArmRun, fast: &ArmRun) {
    let mut table = Table::new([
        "Arm",
        "Resolve wall-clock",
        "Speedup",
        "Components",
        "ILP vars",
        "B&B nodes",
        "Pruned",
    ]);
    for (name, run) in [("monolithic", baseline), ("decomposed", fast)] {
        table.row([
            format!("{title} {name}"),
            format!("{:.1} ms", run.resolve_s * 1e3),
            format!("{:.2}x", baseline.resolve_s / run.resolve_s),
            run.counters.components.to_string(),
            run.counters.ilp_variables.to_string(),
            run.counters.bnb_nodes.to_string(),
            run.counters.pruned_candidates.to_string(),
        ]);
    }
    table.print();
}

fn main() {
    let quick = arg_flag("--quick") || std::env::var("QKB_BENCH_QUICK").as_deref() == Ok("1");
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_resolve.json".to_string());
    let n_docs: usize = arg_value("--docs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 4 } else { 12 });
    let reps = if quick { 3 } else { 5 };

    println!("== resolve stage: monolithic vs decomposed ==");
    let fx = build_fixture();
    let stats = fx.stats();

    // --- greedy arm: long multi-page documents (many coupling
    // components per document, the serving regime). ---
    // Long documents grow the dominant coupling component, which is
    // where the lazy rescoring in the decomposed path wins most.
    let pages_per_doc = 8;
    let corpus = fx.wiki(n_docs * pages_per_doc, 4242);
    let docs: Vec<String> = corpus
        .docs
        .chunks(pages_per_doc)
        .map(|chunk| {
            chunk
                .iter()
                .map(|d| d.text.as_str())
                .collect::<Vec<_>>()
                .join("\n\n")
        })
        .collect();
    // Document-level fan-out pinned to 1 so decomposition is the only
    // difference between the two sides.
    let mut greedy_sys = fx.system(stats, Variant::Joint, SolverKind::Greedy);
    greedy_sys.config_mut().parallelism = 1;
    let (greedy_base, greedy_fast) = bench_solver(&greedy_sys, &docs, reps, "greedy");
    print_arms("greedy", &greedy_base, &greedy_fast);

    // --- ILP arm: two-page *news* documents — alias-ambiguous mentions
    // (repeated surnames) make the joint-rel expansion and the
    // branch-and-bound search explode with document length (Table 6),
    // which is exactly what candidate pruning and the greedy warm start
    // attack. Two pages keeps the monolithic baseline benchable.
    let ilp_n = if quick { 3 } else { 6 };
    let ilp_corpus = fx.news(ilp_n * 2, 977);
    let ilp_docs: Vec<String> = ilp_corpus
        .docs
        .chunks(2)
        .map(|chunk| {
            chunk
                .iter()
                .map(|d| d.text.as_str())
                .collect::<Vec<_>>()
                .join("\n\n")
        })
        .collect();
    let mut ilp_sys = fx.system(fx.stats(), Variant::Joint, SolverKind::Ilp);
    ilp_sys.config_mut().parallelism = 1;
    let (ilp_base, ilp_fast) = bench_solver(&ilp_sys, &ilp_docs, reps, "ilp");
    print_arms("ilp", &ilp_base, &ilp_fast);

    let greedy_json = arm_json("greedy", docs.len(), &greedy_base, &greedy_fast, 2.0);
    let ilp_json = arm_json("ilp", ilp_docs.len(), &ilp_base, &ilp_fast, 2.0);

    let report = Value::object()
        .with("bench", "resolve")
        .with("quick", quick)
        .with("reps", reps)
        .with("greedy", greedy_json)
        .with("ilp", ilp_json);
    std::fs::write(&out_path, format!("{report}\n")).expect("write JSON report");
    println!("\nreport written to {out_path}");
}
