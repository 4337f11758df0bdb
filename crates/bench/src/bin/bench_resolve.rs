//! **Resolve-stage microbench** — monolithic serial NED+CR vs
//! component-decomposed parallel resolve with candidate pruning and
//! greedy warm start, with byte-identity cross-checks (the decomposed
//! KB must equal the monolithic KB at every `resolve_parallelism`).
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_resolve
//!       [-- --quick] [-- --docs N] [-- --out FILE.json]`
//!
//! Two arms:
//! * **greedy** — the production solver. Baseline: whole-document
//!   densification (`resolve_decomposition = false`). Fast: coupling
//!   components solved on 8 workers.
//! * **ilp** — the exact Appendix-A solver on a smaller doc set.
//!   Baseline: one monolithic program, no pruning, cold branch-and-bound.
//!   Fast: per-component programs with dominated candidates pruned and
//!   the greedy incumbent warm-starting the search.
//!
//! The JSON report (default `BENCH_resolve.json`) records `resolve_us`,
//! `ilp_variables` and `bnb_nodes` series per parallelism; all arms
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

struct Arm {
    parallelism: usize,
    run: ArmRun,
}

/// One solver arm: monolithic baseline + decomposed runs at
/// `resolve_parallelism` 1/2/8, all byte-identical. Returns
/// `(baseline, decomposed_arms)`.
fn bench_solver(
    base_sys: &Qkbfly,
    docs: &[String],
    reps: usize,
    label: &str,
) -> (ArmRun, Vec<Arm>) {
    let monolithic = base_sys.with_config_override(|c| {
        c.resolve_decomposition = false;
    });
    let baseline = run_arm(&monolithic, docs, reps);

    let mut arms = Vec::new();
    for parallelism in [1usize, 2, 8] {
        let sys = base_sys.with_config_override(|c| {
            c.resolve_decomposition = true;
            c.resolve_parallelism = parallelism;
        });
        let run = run_arm(&sys, docs, reps);
        assert_eq!(
            run.fingerprint, baseline.fingerprint,
            "{label}: decomposed KB at resolve_parallelism={parallelism} diverged from the \
             monolithic KB — determinism bug"
        );
        arms.push(Arm { parallelism, run });
    }
    (baseline, arms)
}

fn arm_json(label: &str, docs: usize, baseline: &ArmRun, arms: &[Arm], bar: f64) -> Value {
    let fast = arms.last().expect("arms");
    let headline = baseline.resolve_s / fast.run.resolve_s;
    let series = arms.iter().map(|a| {
        Value::object()
            .with("resolve_parallelism", a.parallelism)
            .with("resolve_us", a.run.resolve_s * 1e6)
            .with("speedup", baseline.resolve_s / a.run.resolve_s)
            .with("components", a.run.counters.components)
            .with("ilp_variables", a.run.counters.ilp_variables)
            .with("bnb_nodes", a.run.counters.bnb_nodes)
            .with("pruned_candidates", a.run.counters.pruned_candidates)
    });
    println!(
        "\n{label}: {headline:.2}x over monolithic serial (bar: {bar:.1}x) — \
         {} -> {} ILP vars, {} -> {} bnb nodes",
        baseline.counters.ilp_variables,
        fast.run.counters.ilp_variables,
        baseline.counters.bnb_nodes,
        fast.run.counters.bnb_nodes,
    );
    assert!(
        headline >= bar,
        "{label}: resolve speedup {headline:.2}x is below the {bar:.1}x bar \
         (baseline {:.1} ms vs decomposed {:.1} ms)",
        baseline.resolve_s * 1e3,
        fast.run.resolve_s * 1e3,
    );
    Value::object()
        .with("docs", docs)
        .with(
            "baseline",
            Value::object()
                .with("resolve_us", baseline.resolve_s * 1e6)
                .with("components", baseline.counters.components)
                .with("ilp_variables", baseline.counters.ilp_variables)
                .with("bnb_nodes", baseline.counters.bnb_nodes),
        )
        .with("series", Value::array(series))
        .with("speedup", headline)
        .with("deterministic", true)
}

fn print_arms(title: &str, baseline: &ArmRun, arms: &[Arm]) {
    let mut table = Table::new([
        "Arm",
        "Resolve wall-clock",
        "Speedup",
        "Components",
        "ILP vars",
        "B&B nodes",
        "Pruned",
    ]);
    table.row([
        format!("{title} monolithic"),
        format!("{:.1} ms", baseline.resolve_s * 1e3),
        "1.00x".to_string(),
        baseline.counters.components.to_string(),
        baseline.counters.ilp_variables.to_string(),
        baseline.counters.bnb_nodes.to_string(),
        baseline.counters.pruned_candidates.to_string(),
    ]);
    for a in arms {
        table.row([
            format!("{title} decomposed x{}", a.parallelism),
            format!("{:.1} ms", a.run.resolve_s * 1e3),
            format!("{:.2}x", baseline.resolve_s / a.run.resolve_s),
            a.run.counters.components.to_string(),
            a.run.counters.ilp_variables.to_string(),
            a.run.counters.bnb_nodes.to_string(),
            a.run.counters.pruned_candidates.to_string(),
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

    println!("== resolve stage: monolithic serial vs decomposed parallel ==");
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
    // Document-level fan-out pinned to 1 so the resolve knob is the only
    // difference between arms.
    let mut greedy_sys = fx.system(stats, Variant::Joint, SolverKind::Greedy);
    greedy_sys.config_mut().parallelism = 1;
    let (greedy_base, greedy_arms) = bench_solver(&greedy_sys, &docs, reps, "greedy");
    print_arms("greedy", &greedy_base, &greedy_arms);

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
    let (ilp_base, ilp_arms) = bench_solver(&ilp_sys, &ilp_docs, reps, "ilp");
    print_arms("ilp", &ilp_base, &ilp_arms);

    let greedy_json = arm_json("greedy", docs.len(), &greedy_base, &greedy_arms, 2.0);
    let ilp_json = arm_json("ilp", ilp_docs.len(), &ilp_base, &ilp_arms, 2.0);

    let report = Value::object()
        .with("bench", "resolve")
        .with("quick", quick)
        .with("reps", reps)
        .with("greedy", greedy_json)
        .with("ilp", ilp_json);
    std::fs::write(&out_path, format!("{report}\n")).expect("write JSON report");
    println!("\nreport written to {out_path}");
}
