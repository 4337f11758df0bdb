//! **Bench-regression gate** — diffs fresh `BENCH_*.json` reports
//! against the committed baselines and exits non-zero when any headline
//! speedup/latency metric regressed by more than 25%.
//!
//! Run: `cargo run -p qkb_bench --release --bin bench_check --
//!       --baseline-dir . --fresh-dir fresh-bench`
//!
//! Every `BENCH_*.json` in the baseline directory must have a fresh
//! counterpart (same file name) in the fresh directory — a bench that
//! silently stopped producing its report must not look green. Speedups
//! of reports run at one worker or core are printed as skipped, with
//! the reason, instead of gated.

use qkb_bench::check::check_pair;
use qkb_util::json::Value;
use std::path::{Path, PathBuf};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Value::parse(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn main() {
    let baseline_dir = PathBuf::from(arg_value("--baseline-dir").unwrap_or_else(|| ".".into()));
    let fresh_dir = PathBuf::from(arg_value("--fresh-dir").unwrap_or_else(|| "fresh-bench".into()));

    let mut baselines: Vec<PathBuf> = std::fs::read_dir(&baseline_dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", baseline_dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    baselines.sort();
    assert!(
        !baselines.is_empty(),
        "no BENCH_*.json baselines found in {}",
        baseline_dir.display()
    );

    let mut regressions = Vec::new();
    let mut checked = 0usize;
    for base_path in &baselines {
        let name = base_path.file_name().expect("file name");
        let fresh_path = fresh_dir.join(name);
        assert!(
            fresh_path.exists(),
            "missing fresh report {} (did the bench stop writing its report?)",
            fresh_path.display()
        );
        let baseline = load(base_path);
        let fresh = load(&fresh_path);
        let outcome = check_pair(&baseline, &fresh)
            .unwrap_or_else(|e| panic!("{}: {e}", name.to_string_lossy()));
        let bench = baseline.get("bench").and_then(Value::as_str).expect("tag");
        for reason in &outcome.skipped {
            println!("skipped: {reason}");
        }
        if outcome.regressions.is_empty() {
            println!("ok: {bench} ({})", name.to_string_lossy());
        }
        for r in outcome.regressions {
            println!("REGRESSION: {r}");
            regressions.push(r);
        }
        checked += 1;
    }
    println!(
        "\nchecked {checked} reports, {} regressions",
        regressions.len()
    );
    if !regressions.is_empty() {
        std::process::exit(1);
    }
}
