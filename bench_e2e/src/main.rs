//! `bench_e2e` — what a question costs over TCP, on four workloads,
//! split by layer.
//!
//! ```text
//! bench_e2e --workload <qa_hot|qa_fresh|session_durable|mixed|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--out FILE] [--trace-out FILE]
//! ```
//!
//! Each workload starts a real `QkbNetServer` with production-default
//! serving config in this process and drives it over loopback TCP from
//! two client threads on two connections. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` adds a traced phase on a
//! quarter of the window and reports the per-layer metrics. Every metric
//! prints as `name value unit`; the last line of standard output is one
//! JSON object `{correct, attempted, failed, metrics}`. The process exits
//! non-zero on a correctness mismatch, dropped spans, or a saturated
//! open-loop run. See README.md for the metric glossary.

mod attrib;
mod awake;
mod check;
mod client;
mod engine;
mod fixture;
mod gen;
mod run;
mod stats;

use gen::Workload;
use qkb_util::json::Value;
use run::{run_workload, Outcome};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

const USAGE: &str = "usage: bench_e2e --workload <qa_hot|qa_fresh|session_durable|mixed|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--trace-out" => args.trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn metrics_json(outcomes: &[Outcome], prefix: bool) -> Value {
    let mut m = Value::object();
    for o in outcomes {
        for x in &o.metrics {
            let name = if prefix {
                format!("{}.{}", o.workload, x.name)
            } else {
                x.name.clone()
            };
            m.set(
                &name,
                Value::object().with("value", x.value).with("unit", x.unit),
            );
        }
    }
    m
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let o = run_workload(w, args.seed, args.seconds, args.trace);
        println!(
            "# {} (seed {}, {} s, trace {})",
            o.workload, args.seed, args.seconds, args.trace as u8
        );
        for x in o.metrics.iter().chain(&o.extras) {
            println!("{} {} {}", x.name, x.value, x.unit);
        }
        for e in &o.errors {
            eprintln!("{}: {e}", o.workload);
        }
        outcomes.push(o);
    }
    let correct = outcomes.iter().all(|o| o.errors.is_empty());
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();

    if let Some(path) = &args.out {
        let report = Value::object()
            .with("seed", args.seed)
            .with("seconds", args.seconds)
            .with("trace", args.trace)
            .with(
                "workloads",
                Value::array(outcomes.iter().map(|o| {
                    let extras = o.extras.iter().fold(Value::object(), |v, x| {
                        v.with(
                            &x.name,
                            Value::object().with("value", x.value).with("unit", x.unit),
                        )
                    });
                    Value::object()
                        .with("name", o.workload)
                        .with("correct", o.errors.is_empty())
                        .with(
                            "errors",
                            Value::array(o.errors.iter().map(|e| Value::from(e.as_str()))),
                        )
                        .with("attempted", o.attempted)
                        .with("failed", o.failed)
                        .with("metrics", metrics_json(std::slice::from_ref(o), false))
                        .with("extras", extras)
                })),
            );
        if let Err(e) = std::fs::write(path, report.to_string()) {
            eprintln!("--out {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if let Some(path) = &args.trace_out {
        let traces: Vec<&str> = outcomes.iter().filter_map(|o| o.trace.as_deref()).collect();
        let doc = match traces.as_slice() {
            [one] => one.to_string(),
            many => format!("[{}]", many.join(",")),
        };
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("--trace-out {path}: {e}");
            return ExitCode::from(1);
        }
    }

    let line = Value::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics_json(&outcomes, outcomes.len() > 1));
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload mixed --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workloads, vec![Workload::Mixed]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(
            parse_args(&argv("--workload all")).unwrap().workloads.len(),
            4
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }
}
