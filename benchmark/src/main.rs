//! The repo benchmark. See `README.md` for the metric inventory and
//! `../BENCHMARK.json` for the contract it is run under.
//!
//! With `--workload` it runs that workload in this process and prints, as
//! its last line, one JSON object. Without, it runs every workload, each
//! in a child process of its own so that peak memory is per workload, and
//! writes `out/results.json`.

mod layers;
mod metrics;
mod single;
mod spans;
mod suite;
mod sweep;
mod timed;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
              [--traced] [--check-repeat] [--smoke] [--inject-fault] [--out DIR]
  --workload NAME  run one workload in this process (default: all six, one child each)
  --seed N         seed of every generated input (default 1)
  --seconds S      length of each workload's measured loop (default 15; 0 with --smoke)
  --trace 0|1      with --workload: 1 = traced pass, per-layer metrics (default 0)
  --traced         without --workload: add a traced pass after the untraced one
  --check-repeat   run the untraced set twice and compare within each metric's bound
  --smoke          tiny inputs, two runs per workload
  --inject-fault   corrupt the first run's output; verification must count it failed
  --out DIR        where results.json and trace-<workload>.json go (default benchmark/out)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    check_repeat: bool,
    smoke: bool,
    inject_fault: bool,
    out_dir: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        traced: false,
        check_repeat: false,
        smoke: false,
        inject_fault: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            "--smoke" => args.smoke = true,
            "--inject-fault" => args.inject_fault = true,
            "--out" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.0 } else { 15.0 });
    let Some(workload) = args.workload else {
        return suite::run(&suite::Options {
            seed: args.seed,
            seconds,
            traced: args.traced,
            check_repeat: args.check_repeat,
            smoke: args.smoke,
            out_dir: args.out_dir,
        });
    };

    let opts = single::Options {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        inject_fault: args.inject_fault,
        out_dir: args.out_dir,
    };
    let report = match single::run(&opts) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let unlisted = report.per_layer.unlisted(PER_LAYER);
    assert!(
        unlisted.is_empty(),
        "metrics missing from metrics::PER_LAYER: {unlisted:?}"
    );

    // Every metric by name with its unit, then the one JSON object the
    // contract asks for: end-to-end metrics untraced, per-layer traced.
    let w = &opts.workload;
    println!("{w} attempted {} count", report.attempted);
    println!("{w} failed {} count", report.failed);
    let bench = PER_LAYER
        .iter()
        .copied()
        .filter(|(n, _)| n.starts_with("bench."));
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
    let (lines, json): (Vec<_>, Vec<_>) = if opts.trace {
        let all: Vec<_> = report
            .per_layer
            .in_order(PER_LAYER.iter().copied())
            .collect();
        (all.clone(), all)
    } else {
        let contract = END_TO_END
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| (m.name, m.unit));
        (
            report.end_to_end.in_order(e2e.chain(bench)).collect(),
            report.end_to_end.in_order(contract).collect(),
        )
    };
    for (name, value, unit) in lines {
        println!("{w} {name} {value} {unit}");
    }
    let metrics: Vec<String> = json
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
