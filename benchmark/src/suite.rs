//! All six workloads, each in a child process of its own, so that
//! `peak_rss_mb` is per workload and a workload that dies takes no other
//! with it. Writes `results.json`; `--check-repeat` runs the untraced set
//! twice and holds the two to each metric's bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;
use atos_queue::sync::host_parallelism;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub check_repeat: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// `metric -> (value, unit)` as one child printed it.
type Printed = BTreeMap<String, (f64, String)>;
/// One pass over the workloads; `None` where the child could not be run.
type Pass = Vec<(&'static str, Option<Printed>)>;

fn run_child(opts: &Options, workload: &str, trace: bool) -> Result<Printed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ])
    .arg("--out")
    .arg(&opts.out_dir)
    .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut printed = Printed::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, unit] = fields[..] {
            if let (true, Ok(v)) = (w == workload, value.parse::<f64>()) {
                println!("{line}");
                printed.insert(metric.to_string(), (v, unit.to_string()));
            }
        }
    }
    if !out.status.success() || printed.is_empty() {
        return Err(format!(
            "{workload} ended with {} and printed {} metrics",
            out.status,
            printed.len()
        ));
    }
    Ok(printed)
}

fn run_pass(opts: &Options, trace: bool) -> Pass {
    NAMES
        .iter()
        .map(|&w| {
            let printed = run_child(opts, w, trace)
                .map_err(|why| eprintln!("{why}"))
                .ok();
            (w, printed)
        })
        .collect()
}

fn to_json(opts: &Options, passes: &[(&str, &Pass)], wall_s: f64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"host_cores\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"wall_s\": {wall_s}, \"passes\": [",
        host_parallelism(),
        opts.seed,
        opts.seconds,
        opts.smoke
    );
    for (i, (kind, pass)) in passes.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"pass\": \"{kind}\", \"workloads\": {{",
            if i > 0 { "," } else { "" }
        );
        for (j, (w, printed)) in pass.iter().enumerate() {
            let _ = write!(out, "{}\n\"{w}\": {{", if j > 0 { "," } else { "" });
            for (k, (metric, (value, unit))) in printed.iter().flatten().enumerate() {
                let sep = if k > 0 { ", " } else { "" };
                let _ = write!(
                    out,
                    "{sep}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
            out.push('}');
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Whether `second` is within the metric's bound of `first`, with the
/// relative difference in the metric's worse direction.
fn within_bound(first: f64, second: f64, better: Better, bound: f64) -> (f64, bool) {
    if bound == 0.0 {
        return (
            if first == second { 0.0 } else { f64::INFINITY },
            first == second,
        );
    }
    let worse_by = match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    };
    (worse_by, worse_by <= bound)
}

/// Compare two untraced passes of the same code, metric by metric.
fn check_repeat(first: &Pass, second: &Pass) -> bool {
    let mut all_pass = true;
    println!("check-repeat: workload metric first second worse_by bound verdict");
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for m in &END_TO_END {
            let get = |p: &Option<Printed>| p.as_ref().and_then(|p| p.get(m.name)).map(|&(v, _)| v);
            let (verdict, detail) = match (get(a), get(b)) {
                (Some(x), Some(y)) => {
                    let (worse_by, ok) = within_bound(x, y, m.better, m.bound);
                    (ok, format!("{x} {y} {worse_by:+.4}"))
                }
                _ => (false, "missing missing n/a".to_string()),
            };
            all_pass &= verdict;
            let verdict = if verdict { "pass" } else { "FAIL" };
            println!(
                "check-repeat: {w} {} {detail} {} {verdict}",
                m.name, m.bound
            );
        }
    }
    all_pass
}

pub fn run(opts: &Options) -> ExitCode {
    let started = Instant::now();
    let first = run_pass(opts, false);
    let second = opts.check_repeat.then(|| run_pass(opts, false));
    let traced = opts.traced.then(|| run_pass(opts, true));

    let mut passes = vec![("untraced", &first)];
    passes.extend(second.iter().map(|p| ("untraced-repeat", p)));
    passes.extend(traced.iter().map(|p| ("traced", p)));
    let wall_s = started.elapsed().as_secs_f64();
    println!("suite wall_s {wall_s} s");

    let path = opts.out_dir.join("results.json");
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, to_json(opts, &passes, wall_s)));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    let all_started = passes
        .iter()
        .all(|(_, pass)| pass.iter().all(|(_, p)| p.is_some()));
    let repeat_ok = second
        .as_ref()
        .is_none_or(|second| check_repeat(&first, second));
    if all_started && repeat_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_one_sided_and_zero_means_exact() {
        assert!(within_bound(1.0, 1.07, Better::Lower, 0.08).1);
        assert!(!within_bound(1.0, 1.09, Better::Lower, 0.08).1);
        assert!(
            within_bound(1.0, 0.5, Better::Lower, 0.08).1,
            "better is never a regression"
        );
        assert!(within_bound(100.0, 93.0, Better::Higher, 0.08).1);
        assert!(!within_bound(100.0, 91.0, Better::Higher, 0.08).1);
        assert!(within_bound(3.25, 3.25, Better::Lower, 0.0).1);
        assert!(!within_bound(3.25, 3.250001, Better::Lower, 0.0).1);
        assert!(within_bound(0.0, 0.0, Better::Lower, 0.0).1);
    }
}
