//! Benchmark-trajectory runner: measures the engine microbench (wheel vs
//! retained heap reference), the fig5/fig8/fig9 quick workloads, the
//! load-balance discipline sweep
//! (`lb_sweep`: per-discipline quick-BFS wall clock + steal counters,
//! delta-stepping vs Dijkstra-order SSSP), and the graph-construction
//! layer (`graph_build`: full-scale R-MAT and road-mesh generation,
//! `Csr::from_edges` throughput), gates the fresh numbers
//! against the last committed entries in
//! `results/BENCH_trajectory.json`, and (with `--append`) records them.
//!
//! Usage:
//!
//! ```text
//! bench_trajectory [--sha SHA] [--stamp STAMP] [--events N] [--samples K]
//!                  [--skip-engine] [--skip-e2e] [--skip-lb] [--skip-graph]
//!                  [--deny-regression PCT] [--min-speedup X]
//!                  [--append] [--out PATH]
//! ```
//!
//! The run id is `SHA@STAMP`, both passed in from the command line (the
//! repo's determinism policy keeps wall-clock identity out of the crates;
//! `scripts/verify.sh` supplies `git rev-parse` + `date -u`). With
//! `--deny-regression PCT` the process exits 1 if any freshly measured
//! metric regresses more than PCT percent against the last committed
//! entry of the same kind; `--min-speedup X` additionally enforces the
//! absolute wheel-vs-heap floor on the 1M-event uniform drain. Nothing is
//! written unless `--append` is given, so the gate can run in CI without
//! dirtying the work tree.

use std::collections::BTreeMap;
use std::path::PathBuf;

use atos_bench::trajectory::{
    append_entries, check_regression, host_cores, last_of_kind, measure_engine,
    measure_graph_build, measure_lb_sweep, quick_grid_ms, read_trajectory, TrajectoryEntry,
    DEFAULT_TRAJECTORY_PATH,
};

struct Args {
    sha: String,
    stamp: String,
    events: usize,
    samples: usize,
    skip_engine: bool,
    skip_e2e: bool,
    skip_lb: bool,
    skip_graph: bool,
    deny_regression: Option<f64>,
    min_speedup: Option<f64>,
    append: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        sha: "local".to_string(),
        stamp: "unstamped".to_string(),
        events: 1_000_000,
        samples: 3,
        skip_engine: false,
        skip_e2e: false,
        skip_lb: false,
        skip_graph: false,
        deny_regression: None,
        min_speedup: None,
        append: false,
        out: PathBuf::from(DEFAULT_TRAJECTORY_PATH),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--sha" => a.sha = value("--sha")?,
            "--stamp" => a.stamp = value("--stamp")?,
            "--events" => {
                let v = value("--events")?;
                a.events = v.parse().map_err(|_| format!("invalid --events value `{v}`"))?;
            }
            "--samples" => {
                let v = value("--samples")?;
                a.samples = v.parse().map_err(|_| format!("invalid --samples value `{v}`"))?;
            }
            "--skip-engine" => a.skip_engine = true,
            "--skip-e2e" => a.skip_e2e = true,
            "--skip-lb" => a.skip_lb = true,
            "--skip-graph" => a.skip_graph = true,
            "--deny-regression" => {
                let v = value("--deny-regression")?;
                a.deny_regression =
                    Some(v.parse().map_err(|_| format!("invalid --deny-regression value `{v}`"))?);
            }
            "--min-speedup" => {
                let v = value("--min-speedup")?;
                a.min_speedup =
                    Some(v.parse().map_err(|_| format!("invalid --min-speedup value `{v}`"))?);
            }
            "--append" => a.append = true,
            "--out" => a.out = PathBuf::from(value("--out")?),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (supported: --sha, --stamp, --events N, \
                     --samples K, --skip-engine, --skip-e2e, --skip-lb, --skip-graph, \
                     --deny-regression PCT, --min-speedup X, --append, --out PATH)"
                ))
            }
        }
    }
    Ok(a)
}

fn print_metrics(kind: &str, metrics: &BTreeMap<String, f64>) {
    println!("{kind}:");
    for (k, v) in metrics {
        if k.ends_with("_ms") {
            println!("  {k:<24} {v:>12.3} ms");
        } else if k.ends_with("_speedup_x") {
            println!("  {k:<24} {v:>12.2} x");
        } else if v.fract() != 0.0 {
            // Fractional diagnostics (`from_edges_medges_per_s`).
            println!("  {k:<24} {v:>12.3}");
        } else {
            println!("  {k:<24} {v:>12.0}");
        }
    }
}

fn main() {
    atos_bench::pipe_friendly();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let run_id = format!("{}@{}", args.sha, args.stamp);
    let history = match read_trajectory(&args.out) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: could not read {}: {e}", args.out.display());
            std::process::exit(2);
        }
    };

    let mut failures: Vec<String> = Vec::new();
    let mut new_entries: Vec<TrajectoryEntry> = Vec::new();

    if !args.skip_engine {
        let metrics = measure_engine(args.events, args.samples);
        print_metrics("engine_microbench", &metrics);
        if let Some(floor) = args.min_speedup {
            let got = metrics["uniform_speedup_x"];
            if got < floor {
                failures.push(format!(
                    "engine_microbench [uniform_speedup_x]: {got:.2}x below the {floor:.2}x floor"
                ));
            }
        }
        new_entries.push(TrajectoryEntry {
            run_id: run_id.clone(),
            kind: "engine_microbench".to_string(),
            metrics,
        });
    }

    if !args.skip_e2e {
        let mut metrics = BTreeMap::new();
        metrics.insert("host_cores".to_string(), host_cores());
        metrics.insert("fig5_quick_ms".to_string(), quick_grid_ms("fig5_scaling_nvlink"));
        metrics.insert("fig8_quick_ms".to_string(), quick_grid_ms("fig8_scaling_ib_bfs"));
        metrics.insert("fig9_quick_ms".to_string(), quick_grid_ms("fig9_scaling_ib_pr"));
        print_metrics("e2e_quick", &metrics);
        new_entries.push(TrajectoryEntry {
            run_id: run_id.clone(),
            kind: "e2e_quick".to_string(),
            metrics,
        });
    }

    if !args.skip_lb {
        let metrics = measure_lb_sweep(args.samples);
        print_metrics("lb_sweep", &metrics);
        new_entries.push(TrajectoryEntry {
            run_id: run_id.clone(),
            kind: "lb_sweep".to_string(),
            metrics,
        });
    }

    if !args.skip_graph {
        let metrics = measure_graph_build(args.samples);
        print_metrics("graph_build", &metrics);
        new_entries.push(TrajectoryEntry {
            run_id: run_id.clone(),
            kind: "graph_build".to_string(),
            metrics,
        });
    }

    if let Some(pct) = args.deny_regression {
        for cur in &new_entries {
            match last_of_kind(&history, &cur.kind) {
                Some(prev) => failures.extend(check_regression(prev, cur, pct)),
                None => eprintln!(
                    "[trajectory] no committed {} entry in {} — nothing to gate against",
                    cur.kind,
                    args.out.display()
                ),
            }
        }
    }

    if args.append {
        if let Err(e) = append_entries(&args.out, &new_entries) {
            eprintln!("error: could not write {}: {e}", args.out.display());
            std::process::exit(2);
        }
        println!(
            "[trajectory] appended {} entr{} as {run_id} -> {}",
            new_entries.len(),
            if new_entries.len() == 1 { "y" } else { "ies" },
            args.out.display()
        );
    }

    if !failures.is_empty() {
        eprintln!("[trajectory] FAIL: {} regression(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("[trajectory] ok ({run_id})");
}
