//! Benchmark-trajectory runner: measures the fig5/fig8/fig9 quick
//! workloads (`e2e_quick`) and the graph-construction layer
//! (`graph_build`: full-scale R-MAT and road-mesh generation,
//! `Csr::from_edges` throughput), prints them, and with `--append` records
//! them in `results/BENCH_trajectory.json`.
//!
//! Usage:
//!
//! ```text
//! bench_trajectory [--sha SHA] [--stamp STAMP] [--append] [--out PATH]
//! bench_trajectory --compare FILE
//! ```
//!
//! The run id is `SHA@STAMP`, both passed in from the command line (the
//! repo's determinism policy keeps wall-clock identity out of the crates).
//! `--compare FILE` measures nothing: it judges the base/change samples that
//! `scripts/ab.sh` gathered from alternating runs of two builds, prints one
//! row per metric and exits 1 if any failed (`trajectory::pair_verdict`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use atos_bench::trajectory::{
    append_entries, host_cores, measure_graph_build, pair_verdict, quick_grid_ms, read_samples,
    FLOOR, PAIRS,
};

struct Args {
    sha: String,
    stamp: String,
    append: bool,
    out: PathBuf,
    compare: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        sha: "local".to_string(),
        stamp: "unstamped".to_string(),
        append: false,
        out: PathBuf::from("results/BENCH_trajectory.json"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} requires a value"));
        match arg.as_str() {
            "--sha" => a.sha = value()?,
            "--stamp" => a.stamp = value()?,
            "--append" => a.append = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--compare" => a.compare = Some(PathBuf::from(value()?)),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (supported: --sha, --stamp, --append, \
                     --out PATH, --compare FILE)"
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
        } else if v.fract() != 0.0 {
            // Fractional diagnostics (`from_edges_medges_per_s`).
            println!("  {k:<24} {v:>12.3}");
        } else {
            println!("  {k:<24} {v:>12.0}");
        }
    }
}

/// `--compare FILE`: the table `scripts/ab.sh` prints, and whether every
/// metric passed.
fn compare(path: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = read_samples(&text)?;
    if let Some((key, _, pairs)) = metrics.iter().find(|m| m.2.len() != PAIRS) {
        return Err(format!("{key}: {} pairs, expected {PAIRS}", pairs.len()));
    }
    println!("N = {PAIRS}, FLOOR = {FLOOR}: fail on median ratio > 1 + FLOOR and >= 2/3 worse");
    println!("metric                                   base med   change med   ratio  worse   base q3-q1");
    // Five decimals below 1, so a ratio metric such as 0.0073 keeps its digits.
    let num = |x: f64| format!("{x:>12.*}", if x.abs() < 1.0 { 5 } else { 3 });
    let mut ok = true;
    for (key, better, pairs) in &metrics {
        let v = pair_verdict(pairs, *better);
        ok &= !v.fails;
        let worse = format!("{}/{PAIRS}", v.worse);
        let verdict = if v.fails { "FAIL" } else { "ok" };
        let (base, change, iqr) = (num(v.base_median), num(v.change_median), num(v.base_iqr));
        println!(
            "{key:<36} {base} {change} {:>7.3} {worse:>6} {iqr}  {verdict}",
            v.ratio
        );
    }
    Ok(ok)
}

fn fail(e: String) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    atos_bench::pipe_friendly();
    let args = parse_args().unwrap_or_else(|e| fail(e));
    if let Some(path) = &args.compare {
        let ok = compare(path).unwrap_or_else(|e| fail(e));
        std::process::exit(if ok { 0 } else { 1 });
    }
    let mut e2e = BTreeMap::from([("host_cores".to_string(), host_cores())]);
    for (fig, grid) in [
        ("fig5", "fig5_scaling_nvlink"),
        ("fig8", "fig8_scaling_ib_bfs"),
        ("fig9", "fig9_scaling_ib_pr"),
    ] {
        e2e.insert(format!("{fig}_quick_ms"), quick_grid_ms(grid));
    }
    print_metrics("e2e_quick", &e2e);
    let graph = measure_graph_build(3);
    print_metrics("graph_build", &graph);

    if args.append {
        let (run_id, out) = (format!("{}@{}", args.sha, args.stamp), args.out.display());
        let entries = [("e2e_quick", &e2e), ("graph_build", &graph)];
        if let Err(e) = append_entries(&args.out, &run_id, &entries) {
            fail(format!("could not write {out}: {e}"));
        }
        println!("[trajectory] appended 2 entries as {run_id} -> {out}");
    }
}
