//! Shared harness for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §3 for the index). This library holds the
//! common machinery: dataset construction, framework runners, and table
//! formatting. All runtimes are *virtual* milliseconds from the
//! simulator's clock; the paper's absolute numbers came from V100
//! hardware, so EXPERIMENTS.md compares *shapes* (who wins, by what
//! factor, how scaling trends) rather than absolute values.
//!
//! Binaries accept `--quick` to run on the tiny test-scale graphs (the
//! artifact appendix's "quick mode"), `--threads N` to fan the sweep grid
//! over worker threads (default: host parallelism; `ATOS_BENCH_THREADS`
//! overrides the default), `--sim-threads K` to execute each Atos run on
//! `K` parallel engine shards (byte-identical output, parallel
//! wall-clock), `--load-balance {owner|steal}` to let idle PEs steal
//! (default `owner`, the paper's scheduling), and `--json PATH` to
//! redirect the timing report ([`sweep`] has the harness).

use std::sync::Arc;

pub mod observability;
pub mod profile;
pub mod sweep;
pub mod trajectory;

pub use observability::emit_artifacts;
pub use profile::render_report;
pub use sweep::{BenchArgs, EventTally, RunConfig, SweepReport, SweepRunner};

use atos_apps::bfs::run_bfs_sharded;
use atos_apps::pagerank::run_pagerank_sharded;
use atos_baselines::{bsp_bfs, bsp_pagerank, galois_bfs, galois_pagerank, groute_bfs, groute_pagerank};
use atos_core::AtosConfig;
use atos_graph::csr::{Csr, VertexId};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_sim::Fabric;

/// PageRank damping used throughout the evaluation.
pub const ALPHA: f64 = 0.85;
/// PageRank convergence threshold used throughout the evaluation.
///
/// Residues start at `1 - α = 0.15` per vertex, so `1e-5` is four orders
/// of magnitude of convergence — comparable to the tolerances the
/// compared frameworks default to, and it keeps full-table regeneration
/// affordable on a single-core host (see EXPERIMENTS.md).
pub const EPSILON: f64 = 1e-5;

/// Restore the default `SIGPIPE` disposition so `<binary> | head` ends
/// the process quietly instead of panicking with a broken-pipe backtrace.
/// Called by every table/figure binary before printing.
pub fn pipe_friendly() {
    #[cfg(unix)]
    // SAFETY: resetting a signal disposition at process start, before any
    // output or thread spawn. Declared directly (rather than via `libc`)
    // so the workspace builds without registry access.
    unsafe {
        unsafe extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        signal(SIGPIPE, SIG_DFL);
    }
}

/// A dataset instantiated for benchmarking.
pub struct Dataset {
    /// Preset descriptor (name, family).
    pub preset: Preset,
    /// The built graph.
    pub graph: Arc<Csr>,
    /// BFS source.
    pub source: VertexId,
}

impl Dataset {
    /// Build one preset at `scale`.
    pub fn build(preset: Preset, scale: Scale) -> Self {
        let graph = Arc::new(preset.build(scale));
        let source = preset.bfs_source(&graph);
        Dataset {
            preset,
            graph,
            source,
        }
    }

    /// All six Table I datasets.
    pub fn all(scale: Scale) -> Vec<Dataset> {
        Preset::ALL
            .iter()
            .map(|&p| Dataset::build(p, scale))
            .collect()
    }

    /// Partitioning policy from the paper: METIS-like BFS-grown
    /// partitions everywhere except twitter, which uses random.
    pub fn partition(&self, n_parts: usize) -> Arc<Partition> {
        if n_parts == 1 {
            return Arc::new(Partition::single(self.graph.n_vertices()));
        }
        if self.preset.name == "twitter_s" {
            Arc::new(Partition::random(self.graph.n_vertices(), n_parts, 42))
        } else {
            Arc::new(Partition::bfs_grow(&self.graph, n_parts, 42))
        }
    }
}

/// The frameworks of the NVLink BFS comparison (Table II), in row order.
pub const BFS_NVLINK_FRAMEWORKS: [&str; 4] = [
    "Gunrock",
    "Groute",
    "Atos (queue+persistent kernel)",
    "Atos (priority queue+discrete kernel)",
];

/// The frameworks of the NVLink PageRank comparison (Table IV).
pub const PR_NVLINK_FRAMEWORKS: [&str; 4] = [
    "Gunrock",
    "Groute",
    "Atos (discrete kernel)",
    "Atos (persistent kernel)",
];

/// Run one NVLink BFS framework, add it to `events`, and return its
/// virtual ms. Atos cells execute on `run.sim_threads` engine shards — the
/// tables are byte-identical at any shard count — under
/// `run.load_balance` (baseline frameworks ignore both).
pub fn bfs_nvlink_ms(
    framework: &str,
    ds: &Dataset,
    gpus: usize,
    run: RunConfig,
    events: &EventTally,
) -> f64 {
    let (graph, part, fabric) = (ds.graph.clone(), ds.partition(gpus), Fabric::daisy(gpus));
    let stats = match framework {
        "Gunrock" => bsp_bfs(graph, part, ds.source, fabric).stats,
        "Groute" => groute_bfs(graph, part, ds.source, fabric).stats,
        atos => {
            let cfg = match atos {
                "Atos (queue+persistent kernel)" => AtosConfig::standard_persistent(),
                "Atos (priority queue+discrete kernel)" => AtosConfig::priority_discrete(),
                other => panic!("unknown framework {other}"),
            };
            let cfg = cfg.with_lb(run.load_balance);
            run_bfs_sharded(graph, part, ds.source, fabric, cfg, run.sim_threads).stats
        }
    };
    events.ms_of(&stats)
}

/// Run one NVLink PageRank framework, add it to `events`, and return its
/// virtual ms.
pub fn pr_nvlink_ms(
    framework: &str,
    ds: &Dataset,
    gpus: usize,
    run: RunConfig,
    events: &EventTally,
) -> f64 {
    let (graph, part, fabric) = (ds.graph.clone(), ds.partition(gpus), Fabric::daisy(gpus));
    let stats = match framework {
        "Gunrock" => bsp_pagerank(graph, part, ALPHA, EPSILON, fabric).stats,
        "Groute" => groute_pagerank(graph, part, ALPHA, EPSILON, fabric).stats,
        atos => {
            let cfg = match atos {
                "Atos (discrete kernel)" => AtosConfig::standard_discrete(),
                "Atos (persistent kernel)" => AtosConfig::standard_persistent(),
                other => panic!("unknown framework {other}"),
            };
            let cfg = cfg.with_lb(run.load_balance);
            run_pagerank_sharded(graph, part, ALPHA, EPSILON, fabric, cfg, run.sim_threads).stats
        }
    };
    events.ms_of(&stats)
}

/// Run one InfiniBand framework (`"Galois"` or `"Atos"`) for `app`
/// (`"bfs"` or `"pr"`), add it to `events`, and return its virtual ms.
pub fn ib_ms(
    framework: &str,
    app: &str,
    ds: &Dataset,
    gpus: usize,
    run: RunConfig,
    events: &EventTally,
) -> f64 {
    let (graph, part, fabric) = (ds.graph.clone(), ds.partition(gpus), Fabric::ib_cluster(gpus));
    let (lb, shards) = (run.load_balance, run.sim_threads);
    let stats = match (framework, app) {
        ("Galois", "bfs") => galois_bfs(graph, part, ds.source, fabric).stats,
        ("Galois", "pr") => galois_pagerank(graph, part, ALPHA, EPSILON, fabric).stats,
        ("Atos", "bfs") => {
            let cfg = AtosConfig::ib_bfs().with_lb(lb);
            run_bfs_sharded(graph, part, ds.source, fabric, cfg, shards).stats
        }
        ("Atos", "pr") => {
            let cfg = AtosConfig::ib_pagerank().with_lb(lb);
            run_pagerank_sharded(graph, part, ALPHA, EPSILON, fabric, cfg, shards).stats
        }
        other => panic!("unknown combination {other:?}"),
    };
    events.ms_of(&stats)
}

/// Print one paper-style table block: rows = datasets, cols = GPU counts,
/// speedups vs `baseline` (same-shaped matrix) in parentheses.
pub fn print_table_block(
    title: &str,
    gpu_counts: &[usize],
    rows: &[(String, Vec<f64>)],
    baseline: Option<&[(String, Vec<f64>)]>,
) {
    println!("\nApplication: {title}");
    print!("{:<22}", "dataset");
    for g in gpu_counts {
        print!("{:>18}", format!("{g} GPU{}", if *g > 1 { "s" } else { "" }));
    }
    println!();
    for (i, (name, ms)) in rows.iter().enumerate() {
        print!("{name:<22}");
        for (j, v) in ms.iter().enumerate() {
            let cell = match baseline {
                Some(base) => {
                    let b = base[i].1[j];
                    format!("{:.5} (x{:.2})", round_sig(*v), b / v)
                }
                None => format!("{:.5} (x1)", round_sig(*v)),
            };
            print!("{cell:>18}");
        }
        println!();
    }
}

/// Round to ~3 significant figures for table readability.
pub fn round_sig(v: f64) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let mag = v.abs().log10().floor();
    let factor = 10f64.powf(2.0 - mag);
    (v * factor).round() / factor
}

/// Self-relative strong-scaling series: `ms[i] → ms[0] / ms[i]`.
pub fn relative_speedup(ms: &[f64]) -> Vec<f64> {
    if ms.is_empty() {
        return Vec::new();
    }
    ms.iter().map(|&v| ms[0] / v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build_quick() {
        let all = Dataset::all(Scale::Tiny);
        assert_eq!(all.len(), 6);
        for d in &all {
            assert!(d.graph.n_edges() > 0);
            assert_eq!(d.partition(4).n_parts(), 4);
            assert_eq!(d.partition(1).n_parts(), 1);
        }
    }

    #[test]
    fn all_nvlink_framework_runners_work() {
        let ds = Dataset::build(Preset::by_name("road_usa_s").unwrap(), Scale::Tiny);
        let (run, events) = (RunConfig::default(), EventTally::default());
        for f in BFS_NVLINK_FRAMEWORKS {
            assert!(bfs_nvlink_ms(f, &ds, 2, run, &events) > 0.0, "{f}");
        }
        for f in PR_NVLINK_FRAMEWORKS {
            assert!(pr_nvlink_ms(f, &ds, 2, run, &events) > 0.0, "{f}");
        }
        assert!(events.total() > 0, "every run lands in the caller's tally");
    }

    #[test]
    fn ib_runners_work() {
        let ds = Dataset::build(Preset::by_name("hollywood_2009_s").unwrap(), Scale::Tiny);
        for f in ["Galois", "Atos"] {
            for app in ["bfs", "pr"] {
                let (run, events) = (RunConfig::default(), EventTally::default());
                assert!(ib_ms(f, app, &ds, 2, run, &events) > 0.0, "{f}/{app}");
            }
        }
    }

    #[test]
    fn relative_speedup_is_self_normalized() {
        let s = relative_speedup(&[10.0, 5.0, 2.5]);
        assert_eq!(s, vec![1.0, 2.0, 4.0]);
        assert!(relative_speedup(&[]).is_empty());
    }

    #[test]
    fn rounding_keeps_three_figures() {
        assert_eq!(round_sig(1234.5), 1230.0);
        assert_eq!(round_sig(0.0123456), 0.0123);
        assert_eq!(round_sig(0.0), 0.0);
    }
}
