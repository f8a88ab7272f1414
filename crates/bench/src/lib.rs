//! The evaluation harness behind the `atos-bench` driver.
//!
//! `atos-bench <experiment>` regenerates one artifact of the paper's
//! evaluation; [`registry::EXPERIMENTS`] is the table of what it can run
//! (DESIGN.md §3 is the index). The six framework × dataset × GPU-count
//! grids are rows of data ([`registry::GridSpec`]) executed by one
//! function; the other experiments are functions in [`experiments`]. This
//! file holds what they share: dataset construction and the one framework
//! runner, [`run_cell`]. All runtimes are *virtual* milliseconds from the
//! simulator's clock; the paper's absolute numbers came from V100
//! hardware, so EXPERIMENTS.md compares *shapes* (who wins, by what
//! factor, how scaling trends) rather than absolute values.
//!
//! Every experiment accepts `--quick` to run on the tiny test-scale graphs
//! (the artifact appendix's "quick mode"), `--threads N` to fan the sweep
//! grid over worker threads (default: host parallelism). `atos-bench`
//! writes no file but the `reference` run's artifacts. [`sweep`] has the harness.

use std::sync::Arc;

pub mod experiments;
pub mod observability;
pub mod registry;
pub mod sweep;
pub mod trajectory;

pub use sweep::{BenchArgs, SweepRunner};

use atos_apps::bfs::run_bfs;
use atos_apps::pagerank::run_pagerank;
use atos_baselines::{bsp_bfs, bsp_pagerank, galois_config, groute_config};
use atos_core::{AtosConfig, RunStats};
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
/// affordable on a small host (full Table IV takes ≈ 2 min on 2 cores).
pub const EPSILON: f64 = 1e-5;

/// Restore the default `SIGPIPE` disposition so `<binary> | head` ends
/// the process quietly instead of panicking with a broken-pipe backtrace.
/// Called by every binary of this crate before printing.
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

    /// Build the preset called `name` (a [`Preset::ALL`] name) at `scale`.
    pub fn named(name: &str, scale: Scale) -> Self {
        Dataset::build(Preset::by_name(name).expect("preset table"), scale)
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

/// The two simulated systems of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Daisy: one node, all-to-all NVLink, 1–4 GPUs.
    Nvlink,
    /// Summit: one GPU per node over InfiniBand, 1–8 GPUs.
    Ib,
}

impl System {
    /// The system's fabric at `gpus` GPUs.
    pub fn fabric(self, gpus: usize) -> Fabric {
        match self {
            System::Nvlink => Fabric::daisy(gpus),
            System::Ib => Fabric::ib_cluster(gpus),
        }
    }
}

/// The two applications of the framework comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Breadth-first search from the dataset's source.
    Bfs,
    /// Push-based PageRank at [`ALPHA`] / [`EPSILON`].
    PageRank,
}

impl App {
    /// Name used in table and figure headings.
    pub fn label(self) -> &'static str {
        match self {
            App::Bfs => "BFS",
            App::PageRank => "PageRank",
        }
    }
}

/// One compared framework.
#[derive(Clone, Copy)]
pub enum Framework {
    /// Gunrock-like level-synchronous BSP (`atos_baselines::bsp`).
    Gunrock,
    /// A framework on the Atos runtime: its configuration for a dataset's
    /// graph (Atos presets, Groute, Galois).
    Config(fn(&Csr) -> AtosConfig),
}

/// The frameworks compared on `system` for `app`, labelled, in row order;
/// the first is the baseline the runtime tables quote speedups against.
pub fn frameworks(system: System, app: App) -> &'static [(&'static str, Framework)] {
    const GROUTE: (&str, Framework) = ("Groute", Framework::Config(|_| groute_config()));
    match (system, app) {
        (System::Nvlink, App::Bfs) => &[
            ("Gunrock", Framework::Gunrock),
            GROUTE,
            (
                "Atos (queue+persistent kernel)",
                Framework::Config(|_| AtosConfig::standard_persistent()),
            ),
            (
                "Atos (priority queue+discrete kernel)",
                Framework::Config(|_| AtosConfig::priority_discrete()),
            ),
        ],
        (System::Nvlink, App::PageRank) => &[
            ("Gunrock", Framework::Gunrock),
            GROUTE,
            (
                "Atos (discrete kernel)",
                Framework::Config(|_| AtosConfig::standard_discrete()),
            ),
            (
                "Atos (persistent kernel)",
                Framework::Config(|_| AtosConfig::standard_persistent()),
            ),
        ],
        (System::Ib, App::Bfs) => &[
            ("Galois", Framework::Config(galois_config)),
            ("Atos", Framework::Config(|_| AtosConfig::ib_bfs())),
        ],
        (System::Ib, App::PageRank) => &[
            ("Galois", Framework::Config(galois_config)),
            ("Atos", Framework::Config(|_| AtosConfig::ib_pagerank())),
        ],
    }
}

/// Run `framework` (one of [`frameworks`]`(system, app)`) on `ds` at
/// `gpus` GPUs.
pub fn run_cell(
    system: System,
    app: App,
    framework: Framework,
    ds: &Dataset,
    gpus: usize,
) -> RunStats {
    let (graph, part, fabric) = (ds.graph.clone(), ds.partition(gpus), system.fabric(gpus));
    match (framework, app) {
        (Framework::Gunrock, App::Bfs) => bsp_bfs(graph, part, ds.source, fabric).stats,
        (Framework::Gunrock, App::PageRank) => {
            bsp_pagerank(graph, part, ALPHA, EPSILON, fabric).stats
        }
        (Framework::Config(config), App::Bfs) => {
            let cfg = config(&graph);
            run_bfs(graph, part, ds.source, fabric, cfg).stats
        }
        (Framework::Config(config), App::PageRank) => {
            let cfg = config(&graph);
            run_pagerank(graph, part, ALPHA, EPSILON, fabric, cfg).stats
        }
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
    fn every_framework_of_every_system_runs() {
        let ds = Dataset::build(Preset::by_name("road_usa_s").unwrap(), Scale::Tiny);
        for system in [System::Nvlink, System::Ib] {
            for app in [App::Bfs, App::PageRank] {
                for &(label, f) in frameworks(system, app) {
                    let stats = run_cell(system, app, f, &ds, 2);
                    assert!(stats.elapsed_ms() > 0.0, "{system:?}/{app:?}/{label}");
                }
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
