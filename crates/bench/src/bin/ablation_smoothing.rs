//! Ablation: communication smoothing.
//!
//! The paper's claim (Sections I and IV): Atos's spread-out, fine-grained
//! communication "smooths the spikes in network communication that
//! typically occur when communication is isolated in a single phase".
//! This binary quantifies it: traffic burstiness (coefficient of variation
//! of wire bytes per [`atos_sim::trace::BUCKET_NS`] bucket) and
//! peak-to-mean ratio for each framework on the same workload.
//!
//! The five framework runs are independent; each is one sweep cell.

use atos_apps::bfs::run_bfs_sharded;
use atos_apps::pagerank::run_pagerank_sharded;
use atos_baselines::{bsp_bfs, bsp_pagerank, groute_bfs};
use atos_bench::{BenchArgs, Dataset, SweepReport, SweepRunner, ALPHA, EPSILON};
use atos_core::{AtosConfig, RunStats};
use atos_graph::generators::Preset;
use atos_sim::Fabric;

fn row(name: &str, stats: &RunStats) {
    println!(
        "{:<42}{:>12.3}{:>12}{:>14.2}{:>16.1}",
        name,
        stats.elapsed_ms(),
        stats.messages,
        stats.burstiness.unwrap_or(f64::NAN),
        stats.wire_bytes as f64 / 1e6,
    );
}

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("ablation_smoothing", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let ds = Dataset::build(Preset::by_name("soc-LiveJournal1_s").unwrap(), args.scale);
    let part = ds.partition(4);

    println!("Communication smoothing, BFS + PageRank on soc-LiveJournal1_s, 4 GPUs\n");
    println!(
        "{:<42}{:>12}{:>12}{:>14}{:>16}",
        "framework", "time (ms)", "messages", "burstiness", "wire MB"
    );

    let labels = [
        "BFS: Gunrock-like (BSP)",
        "BFS: Groute-like",
        "BFS: Atos (queue+persistent)",
        "PR: Gunrock-like (BSP)",
        "PR: Atos (queue+persistent)",
    ];
    let cells: Vec<usize> = (0..labels.len()).collect();
    let atos_cfg = AtosConfig::standard_persistent().with_lb(args.run.load_balance);
    let runs = SweepRunner::from_args(&args).run(&cells, |_, &which| {
        let stats = match which {
            0 => bsp_bfs(ds.graph.clone(), part.clone(), ds.source, Fabric::daisy(4)).stats,
            1 => groute_bfs(ds.graph.clone(), part.clone(), ds.source, Fabric::daisy(4)).stats,
            2 => {
                run_bfs_sharded(
                    ds.graph.clone(),
                    part.clone(),
                    ds.source,
                    Fabric::daisy(4),
                    atos_cfg,
                    args.run.sim_threads,
                )
                .stats
            }
            3 => {
                bsp_pagerank(ds.graph.clone(), part.clone(), ALPHA, EPSILON, Fabric::daisy(4))
                    .stats
            }
            _ => {
                run_pagerank_sharded(
                    ds.graph.clone(),
                    part.clone(),
                    ALPHA,
                    EPSILON,
                    Fabric::daisy(4),
                    atos_cfg,
                    args.run.sim_threads,
                )
                .stats
            }
        };
        report.events.ms_of(&stats);
        stats
    });
    for (label, stats) in labels.iter().zip(&runs) {
        row(label, stats);
    }

    println!("\nLower burstiness = smoother interconnect usage. BSP isolates all");
    println!("traffic at iteration barriers; Atos issues one-sided pushes from");
    println!("inside the kernel, spreading bytes across the whole runtime.");
    report.finish();
}
