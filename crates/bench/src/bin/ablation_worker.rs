//! Ablation: worker granularity (thread / warp / CTA) and fetch size.
//!
//! The paper fixes 512-thread CTA workers ("which achieve the best
//! performance for both BFS and PageRank") citing its single-GPU
//! predecessor for the sweep; this binary reproduces that sweep on the
//! simulator's cost model: smaller workers lose neighbor-list coalescing
//! (higher per-edge cost), larger fetch amortizes pops but delays
//! communication.
//!
//! Each (worker shape, fetch) point is one sweep cell.

use atos_apps::bfs::BfsApp;
use atos_bench::{sweep::exit_usage, BenchArgs, Dataset, SweepReport, SweepRunner};
use atos_core::{AtosConfig, Runtime, WorkerConfig, WorkerSize};
use atos_graph::generators::Preset;
use atos_sim::Fabric;

fn main() {
    let args = BenchArgs::parse();
    // Each point builds its own `Runtime` on the worker shape's cost model
    // and runs it sequentially; refuse the run flags rather than ignore them.
    if let Err(e) = args.require_default_run("ablation_worker") {
        exit_usage(&e);
    }
    let report = SweepReport::start("ablation_worker", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let ds = Dataset::build(Preset::by_name("soc-LiveJournal1_s").unwrap(), args.scale);
    let part = ds.partition(4);

    println!("Worker-shape ablation: BFS soc-LiveJournal1_s, 4 NVLink GPUs\n");
    println!(
        "{:<14}{:>8}{:>14}{:>14}{:>12}",
        "worker", "fetch", "time (ms)", "steps", "messages"
    );
    let shapes = [
        ("thread", WorkerSize::Thread),
        ("warp", WorkerSize::Warp),
        ("cta-256", WorkerSize::Cta(256)),
        ("cta-512", WorkerSize::Cta(512)),
    ];
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for s in 0..shapes.len() {
        for fetch in [8usize, 32, 128] {
            cells.push((s, fetch));
        }
    }
    let rows = SweepRunner::from_args(&args).run(&cells, |_, &(s, fetch)| {
        let worker = WorkerConfig {
            size: shapes[s].1,
            fetch,
            num_workers: 160,
        };
        let cfg = AtosConfig {
            worker,
            ..AtosConfig::standard_persistent()
        };
        let app = BfsApp::new(ds.graph.clone(), part.clone(), ds.source);
        let mut rt = Runtime::with_cost_model(app, Fabric::daisy(4), cfg, worker.cost_model());
        rt.seed(part.owner(ds.source), [(ds.source, 0u32)]);
        let stats = rt.run();
        format!(
            "{:<14}{:>8}{:>14.3}{:>14}{:>12}",
            shapes[s].0,
            fetch,
            report.events.ms_of(&stats),
            stats.steps_per_pe.iter().sum::<u64>(),
            stats.messages
        )
    });
    for r in rows {
        println!("{r}");
    }
    println!("\nCTA workers win on scale-free graphs: coalesced neighbor-list");
    println!("reads dominate, and the per-pop overhead amortizes across lanes.");
    report.finish();
}
