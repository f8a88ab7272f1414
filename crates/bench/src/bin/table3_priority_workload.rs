//! Table III: normalized BFS workload without → with the priority queue,
//! plus the same priority story told end-to-end: Dijkstra-order vs
//! delta-stepping SSSP.
//!
//! The BFS block counts total vertex visits normalized by an ideal
//! traversal that visits each reachable vertex exactly once, for the
//! scale-free datasets on 1–4 NVLink GPUs. The paper's claim: speculation
//! causes redundant work that grows with GPU count, and depth-ordered
//! priority scheduling reduces it.
//!
//! The SSSP block promotes the priority workload to a first-class
//! algorithm comparison: Dijkstra-order SSSP (priority queue, delta = 1 —
//! work-optimal but serializing) against light/heavy split delta-stepping
//! ([`atos_apps::sssp::run_sssp_delta_sharded`], delta = 8), reporting virtual
//! milliseconds. Both formulations are asserted to produce identical
//! distances before either number is printed.
//!
//! Each (dataset, gpus) cell runs both configurations and is one unit of
//! the parallel sweep.

use std::sync::Arc;

use atos_apps::bfs::run_bfs_sharded;
use atos_apps::sssp::{run_sssp_delta_sharded, run_sssp_sharded};
use atos_bench::{BenchArgs, Dataset, SweepReport, SweepRunner};
use atos_core::AtosConfig;
use atos_graph::generators::GraphKind;
use atos_graph::weights::EdgeWeights;
use atos_sim::Fabric;

/// Delta-stepping bucket width for the SSSP block (weights are 1..=64,
/// so delta 8 leaves most edges heavy — the regime where the split
/// matters).
const SSSP_DELTA: u64 = 8;
/// Maximum edge weight for the SSSP block's synthetic weights.
const SSSP_MAX_WEIGHT: u32 = 64;
/// Seed for the SSSP block's synthetic weights.
const SSSP_WEIGHT_SEED: u64 = 1;

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("table3_priority_workload", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let gpus = [1usize, 2, 3, 4];
    let (lb, shards) = (args.run.load_balance, args.run.sim_threads);
    let datasets: Vec<Dataset> = Dataset::all(args.scale)
        .into_iter()
        .filter(|ds| ds.preset.kind == GraphKind::ScaleFree)
        .collect();

    let mut cells: Vec<(usize, usize)> = Vec::new();
    for d in 0..datasets.len() {
        for &g in &gpus {
            cells.push((d, g));
        }
    }
    let pairs = SweepRunner::from_args(&args).run(&cells, |_, &(d, g)| {
        let ds = &datasets[d];
        let part = ds.partition(g);
        let fifo = run_bfs_sharded(
            ds.graph.clone(),
            part.clone(),
            ds.source,
            Fabric::daisy(g),
            AtosConfig::standard_persistent().with_lb(lb),
            shards,
        );
        let prio = run_bfs_sharded(
            ds.graph.clone(),
            part,
            ds.source,
            Fabric::daisy(g),
            AtosConfig::priority_discrete().with_lb(lb),
            shards,
        );
        report.events.ms_of(&fifo.stats);
        report.events.ms_of(&prio.stats);
        (fifo.normalized_workload(), prio.normalized_workload())
    });

    println!("Table III: normalized workload without -> with priority queue");
    print!("{:<22}", "Dataset");
    for g in gpus {
        print!("{:>18}", format!("{g} GPU{}", if g > 1 { "s" } else { "" }));
    }
    println!();
    let mut it = pairs.iter();
    for ds in &datasets {
        print!("{:<22}", ds.preset.name);
        for _ in gpus {
            let (fifo, prio) = it.next().unwrap();
            print!("{:>18}", format!("{fifo:.3} -> {prio:.3}"));
        }
        println!();
    }

    let sssp_pairs = SweepRunner::from_args(&args).run(&cells, |_, &(d, g)| {
        let ds = &datasets[d];
        let part = ds.partition(g);
        let weights = Arc::new(EdgeWeights::random(&ds.graph, SSSP_MAX_WEIGHT, SSSP_WEIGHT_SEED));
        let dij = run_sssp_sharded(
            ds.graph.clone(),
            weights.clone(),
            part.clone(),
            ds.source,
            1,
            Fabric::daisy(g),
            AtosConfig::priority_discrete().with_lb(lb),
            shards,
        );
        let delta = run_sssp_delta_sharded(
            ds.graph.clone(),
            weights,
            part,
            ds.source,
            SSSP_DELTA,
            Fabric::daisy(g),
            AtosConfig::priority_discrete().with_lb(lb),
            shards,
        );
        assert_eq!(
            delta.dist, dij.dist,
            "delta-stepping diverged from Dijkstra-order on {} at {g} GPUs",
            ds.preset.name
        );
        (report.events.ms_of(&dij.stats), report.events.ms_of(&delta.stats))
    });

    println!();
    println!("SSSP: Dijkstra-order (delta=1) -> delta-stepping (delta={SSSP_DELTA}), virtual ms");
    print!("{:<22}", "Dataset");
    for g in gpus {
        print!("{:>22}", format!("{g} GPU{}", if g > 1 { "s" } else { "" }));
    }
    println!();
    let mut it = sssp_pairs.iter();
    for ds in &datasets {
        print!("{:<22}", ds.preset.name);
        for _ in gpus {
            let (dij, delta) = it.next().unwrap();
            print!("{:>22}", format!("{dij:.3} -> {delta:.3}"));
        }
        println!();
    }
    report.finish();
}
