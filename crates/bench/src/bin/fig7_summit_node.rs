//! Figures 6 & 7: latency tolerance across NVLink topologies.
//!
//! Figure 6 contrasts the all-to-all Daisy topology with a Summit node's
//! dual-socket layout, where cross-socket traffic pays X-bus latency.
//! Figure 7 strong-scales Gunrock vs Atos on one Summit node (1–6 GPUs)
//! for BFS (soc-LiveJournal1, indochina) and PageRank (same), showing
//! Gunrock's scaling collapse beyond 3 GPUs and Atos's latency tolerance.
//!
//! Each (dataset, app, framework, gpus) cell is one sweep unit.

use std::sync::Arc;

use atos_apps::bfs::run_bfs_sharded;
use atos_apps::pagerank::run_pagerank_sharded;
use atos_baselines::{bsp_bfs, bsp_pagerank};
use atos_bench::{relative_speedup, BenchArgs, Dataset, SweepReport, SweepRunner, ALPHA, EPSILON};
use atos_core::AtosConfig;
use atos_graph::generators::Preset;
use atos_graph::partition::Partition;
use atos_sim::Fabric;

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("fig7_summit_node", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let gpus = [1usize, 2, 3, 4, 5, 6];
    let names = ["soc-LiveJournal1_s", "indochina_2004_s"];
    let apps = ["BFS", "PageRank"];
    let frameworks = ["Gunrock", "Atos"];
    let datasets: Vec<Dataset> = names
        .iter()
        .map(|n| Dataset::build(Preset::by_name(n).unwrap(), args.scale))
        .collect();

    let mut cells: Vec<(usize, usize, usize, usize)> = Vec::new();
    for d in 0..datasets.len() {
        for a in 0..apps.len() {
            for f in 0..frameworks.len() {
                for &g in &gpus {
                    cells.push((d, a, f, g));
                }
            }
        }
    }
    let ms = SweepRunner::from_args(&args).run(&cells, |_, &(d, a, f, g)| {
        let ds = &datasets[d];
        let part = if g == 1 {
            Arc::new(Partition::single(ds.graph.n_vertices()))
        } else {
            Arc::new(Partition::bfs_grow(&ds.graph, g, 42))
        };
        let fabric = Fabric::summit_node(g);
        let stats = match (frameworks[f], apps[a]) {
            ("Gunrock", "BFS") => bsp_bfs(ds.graph.clone(), part, ds.source, fabric).stats,
            ("Gunrock", _) => {
                bsp_pagerank(ds.graph.clone(), part, ALPHA, EPSILON, fabric).stats
            }
            ("Atos", "BFS") => run_bfs_sharded(
                ds.graph.clone(),
                part,
                ds.source,
                fabric,
                AtosConfig::priority_discrete().with_lb(args.run.load_balance),
                args.run.sim_threads,
            )
            .stats,
            ("Atos", _) => run_pagerank_sharded(
                ds.graph.clone(),
                part,
                ALPHA,
                EPSILON,
                fabric,
                AtosConfig::standard_discrete().with_lb(args.run.load_balance),
                args.run.sim_threads,
            )
            .stats,
            _ => unreachable!(),
        };
        report.events.ms_of(&stats)
    });

    println!("Figure 7: strong scaling on one Summit node (dual-socket NVLink)");
    println!("(Figure 6's two topologies are Fabric::daisy and Fabric::summit_node.)");
    let mut it = ms.iter();
    for name in names {
        for app in apps {
            println!("\n-- {app}-{name} --");
            print!("{:<22}", "framework");
            for g in gpus {
                print!("{:>10}", format!("{g} GPU"));
            }
            println!();
            for fw in frameworks {
                let series: Vec<f64> = gpus.iter().map(|_| *it.next().unwrap()).collect();
                let rel = relative_speedup(&series);
                print!("{fw:<22}");
                for r in rel {
                    print!("{r:>10.2}");
                }
                println!();
            }
        }
    }
    report.finish();
}
