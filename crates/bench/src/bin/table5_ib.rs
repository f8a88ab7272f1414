//! Table V: BFS and PageRank runtimes in ms (speedups vs. Galois) on
//! Summit (InfiniBand), one GPU per node, 1–8 GPUs.
//!
//! The (app, dataset, framework, gpus) grid is fanned over the sweep
//! harness; results are keyed by grid index, so the table is
//! byte-identical at any `--threads` setting.

use atos_bench::{ib_ms, print_table_block, BenchArgs, Dataset, SweepReport, SweepRunner};

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("table5_ib", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let datasets = Dataset::all(args.scale);
    let gpus = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let apps = ["bfs", "pr"];
    let frameworks = ["Galois", "Atos"];

    let mut cells: Vec<(usize, usize, usize, usize)> = Vec::new();
    for a in 0..apps.len() {
        for d in 0..datasets.len() {
            for f in 0..frameworks.len() {
                for &g in &gpus {
                    cells.push((a, d, f, g));
                }
            }
        }
    }
    let ms = SweepRunner::from_args(&args).run(&cells, |_, &(a, d, f, g)| {
        ib_ms(frameworks[f], apps[a], &datasets[d], g, args.run, &report.events)
    });

    println!("Table V: BFS and PageRank runtimes in ms (speedups vs Galois) on Summit (IB)");
    let mut it = ms.iter();
    for app in apps {
        let title = if app == "bfs" { "BFS" } else { "PageRank" };
        let mut galois_rows = Vec::new();
        let mut atos_rows = Vec::new();
        for ds in &datasets {
            let label = format!("{}{}", ds.preset.name, ds.preset.kind.suffix());
            let gms: Vec<f64> = gpus.iter().map(|_| *it.next().unwrap()).collect();
            let ams: Vec<f64> = gpus.iter().map(|_| *it.next().unwrap()).collect();
            galois_rows.push((label.clone(), gms));
            atos_rows.push((label, ams));
        }
        print_table_block(&format!("{title} on Galois"), &gpus, &galois_rows, None);
        print_table_block(
            &format!("{title} on Atos"),
            &gpus,
            &atos_rows,
            Some(&galois_rows),
        );
    }
    report.finish();
}
