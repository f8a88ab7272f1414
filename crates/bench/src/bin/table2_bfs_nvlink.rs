//! Table II: BFS runtimes in ms (speedup vs. Gunrock in parentheses) on
//! Daisy (NVLink), 1–4 GPUs, four frameworks × six datasets.
//!
//! The 96 (framework, dataset, gpus) cells are independent simulated runs
//! fanned over the sweep harness; results are keyed by grid index, so the
//! table is byte-identical at any `--threads` setting.

use atos_bench::{
    bfs_nvlink_ms, print_table_block, BenchArgs, Dataset, SweepReport, SweepRunner,
    BFS_NVLINK_FRAMEWORKS,
};

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("table2_bfs_nvlink", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let datasets = Dataset::all(args.scale);
    let gpus = [1usize, 2, 3, 4];

    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for f in 0..BFS_NVLINK_FRAMEWORKS.len() {
        for d in 0..datasets.len() {
            for &g in &gpus {
                cells.push((f, d, g));
            }
        }
    }
    let ms = SweepRunner::from_args(&args).run(&cells, |_, &(f, d, g)| {
        bfs_nvlink_ms(BFS_NVLINK_FRAMEWORKS[f], &datasets[d], g, args.run, &report.events)
    });

    let mut it = ms.iter();
    let matrices: Vec<Vec<(String, Vec<f64>)>> = BFS_NVLINK_FRAMEWORKS
        .iter()
        .map(|_| {
            datasets
                .iter()
                .map(|ds| {
                    (
                        format!("{}{}", ds.preset.name, ds.preset.kind.suffix()),
                        gpus.iter().map(|_| *it.next().unwrap()).collect(),
                    )
                })
                .collect()
        })
        .collect();

    println!("Table II: BFS runtimes in ms (speedup vs Gunrock) on Daisy (NVLink)");
    let gunrock = matrices[0].clone();
    for (i, fw) in BFS_NVLINK_FRAMEWORKS.iter().enumerate() {
        let base = if i == 0 { None } else { Some(gunrock.as_slice()) };
        print_table_block(&format!("BFS on {fw}"), &gpus, &matrices[i], base);
    }
    report.finish();
}
