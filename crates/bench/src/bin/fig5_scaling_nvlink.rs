//! Figure 5: strong scaling of BFS (left) and PageRank (right) on four
//! datasets on the NVLink system. Each framework's speedup is relative to
//! its own single-GPU runtime (self-to-self).
//!
//! Every (app, dataset, framework, gpus) cell is one sweep unit; the
//! self-relative normalization happens after the grid completes.

use atos_bench::{
    bfs_nvlink_ms, pr_nvlink_ms, relative_speedup, BenchArgs, Dataset, SweepReport, SweepRunner,
    BFS_NVLINK_FRAMEWORKS, PR_NVLINK_FRAMEWORKS,
};
use atos_graph::generators::Preset;

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("fig5_scaling_nvlink", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let gpus = [1usize, 2, 3, 4];
    let datasets: Vec<Dataset> = Preset::SCALING
        .iter()
        .map(|n| Dataset::build(Preset::by_name(n).unwrap(), args.scale))
        .collect();
    let apps = [
        ("BFS", BFS_NVLINK_FRAMEWORKS.as_slice()),
        ("PageRank", PR_NVLINK_FRAMEWORKS.as_slice()),
    ];

    let mut cells: Vec<(usize, usize, usize, usize)> = Vec::new();
    for (a, (_, frameworks)) in apps.iter().enumerate() {
        for d in 0..datasets.len() {
            for f in 0..frameworks.len() {
                for &g in &gpus {
                    cells.push((a, d, f, g));
                }
            }
        }
    }
    let ms = SweepRunner::from_args(&args).run(&cells, |_, &(a, d, f, g)| {
        let fw = apps[a].1[f];
        if apps[a].0 == "BFS" {
            bfs_nvlink_ms(fw, &datasets[d], g, args.run, &report.events)
        } else {
            pr_nvlink_ms(fw, &datasets[d], g, args.run, &report.events)
        }
    });

    let mut it = ms.iter();
    for (app, frameworks) in apps {
        println!("\nFigure 5 ({app}): relative speedup vs own 1-GPU runtime");
        for ds in &datasets {
            println!("\n-- {} --", ds.preset.name);
            print!("{:<40}", "framework");
            for g in gpus {
                print!("{:>10}", format!("{g} GPU"));
            }
            println!();
            for fw in frameworks {
                let series: Vec<f64> = gpus.iter().map(|_| *it.next().unwrap()).collect();
                let rel = relative_speedup(&series);
                print!("{fw:<40}");
                for r in rel {
                    print!("{r:>10.2}");
                }
                println!();
            }
        }
    }
    report.finish();
}
