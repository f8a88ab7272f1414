//! Figure 8: strong scaling of BFS on four datasets on the 8-node
//! InfiniBand system (speedup relative to each framework's own 1-GPU
//! runtime). Cells are fanned over the parallel sweep harness.

use atos_bench::{ib_ms, relative_speedup, BenchArgs, Dataset, SweepReport, SweepRunner};
use atos_graph::generators::Preset;

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("fig8_scaling_ib_bfs", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let gpus = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let frameworks = ["Galois", "Atos"];
    let datasets: Vec<Dataset> = Preset::SCALING
        .iter()
        .map(|n| Dataset::build(Preset::by_name(n).unwrap(), args.scale))
        .collect();

    let mut cells: Vec<(usize, usize, usize)> = Vec::new();
    for d in 0..datasets.len() {
        for f in 0..frameworks.len() {
            for &g in &gpus {
                cells.push((d, f, g));
            }
        }
    }
    let ms = SweepRunner::from_args(&args).run(&cells, |_, &(d, f, g)| {
        ib_ms(frameworks[f], "bfs", &datasets[d], g, args.run, &report.events)
    });

    println!("Figure 8: BFS strong scaling on Summit (IB), self-relative");
    let mut it = ms.iter();
    for ds in &datasets {
        println!("\n-- {} --", ds.preset.name);
        print!("{:<10}", "framework");
        for g in gpus {
            print!("{:>8}", format!("{g}GPU"));
        }
        println!();
        for fw in frameworks {
            let series: Vec<f64> = gpus.iter().map(|_| *it.next().unwrap()).collect();
            print!("{fw:<10}");
            for r in relative_speedup(&series) {
                print!("{r:>8.2}");
            }
            println!();
        }
    }
    report.finish();
}
