//! Table I: summary of the datasets used in the experiments.
//!
//! Prints vertex/edge counts, estimated diameter, degree extremes, and the
//! structural family for each scaled preset, to be compared against the
//! paper's Table I originals (EXPERIMENTS.md holds the side-by-side).
//!
//! Dataset construction + statistics are the cost here, so each preset is
//! one sweep cell; rows print in preset order regardless of thread count.

use atos_bench::{BenchArgs, Dataset, SweepReport, SweepRunner};
use atos_graph::generators::Preset;
use atos_graph::stats::stats;

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("table1_datasets", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    println!("Table I: summary of the datasets (scaled presets, {:?})", args.scale);
    println!(
        "{:<22}{:>10}{:>12}{:>8}{:>12}{:>12}{:>8}  type",
        "Dataset", "Vertices", "Edges", "Diam.", "Max indeg", "Max outdeg", "Avg",
    );
    let rows = SweepRunner::from_args(&args).run(&Preset::ALL, |_, preset| {
        let ds = Dataset::build(*preset, args.scale);
        let s = stats(&ds.graph);
        format!(
            "{:<22}{:>10}{:>12}{:>8}{:>12}{:>12}{:>8.1}  {}",
            ds.preset.name,
            s.vertices,
            s.edges,
            s.diameter_est,
            s.max_in_degree,
            s.max_out_degree,
            s.avg_degree,
            match ds.preset.kind {
                atos_graph::generators::GraphKind::ScaleFree => "scale-free",
                atos_graph::generators::GraphKind::MeshLike => "mesh-like",
            }
        )
    });
    for row in rows {
        println!("{row}");
    }
    report.finish();
}
