//! Figure 1: runtime of concurrent push / pop / pop-and-push vs. thread
//! count for our counter queue (warp and CTA workers), the broker queue,
//! and the CAS queue (warp and CTA).
//!
//! This is the one experiment that runs on *real host threads and
//! atomics*, not the simulator — the queue algorithms are memory-model
//! constructs and their contention behavior is measured directly. For
//! that reason the measurement loop stays serial regardless of
//! `--threads`: fanning contention measurements over sweep workers would
//! have them steal each other's cores and corrupt the timings. The flag
//! is still accepted (and recorded in the report) for interface
//! uniformity.

use atos_bench::{BenchArgs, SweepReport};
use atos_graph::generators::Scale;
use atos_queue::bench_harness::{run, Experiment, QueueKind, OPS_PER_VIRTUAL_THREAD};

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("fig1_queue", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    let points: Vec<usize> = if args.scale == Scale::Tiny {
        vec![1 << 10, 1 << 13]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 96 * 1024, 128 * 1024]
    };
    println!(
        "Figure 1: queue microbenchmarks ({} ops per virtual thread)",
        OPS_PER_VIRTUAL_THREAD
    );
    for exp in Experiment::ALL {
        println!("\n== {} ==", exp.label());
        print!("{:<18}", "#threads");
        for kind in QueueKind::ALL {
            print!("{:>18}", kind.label());
        }
        println!();
        for &n in &points {
            print!("{n:<18}");
            for kind in QueueKind::ALL {
                // Median of 3 to damp scheduler noise.
                let mut ts: Vec<f64> = (0..3)
                    .map(|_| run(kind, exp, n).elapsed.as_secs_f64() * 1e3)
                    .collect();
                ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
                print!("{:>18}", format!("{:.3} ms", ts[1]));
            }
            println!();
        }
    }
    report.finish();
}
