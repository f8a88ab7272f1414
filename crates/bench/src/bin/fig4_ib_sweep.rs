//! Figure 4: message latency and achieved bandwidth vs. message size on
//! the InfiniBand system; identifies the batch-size sweet spot the
//! aggregator uses (the paper picks 2^20 B).
//!
//! "each send is performed as a blocking send operation followed by a
//! system memory fence ... and a remote counter update" — modeled as a
//! GPU-initiated transfer of the payload followed by an 8-byte counter
//! update on the same path.
//!
//! Each message size is one sweep cell (a fresh two-node fabric per
//! point, so cells are independent).

use atos_bench::{BenchArgs, SweepReport, SweepRunner};
use atos_sim::{ControlPath, Fabric, PeId};

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("fig4_ib_sweep", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    println!("Figure 4: IB latency and bandwidth vs message size");
    println!(
        "{:<14}{:>16}{:>18}",
        "log2(bytes)", "latency (ms)", "bandwidth (GB/s)"
    );
    let cp = ControlPath::gpu_direct();
    let sizes: Vec<u32> = (0..=30u32).collect();
    let points = SweepRunner::from_args(&args).run(&sizes, |_, &lg| {
        let bytes = 1u64 << lg;
        let mut fabric = Fabric::ib_cluster(2);
        let t0 = 0;
        let arrive = fabric.transfer(t0, PeId(0), PeId(1), bytes, cp);
        // Trailing 8-byte counter update (flag the receiver).
        let done = fabric.transfer(arrive, PeId(0), PeId(1), 8, cp);
        let latency_ms = done as f64 / 1e6;
        let bw = bytes as f64 / (done as f64); // bytes/ns == GB/s
        (latency_ms, bw)
    });
    let mut best = (0u32, f64::MAX);
    for (lg, &(latency_ms, bw)) in sizes.iter().zip(&points) {
        println!("{lg:<14}{latency_ms:>16.4}{bw:>18.3}");
        // Score the latency/bandwidth knee like the paper: smallest size
        // within 90% of peak bandwidth.
        if bw > 0.9 * 12.5 && latency_ms < best.1 {
            best = (*lg, latency_ms);
        }
    }
    println!(
        "\nKnee: 2^{} bytes reaches >90% of peak injection bandwidth at {:.3} ms latency",
        best.0, best.1
    );
    println!("(The paper selects BATCH_SIZE = 2^20 B = 1 MiB.)");
    report.finish();
}
