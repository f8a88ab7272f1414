//! Figure 2: bandwidth efficiency (fraction of wire bytes that are
//! payload) vs. requested bytes, on PCIe gen 3 and NVLink.
//!
//! The series are closed-form packet-model evaluations — far too cheap to
//! be worth fanning out — so this binary only adopts the shared CLI and
//! timing report.

use atos_bench::{BenchArgs, SweepReport};
use atos_sim::packet::{figure2_series, PacketModel};

fn main() {
    let args = BenchArgs::parse();
    let report = SweepReport::start("fig2_efficiency", &args);
    atos_bench::emit_artifacts(&args, &report.events);
    println!("Figure 2: bandwidth efficiency vs requested bytes");
    println!("{:<18}{:>14}{:>14}", "requested bytes", "PCIe gen 3", "NVLink");
    let pcie = figure2_series(PacketModel::PcieGen3);
    let nv = figure2_series(PacketModel::NvLink);
    for (p, n) in pcie.iter().zip(&nv) {
        assert_eq!(p.0, n.0);
        println!(
            "{:<18}{:>13.1}%{:>13.1}%",
            p.0,
            p.1 * 100.0,
            n.1 * 100.0
        );
    }
    report.finish();
}
