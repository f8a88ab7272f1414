//! Determinism under parallelism.
//!
//! The sweep harness promises that `--threads N` only changes wall-clock
//! time, never output: the simulation is a pure function of its inputs
//! and results are keyed by grid index. These tests pin that down two
//! ways: byte-identical stdout of an actual table at 1 vs 4 worker
//! threads, and bit-identical run statistics for repeated runs of the
//! same configuration. (`registry.rs` holds the per-experiment flag
//! contract.)

use std::process::{Command, Output};

use atos_bench::{registry, run_cell, App, Dataset, SweepRunner, System};
use atos_graph::generators::{Preset, Scale};

/// Run `atos-bench` with `args`.
fn atos_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atos-bench"))
        .args(args)
        .output()
        .expect("binary should spawn")
}

#[test]
fn table2_stdout_is_byte_identical_across_thread_counts() {
    let serial = atos_bench(&["table2_bfs_nvlink", "--quick", "--threads", "1"]);
    let parallel = atos_bench(&["table2_bfs_nvlink", "--quick", "--threads", "4"]);
    assert!(
        serial.status.success() && parallel.status.success(),
        "table2_bfs_nvlink --quick should succeed"
    );
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must not depend on the worker-thread count"
    );
}

#[test]
fn same_configuration_runs_twice_identically() {
    // Bit-identical virtual times for repeated identical configs — the
    // simulator has no hidden global state, so the sweep can run cells in
    // any order on any thread.
    let ds = Dataset::build(Preset::by_name("road_usa_s").unwrap(), Scale::Tiny);
    for (system, app, framework, gpus) in [
        (System::Nvlink, App::Bfs, "Atos (queue+persistent kernel)", 3),
        (System::Ib, App::PageRank, "Atos", 2),
    ] {
        let once = || run_cell(system, app, framework, &ds, gpus);
        let (a, b) = (once(), once());
        assert_eq!(a.elapsed_ns, b.elapsed_ns, "{system:?}/{app:?}");
        assert_eq!(a.sim_events, b.sim_events, "{system:?}/{app:?}");
    }
}

#[test]
fn sweep_grid_matches_serial_reference() {
    // The harness itself must hand back results exactly as a serial loop
    // would produce them, for a real grid: Figure 8's cells, enumerated
    // from its row of the experiment table.
    let spec = registry::grid("fig8_scaling_ib_bfs");
    let datasets = spec.datasets(Scale::Tiny);
    let cells = spec.cells();
    let cell = |c: &registry::Cell| spec.run_cell(c, &datasets).elapsed_ms();
    let serial: Vec<f64> = cells.iter().map(cell).collect();
    let parallel = SweepRunner::new(4).run(&cells, |_, c| cell(c));
    assert_eq!(serial, parallel);
}
