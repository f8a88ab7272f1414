//! Determinism under parallelism.
//!
//! The sweep harness promises that `--threads N` only changes wall-clock
//! time, never output: the simulation is a pure function of its inputs
//! and results are keyed by grid index. These tests pin that down two
//! ways: byte-identical stdout of an actual table at 1 vs 4 worker
//! threads, and bit-identical run statistics for repeated runs of the
//! same configuration. (`registry.rs` holds the per-experiment flag
//! contract.)

use std::path::PathBuf;
use std::process::{Command, Output};

use atos_bench::{registry, run_cell, App, Dataset, EventTally, RunConfig, SweepRunner, System};
use atos_graph::generators::{Preset, Scale};

/// Run `atos-bench` with `args`, its report going to `json`.
fn atos_bench(args: &[&str], json: &std::path::Path) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_atos-bench"));
    cmd.args(args).arg("--json").arg(json);
    cmd.output().expect("binary should spawn")
}

#[test]
fn table2_stdout_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("atos-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json: PathBuf = dir.join("sweep.json");

    let serial = atos_bench(&["table2_bfs_nvlink", "--quick", "--threads", "1"], &json);
    let parallel = atos_bench(&["table2_bfs_nvlink", "--quick", "--threads", "4"], &json);
    assert!(
        serial.status.success() && parallel.status.success(),
        "table2_bfs_nvlink --quick should succeed"
    );
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must not depend on the worker-thread count"
    );
    // The timing report must exist and carry this experiment's entry.
    let report = std::fs::read_to_string(&json).expect("sweep report written");
    assert!(report.contains("\"table2_bfs_nvlink\""), "{report}");
    assert!(report.contains("\"threads\": 4"), "{report}");
    assert!(report.contains("\"sim_events\""), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
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
        let once = || run_cell(system, app, framework, &ds, gpus, RunConfig::default());
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
    let events = EventTally::default();
    let cell = |c: &registry::Cell| events.ms_of(&spec.run_cell(c, &datasets, RunConfig::default()));
    let serial: Vec<f64> = cells.iter().map(cell).collect();
    let serial_events = events.total();
    let parallel = SweepRunner::new(4).run(&cells, |_, c| cell(c));
    assert_eq!(serial, parallel);
    assert_eq!(events.total(), 2 * serial_events, "the tally is exact under threads");
}
