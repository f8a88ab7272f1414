//! Determinism under parallelism.
//!
//! The sweep harness promises that `--threads N` only changes wall-clock
//! time, never output: the simulation is a pure function of its inputs
//! and results are keyed by grid index. These tests pin that down two
//! ways: byte-identical stdout of an actual table binary at 1 vs 4
//! worker threads, and bit-identical run statistics for repeated runs of
//! the same configuration.

use std::path::PathBuf;
use std::process::{Command, Output};

use atos_bench::{bfs_nvlink_ms, ib_ms, Dataset, EventTally, RunConfig, SweepRunner};
use atos_graph::generators::{Preset, Scale};

/// Run one of this crate's binaries with `args`, its report going to `json`.
fn run_binary(exe: &str, args: &[&str], json: &std::path::Path) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args).arg("--json").arg(json);
    cmd.output().expect("binary should spawn")
}

#[test]
fn table2_stdout_is_byte_identical_across_thread_counts() {
    let exe = env!("CARGO_BIN_EXE_table2_bfs_nvlink");
    let dir = std::env::temp_dir().join(format!("atos-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json: PathBuf = dir.join("sweep.json");

    let serial = run_binary(exe, &["--quick", "--threads", "1"], &json);
    let parallel = run_binary(exe, &["--quick", "--threads", "4"], &json);
    assert!(
        serial.status.success() && parallel.status.success(),
        "table2_bfs_nvlink --quick should succeed"
    );
    assert!(!serial.stdout.is_empty());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "stdout must not depend on the worker-thread count"
    );
    // The timing report must exist and carry this binary's entry.
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
    let (run, events) = (RunConfig::default(), EventTally::default());
    let a = bfs_nvlink_ms("Atos (queue+persistent kernel)", &ds, 3, run, &events);
    let b = bfs_nvlink_ms("Atos (queue+persistent kernel)", &ds, 3, run, &events);
    assert_eq!(a.to_bits(), b.to_bits());
    let a = ib_ms("Atos", "pr", &ds, 2, run, &events);
    let b = ib_ms("Atos", "pr", &ds, 2, run, &events);
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn sweep_grid_matches_serial_reference() {
    // The harness itself must hand back results exactly as a serial loop
    // would produce them, for a real (framework × gpus) grid.
    let ds = Dataset::build(Preset::by_name("hollywood_2009_s").unwrap(), Scale::Tiny);
    let cells: Vec<(usize, usize)> = (0..2).flat_map(|f| (1..=4).map(move |g| (f, g))).collect();
    let fw = ["Galois", "Atos"];
    let (run, events) = (RunConfig::default(), EventTally::default());
    let cell = |&(f, g): &(usize, usize)| ib_ms(fw[f], "bfs", &ds, g, run, &events);
    let serial: Vec<f64> = cells.iter().map(cell).collect();
    let serial_events = events.total();
    let parallel = SweepRunner::new(4).run(&cells, |_, c| cell(c));
    assert_eq!(serial, parallel);
    assert_eq!(events.total(), 2 * serial_events, "the tally is exact under threads");
}

#[test]
fn run_flags_are_honoured_or_refused_never_ignored() {
    // `--sim-threads` / `--load-balance` used to be accepted, recorded in
    // the sweep report and ignored by the binaries that launch their own
    // runs. Each now either passes them to the sharded launch body or
    // refuses to start.
    let dir = std::env::temp_dir().join(format!("atos-run-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("sweep.json");
    let run = |exe: &str, flags: &[&str]| {
        let out = run_binary(exe, &[&["--quick", "--threads", "1"], flags].concat(), &json);
        (out.status.code(), out.stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };

    for exe in [
        env!("CARGO_BIN_EXE_fig7_summit_node"),
        env!("CARGO_BIN_EXE_table3_priority_workload"),
        env!("CARGO_BIN_EXE_ablation_smoothing"),
    ] {
        let (code, plain, _) = run(exe, &[]);
        assert_eq!(code, Some(0), "{exe}");
        // Honoured: sharding is byte-identical, stealing reaches the runs.
        let (code, sharded, _) = run(exe, &["--sim-threads", "4"]);
        assert_eq!(code, Some(0), "{exe} --sim-threads 4");
        assert_eq!(sharded, plain, "{exe}: --sim-threads must not change the tables");
        let (code, stealing, _) = run(exe, &["--load-balance", "steal"]);
        assert_eq!(code, Some(0), "{exe} --load-balance steal");
        assert_ne!(stealing, plain, "{exe}: --load-balance steal changed nothing it computes");
    }

    // Refused: exit status 2, the flag named, nothing printed or reported.
    std::fs::remove_file(&json).unwrap();
    let exe = env!("CARGO_BIN_EXE_ablation_worker");
    for flags in [["--sim-threads", "4"], ["--load-balance", "steal"]] {
        let (code, stdout, stderr) = run(exe, &flags);
        assert_eq!(code, Some(2), "{exe} {flags:?}: {stderr}");
        assert!(stderr.contains(flags[0]), "{stderr}");
        assert!(stdout.is_empty(), "refused before printing");
    }
    assert!(!json.exists(), "a refused run must not write a report entry");
    let (code, stdout, _) = run(exe, &["--sim-threads", "1", "--load-balance", "owner"]);
    assert_eq!(code, Some(0), "spelling out the defaults is fine");
    assert!(!stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
