//! The `reference` experiment: one instrumented run and its artifacts.
//!
//! The sweep experiments print tables and nothing else; observability is
//! its own table entry. `atos-bench reference` performs one *reference
//! run* — deterministic BFS on the scale-free LiveJournal preset over a
//! 4-GPU InfiniBand fabric with the aggregator on, the configuration that
//! exercises every instrumented subsystem — prints a three-line summary
//! to stdout, and writes whichever artifacts were requested, logging a
//! one-liner per file to stderr.
//!
//! * `--trace PATH` — Chrome/Perfetto `trace_event` JSON of the reference
//!   run's virtual-time timeline: per-PE kernel-step spans, message
//!   send→arrive instants (with latency), aggregator flush windows tagged
//!   size- vs age-triggered, and receive-queue/worklist occupancy
//!   counters. Load it at `ui.perfetto.dev` or `chrome://tracing`.
//! * `--metrics PATH` — sorted-JSON [`MetricsRegistry`] snapshot of the
//!   same run (`run.*`, `comm.*`, `agg.*`, `engine.*`, `queue.*`,
//!   `pe<i>.*`) plus host-queue contention counters
//!   (`queue.cas_retries`, `queue.reservation_conflicts`,
//!   `queue.host_occupancy_hwm`) gathered by running two small
//!   `atos-queue` contention probes on real threads.

use std::path::Path;

use atos_apps::bfs::run_bfs_traced;
use atos_core::AtosConfig;
use atos_graph::generators::Scale;
use atos_queue::bench_harness::{run as queue_probe, Experiment, QueueKind};
use atos_sim::Fabric;
use atos_trace::{perfetto, MetricsRegistry, TraceBuffer};

use crate::sweep::BenchArgs;
use crate::Dataset;

/// Virtual-thread count for the host-queue contention probes: small
/// enough to finish in milliseconds, large enough that the CAS queue
/// visibly retries under real-thread contention.
const PROBE_VIRTUAL_THREADS: usize = 1024;

/// The `reference` experiment: perform the reference run, print its
/// summary, and write the artifacts `args` asks for.
pub fn reference(args: &BenchArgs) {
    let (buf, reg) = reference_run(args.scale);
    println!("Reference run: BFS on soc-LiveJournal1_s, 4 GPUs over InfiniBand, aggregated");
    for (label, key) in [
        ("virtual time (ns)", "run.elapsed_ns"),
        ("reached vertices", "run.reached_vertices"),
    ] {
        println!("{label:<20}{:>12}", reg.get(key).expect("reference run fills run.*"));
    }
    if let Some(path) = &args.trace {
        write_artifact(path, &perfetto::to_chrome_json(&buf), "trace");
    }
    if let Some(path) = &args.metrics {
        write_artifact(path, &reg.to_json(), "metrics");
    }
}

/// The deterministic instrumented reference run: BFS on
/// `soc-LiveJournal1_s` over `Fabric::ib_cluster(4)` with
/// [`AtosConfig::ib_bfs`] — aggregated communication, so step spans,
/// send/arrive instants, size- and age-triggered flushes, and occupancy
/// counters all appear. Returns the raw trace and the filled registry.
pub fn reference_run(scale: Scale) -> (TraceBuffer, MetricsRegistry) {
    let ds = Dataset::named("soc-LiveJournal1_s", scale);
    let part = ds.partition(4);
    let mut buf = TraceBuffer::new();
    let bfs = run_bfs_traced(
        ds.graph.clone(),
        part,
        ds.source,
        Fabric::ib_cluster(4),
        AtosConfig::ib_bfs(),
        &mut buf,
    );

    let mut reg = MetricsRegistry::new();
    bfs.stats.fill_metrics(&mut reg);
    reg.set("run.reached_vertices", bfs.reachable);

    // The simulated run never touches the host queues, so exercise them
    // directly: one counter-queue and one CAS-queue probe on real
    // threads, whose per-queue tallies fold into the process-wide
    // snapshot when the probe queues drop.
    queue_probe(
        QueueKind::CounterWarp,
        Experiment::ConcurrentPopPush,
        PROBE_VIRTUAL_THREADS,
    );
    queue_probe(
        QueueKind::CasWarp,
        Experiment::ConcurrentPopPush,
        PROBE_VIRTUAL_THREADS,
    );
    let q = atos_queue::stats::global_snapshot();
    reg.set("queue.cas_retries", q.cas_retries);
    reg.set("queue.reservation_conflicts", q.reservation_conflicts);
    reg.set("queue.host_occupancy_hwm", q.occupancy_hwm);
    (buf, reg)
}

fn write_artifact(path: &Path, contents: &str, what: &str) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!(
            "[observability] wrote {what} ({} bytes) -> {}",
            contents.len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "[observability] warning: could not write {what} to {}: {e}",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick` and nothing else.
    fn quick_args() -> BenchArgs {
        BenchArgs::parse_from(&["--quick".to_string()], 1).unwrap()
    }

    #[test]
    fn reference_run_fills_both_artifacts() {
        let (buf, reg) = reference_run(Scale::Tiny);
        assert!(!buf.is_empty());
        let json = perfetto::to_chrome_json(&buf);
        let summary = perfetto::validate_chrome_trace(&json).expect("valid trace");
        assert!(summary.names.contains("step"));
        assert!(summary.names.contains("msg"));
        assert!(
            summary.names.contains("flush[size]") || summary.names.contains("flush[age]"),
            "aggregated config must flush"
        );
        // Every required metrics namespace is populated.
        for key in [
            "run.elapsed_ns",
            "comm.messages",
            "agg.flushes",
            "engine.events",
            "queue.occupancy_hwm",
            "queue.cas_retries",
            "queue.reservation_conflicts",
            "queue.host_occupancy_hwm",
        ] {
            assert!(reg.get(key).is_some(), "missing {key}");
        }
        // The CAS probe ran under real contention; occupancy was nonzero.
        assert!(reg.get("queue.host_occupancy_hwm").unwrap() > 0);
    }

    #[test]
    fn reference_writes_requested_files() {
        let dir = std::env::temp_dir().join(format!("atos-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = BenchArgs {
            trace: Some(dir.join("trace.json")),
            metrics: Some(dir.join("metrics.json")),
            ..quick_args()
        };
        reference(&args);
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(perfetto::validate_chrome_trace(&trace).is_ok());
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        assert!(atos_trace::json::parse(&metrics).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
