//! Golden-file checks for the Perfetto exporter on a deterministic BFS.
//!
//! Virtual-time traces are pure functions of the modeled execution, so
//! the exported Chrome `trace_event` JSON must be *byte-identical* across
//! runs (and host thread counts — nothing wall-clock ever enters the
//! trace). These tests pin that property, the trace_event format
//! contract, and the presence of every instrumented subsystem.

use atos_bench::observability::reference_run;
use atos_bench::{EventTally, RunConfig};
use atos_core::ShardProfile;
use atos_graph::generators::Scale;
use atos_trace::{json, perfetto, MetricsRegistry, TraceBuffer};

/// The reference run on four engine shards, owner-computes.
fn reference_run_sharded4() -> (TraceBuffer, MetricsRegistry, Option<ShardProfile>) {
    let run = RunConfig {
        sim_threads: 4,
        ..RunConfig::default()
    };
    atos_bench::observability::reference_run_sharded(Scale::Tiny, run, &EventTally::default())
}

/// Metrics keys that legitimately differ between two identical sharded
/// runs: anything derived from host wall-clock (barrier waits and their
/// aggregates) or from real-thread contention probes. Everything else —
/// including every virtual-time shard histogram — must be deterministic.
///
/// The list is no longer hand-maintained: atos-lint's determinism-taint
/// pass generates it (`--wall-clock-inventory`) by tracing clock reads
/// and thread-contention probes through the call graph into metric
/// sinks, and the artifact is committed at `results/wall_clock_keys.txt`.
/// `crates/lint/tests/cli.rs` asserts regeneration is a no-op, so this
/// test and the analyzer cannot drift apart.
const WALL_CLOCK_INVENTORY: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/wall_clock_keys.txt"
));

fn is_wall_clock_key(key: &str) -> bool {
    WALL_CLOCK_INVENTORY.lines().any(|line| {
        match line.trim().split_once(' ') {
            Some(("exact", k)) => key == k,
            // Fragment entries match per-shard prefixed keys
            // (`shard.3.barrier_wait_ns`, ...).
            Some(("frag", k)) => key.contains(k),
            _ => false, // comments and blanks
        }
    })
}

#[test]
fn trace_export_is_byte_identical_across_runs() {
    let (buf_a, reg_a) = reference_run(Scale::Tiny);
    let (buf_b, reg_b) = reference_run(Scale::Tiny);
    let json_a = perfetto::to_chrome_json(&buf_a);
    let json_b = perfetto::to_chrome_json(&buf_b);
    assert_eq!(json_a, json_b, "trace must be a deterministic artifact");
    // Run counters are equal too; only the inventoried wall-clock /
    // host-contention keys may differ between the two reference runs.
    for (key, val) in reg_a.iter() {
        if is_wall_clock_key(key) {
            continue;
        }
        assert_eq!(reg_b.get(key), Some(val), "metric {key} must be deterministic");
    }
}

#[test]
fn trace_export_is_valid_chrome_trace_event_json() {
    let (buf, _) = reference_run(Scale::Tiny);
    let exported = perfetto::to_chrome_json(&buf);

    // Parses as JSON with the documented envelope.
    let parsed = json::parse(&exported).expect("well-formed JSON");
    let obj = match parsed {
        json::Json::Obj(o) => o,
        other => panic!("top level must be an object, got {other:?}"),
    };
    assert!(obj.contains_key("traceEvents"));
    assert_eq!(
        obj.get("displayTimeUnit"),
        Some(&json::Json::Str("ms".to_string()))
    );

    // Passes the strict validator: required fields per phase, sorted
    // non-decreasing timestamps, properly nested spans per track.
    let summary = perfetto::validate_chrome_trace(&exported).expect("valid trace_event stream");
    assert!(summary.spans > 0, "per-PE step spans present");
    assert!(summary.instants > 0, "message instants present");
    assert!(summary.counters > 0, "occupancy counters present");

    // Every instrumented subsystem shows up by name.
    for name in ["step", "send", "msg", "worklist", "recvq"] {
        assert!(summary.names.contains(name), "missing event name {name}");
    }
    assert!(
        summary.names.contains("flush[size]") || summary.names.contains("flush[age]"),
        "aggregator flush spans present"
    );
}

#[test]
fn metrics_snapshot_round_trips_through_json() {
    let (_, reg) = reference_run(Scale::Tiny);
    let text = reg.to_json();
    let parsed = json::parse(&text).expect("metrics JSON parses");
    let obj = match parsed {
        json::Json::Obj(o) => o,
        other => panic!("metrics must serialize to an object, got {other:?}"),
    };
    assert_eq!(obj.len(), reg.len());
    for (key, val) in reg.iter() {
        assert_eq!(
            obj.get(key),
            Some(&json::Json::Num(val as f64)),
            "metric {key} survives serialization"
        );
    }
}

#[test]
fn sharded_metrics_round_trip_with_histogram_kind() {
    // The registry now holds two kinds; both must survive serialization
    // with one global sorted key order (counters and histograms
    // interleaved, not segregated).
    let (_, reg, _) = reference_run_sharded4();
    let text = reg.to_json();
    let parsed = json::parse(&text).expect("metrics JSON parses");
    let obj = match &parsed {
        json::Json::Obj(o) => o,
        other => panic!("metrics must serialize to an object, got {other:?}"),
    };
    assert_eq!(obj.len(), reg.len());
    for (key, val) in reg.iter() {
        assert_eq!(
            obj.get(key),
            Some(&json::Json::Num(val as f64)),
            "counter {key} survives serialization"
        );
    }
    let mut hist_keys = 0;
    for (key, hist) in reg.iter_histograms() {
        hist_keys += 1;
        let summary = atos_trace::Histogram::summary_from_json(
            obj.get(key).unwrap_or_else(|| panic!("histogram {key} serialized")),
        )
        .unwrap_or_else(|| panic!("histogram {key} summary parses"));
        assert_eq!(summary.count, hist.count(), "{key} count");
        assert_eq!(summary.max, hist.max(), "{key} max");
        assert_eq!(summary.p50, hist.p50(), "{key} p50");
    }
    assert!(hist_keys > 0, "sharded run exports histogram metrics");
    // The serialized key stream is globally sorted.
    let keys: Vec<&String> = obj.keys().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "keys must be sorted");
}

#[test]
fn sharded_trace_golden_is_byte_identical_and_shard_aware() {
    // Two identical K=4 sharded reference runs: the Perfetto export is a
    // deterministic artifact (shard window/exchange events are stamped in
    // virtual time only), and every non-wall-clock metric — including the
    // per-shard virtual-time histograms — matches exactly.
    let (buf_a, reg_a, prof_a) = reference_run_sharded4();
    let (buf_b, reg_b, prof_b) = reference_run_sharded4();
    let json_a = perfetto::to_chrome_json(&buf_a);
    let json_b = perfetto::to_chrome_json(&buf_b);
    assert_eq!(json_a, json_b, "sharded trace must be deterministic");

    let summary = perfetto::validate_chrome_trace(&json_a).expect("valid trace_event stream");
    assert!(summary.spans > 0);
    for name in ["step", "msg", "window"] {
        assert!(summary.names.contains(name), "missing event name {name}");
    }

    for (key, val) in reg_a.iter() {
        if is_wall_clock_key(key) {
            continue;
        }
        assert_eq!(reg_b.get(key), Some(val), "metric {key} must be deterministic");
    }
    for (key, hist) in reg_a.iter_histograms() {
        if is_wall_clock_key(key) {
            continue;
        }
        assert_eq!(
            reg_b.histogram(key),
            Some(hist),
            "histogram {key} must be deterministic"
        );
    }

    // The flight recorders replay the same windows (wall-clock field
    // aside), and their JSON dumps agree once barrier waits are zeroed.
    let (a, b) = (prof_a.expect("profile"), prof_b.expect("profile"));
    for (sa, sb) in a.shards.iter().zip(b.shards.iter()) {
        assert_eq!(sa.windows, sb.windows);
        assert_eq!(sa.events, sb.events);
        assert_eq!(sa.published, sb.published);
        assert_eq!(sa.drained, sb.drained);
        let ra = sa.flight.records();
        let rb = sb.flight.records();
        assert_eq!(ra.len(), rb.len());
        for (wa, wb) in ra.iter().zip(rb.iter()) {
            let mut wa = *wa;
            let mut wb = *wb;
            wa.barrier_wait_ns = 0;
            wb.barrier_wait_ns = 0;
            assert_eq!(wa, wb, "shard {} flight record", sa.shard);
        }
    }
}
