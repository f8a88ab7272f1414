//! `--smoke`: the six workloads on tiny inputs, through the same binary,
//! child processes and output format as the full benchmark.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_atos-benchmark");
const WORKLOADS: [&str; 6] = [
    "bfs_mesh_nvlink",
    "pr_scalefree_nvlink",
    "pr_scalefree_sharded2",
    "pr_ib_aggregated",
    "sssp_delta_priority",
    "host_bfs_threads",
];

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn bench(test: &str, args: &[&str]) -> (Output, String) {
    let out = Command::new(BIN)
        .args(args)
        .arg("--out")
        .arg(out_dir(test))
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout.clone()).expect("UTF-8 output");
    (out, stdout)
}

/// The value printed on the line `workload metric value unit`.
fn printed(stdout: &str, workload: &str, metric: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, m, v, _unit] if w == workload && m == metric => v.parse().ok(),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no line `{workload} {metric} <value> <unit>` in:\n{stdout}"))
}

#[test]
fn smoke_suite_prints_every_metric_and_writes_traces() {
    let test = "suite";
    let (out, stdout) = bench(test, &["--smoke", "--traced", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in WORKLOADS {
        for metric in [
            "setup_s",
            "tasks_per_sweep_edge",
            "peak_rss_mb",
            "tasks_per_s",
            "run_s_p50",
            "edges_per_s",
        ] {
            assert!(printed(&stdout, w, metric) > 0.0, "{w} {metric}");
        }
        assert_eq!(printed(&stdout, w, "fail_share"), 0.0, "{w}");
        assert_eq!(printed(&stdout, w, "failed"), 0.0, "{w}");
        assert_eq!(
            printed(&stdout, w, "virtual_ms") > 0.0,
            w != "host_bfs_threads",
            "{w}"
        );
        // From the traced pass.
        assert!(printed(&stdout, w, "graph.reference_s") > 0.0, "{w}");
        assert_eq!(
            printed(&stdout, w, "apps.process_calls") > 0.0,
            w != "host_bfs_threads",
            "{w}"
        );

        let trace = std::fs::read_to_string(out_dir(test).join(format!("trace-{w}.json"))).unwrap();
        assert!(trace.contains(&format!("\"workload\":\"{w}\"")));
        assert!(trace.contains("\"id\":0,\"parent\":null,\"name\":\"workload\""));
        assert!(trace.contains("\"parent\":0,\"name\":\"setup\""));
        assert!(trace.contains("\"name\":\"core.run\""));
        assert!(trace.contains("\"self\":"));
    }
    // The sharded run must give the one-shard virtual time exactly.
    assert_eq!(
        printed(&stdout, "pr_scalefree_sharded2", "virtual_ms"),
        printed(&stdout, "pr_scalefree_nvlink", "virtual_ms")
    );
    let results = std::fs::read_to_string(out_dir(test).join("results.json")).unwrap();
    assert!(results.contains("\"pass\": \"untraced\"") && results.contains("\"pass\": \"traced\""));
}

#[test]
fn one_workload_ends_with_the_contract_json() {
    let args = [
        "--smoke",
        "--workload",
        "sssp_delta_priority",
        "--seed",
        "5",
        "--seconds",
        "0",
        "--trace",
    ];
    let (out, stdout) = bench("json0", &[&args[..], &["0"]].concat());
    assert!(out.status.success());
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "), "{last}");
    for metric in ["\"tasks_per_sweep_edge\"", "\"peak_rss_mb\""] {
        assert!(last.contains(metric), "{last}");
    }
    assert!(
        !last.contains("virtual_ms") && !last.contains("tasks_per_s\"") && !last.contains("core."),
        "{last}"
    );

    let (out, stdout) = bench("json1", &[&args[..], &["1"]].concat());
    assert!(out.status.success());
    let last = stdout.lines().last().unwrap();
    assert!(
        last.contains("\"core.workqueue_priority_ns\": {\"value\": ") && !last.contains("setup_s"),
        "{last}"
    );
}

#[test]
fn a_corrupted_answer_is_caught_and_counted() {
    // One workload per kind of answer: depths, ranks, distances, host depths.
    for w in [
        "bfs_mesh_nvlink",
        "pr_ib_aggregated",
        "sssp_delta_priority",
        "host_bfs_threads",
    ] {
        let (out, stdout) = bench("fault", &["--smoke", "--workload", w, "--inject-fault"]);
        assert!(out.status.success(), "a failed run is reported, not fatal");
        assert_eq!(printed(&stdout, w, "failed"), 1.0, "{w}");
        assert!(printed(&stdout, w, "fail_share") > 0.0, "{w}");
        assert!(
            printed(&stdout, w, "run_s_p50") > 0.0,
            "the loop went on after the failure"
        );
        assert!(stdout
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false, "));
        assert!(String::from_utf8_lossy(&out.stderr).contains("run 1 failed"));
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--frobnicate"],
        &["--trace", "2"],
    ] {
        let (out, stdout) = bench("bad", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?}");
    }
}
