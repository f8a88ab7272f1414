//! End-to-end CLI tests: exit codes and `--timings`, driven through the
//! real `atos-lint` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_atos-lint")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn run(cwd: &Path, args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn atos-lint")
}

#[test]
fn usage_error_exits_2() {
    let out = run(&workspace_root(), &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = run(&workspace_root(), &["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));

    // Removed with the determinism-taint pass and the JSON report
    // (DESIGN.md §11).
    for flag in ["--wall-clock-inventory", "--json"] {
        let out = run(&workspace_root(), &[flag, "x"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
    }
}

#[test]
fn clean_workspace_exits_0() {
    let out = run(&workspace_root(), &["--workspace"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("no findings"));
}

#[test]
fn findings_exit_1() {
    let lint_dir = workspace_root().join("crates/lint");
    let out = run(&lint_dir, &["tests/fixtures/alias_resolution.rs"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("tests/fixtures/alias_resolution.rs:17: [panic-in-kernel]")
            && stdout.ends_with("atos-lint: 1 finding\n"),
        "unexpected report: {stdout}"
    );
}

#[test]
fn timings_breakdown_lists_every_rule() {
    let lint_dir = workspace_root().join("crates/lint");
    let out = run(
        &lint_dir,
        &["tests/fixtures/alias_resolution.rs", "--timings"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("wall time by phase and rule:"),
        "stderr: {stderr}"
    );
    for row in [
        "analysis: call graph",
        "analysis: panic summaries",
        "panic-in-kernel",
        "total",
    ] {
        assert!(stderr.contains(row), "missing `{row}` row in: {stderr}");
    }
    // The breakdown goes to stderr only; stdout stays byte-comparable.
    let plain = run(&lint_dir, &["tests/fixtures/alias_resolution.rs"]);
    assert_eq!(out.stdout, plain.stdout);
}
