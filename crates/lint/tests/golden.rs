//! Golden tests for the lint pass.
//!
//! Each file under `tests/fixtures/` is a deliberately-bad example for
//! exactly one rule; the `--json` rendering is asserted byte-for-byte so
//! any drift in rule coverage, line attribution, or report formatting
//! shows up as a diff against these strings. The fixtures are excluded
//! from workspace discovery (`tests/fixtures/` is skipped), so they never
//! pollute the production run.

use atos_lint::model::{events_of, Event};
use atos_lint::parse::{FnItem, ParsedFile};
use atos_lint::{config::Config, lints, report, Finding, Workspace};

fn fixture_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures").to_string()
}

/// Lint one fixture in isolation under the fixture configuration.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(format!("{}/{name}", fixture_dir()))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    let ws = Workspace::from_sources(vec![(format!("fixtures/{name}"), src)]);
    atos_lint::run(&ws, &Config::fixture())
}

#[test]
fn rule_set_is_stable() {
    assert_eq!(
        lints::RULES,
        [
            "facade-bypass",
            "panic-in-kernel",
            "sim-determinism",
            "missing-safety",
        ]
    );
}

#[test]
fn every_rule_has_a_fixture() {
    for rule in lints::RULES {
        let name = format!("{}.rs", rule.replace('-', "_"));
        let findings = lint_fixture(&name);
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "fixture {name} does not trigger `{rule}`: {findings:?}"
        );
    }
}

#[test]
fn facade_bypass_golden() {
    assert_eq!(
        report::json(&lint_fixture("facade_bypass.rs")),
        "{\"findings\":[{\"rule\":\"facade-bypass\",\"file\":\"fixtures/facade_bypass.rs\",\
         \"line\":4,\"message\":\"direct `std::sync::atomic` use; go through the \
         `atos_queue::sync` facade so `--cfg atos_check` can interpose the model \
         checker\"}],\"count\":1}"
    );
}

#[test]
fn panic_in_kernel_golden() {
    assert_eq!(
        report::json(&lint_fixture("panic_in_kernel.rs")),
        "{\"findings\":[\
         {\"rule\":\"panic-in-kernel\",\"file\":\"fixtures/panic_in_kernel.rs\",\"line\":7,\
         \"message\":\"`assert!` in protocol fn `push_group` can abort mid-protocol\"},\
         {\"rule\":\"panic-in-kernel\",\"file\":\"fixtures/panic_in_kernel.rs\",\"line\":9,\
         \"message\":\"panicking index `slots[..]` in protocol fn `push_group`; use \
         `get(..)` and handle the `None` arm\"},\
         {\"rule\":\"panic-in-kernel\",\"file\":\"fixtures/panic_in_kernel.rs\",\"line\":15,\
         \"message\":\"`unwrap()` in protocol fn `pop_group` can abort mid-protocol; handle \
         the None/Err arm (a lookup is `get(..)` with its `None` arm)\"},\
         {\"rule\":\"panic-in-kernel\",\"file\":\"fixtures/panic_in_kernel.rs\",\"line\":16,\
         \"message\":\"`expect()` in protocol fn `pop_group` can abort mid-protocol; handle \
         the None/Err arm (a lookup is `get(..)` with its `None` arm)\"}],\
         \"count\":4}"
    );
}

#[test]
fn sim_determinism_golden() {
    let msg = "in deterministic-simulation code; virtual time and order-stable \
               containers (BTreeMap/Vec) only";
    let findings = lint_fixture("sim_determinism.rs");
    let got: Vec<(u32, String)> = findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "sim-determinism");
            assert!(f.message.ends_with(msg), "{}", f.message);
            let ident = f
                .message
                .trim_start_matches('`')
                .split('`')
                .next()
                .unwrap()
                .to_string();
            (f.line, ident)
        })
        .collect();
    // One finding per (line, identifier): use-position and body-position
    // hits are both reported, `sleep` only as a call.
    assert_eq!(
        got,
        [
            (4, "HashMap".to_string()),
            (5, "Instant".to_string()),
            (7, "HashMap".to_string()),
            (8, "Instant".to_string()),
            (9, "sleep".to_string()),
        ]
    );
}

#[test]
fn missing_safety_golden() {
    assert_eq!(
        report::json(&lint_fixture("missing_safety.rs")),
        "{\"findings\":[{\"rule\":\"missing-safety\",\"file\":\"fixtures/missing_safety.rs\",\
         \"line\":5,\"message\":\"`unsafe` without a `SAFETY:` comment on the same line or \
         within the 8 preceding lines\"}],\"count\":1}"
    );
}

/// `use helpers::grow as quietly_grow;` must still resolve the call edge
/// to the panicking definition (alias regression for the call graph).
#[test]
fn alias_resolution_golden() {
    assert_eq!(
        report::json(&lint_fixture("alias_resolution.rs")),
        "{\"findings\":[\
         {\"rule\":\"panic-in-kernel\",\"file\":\"fixtures/alias_resolution.rs\",\"line\":17,\
         \"message\":\"protocol fn `hot_entry` calls `grow` (fixtures/alias_resolution.rs:7), \
         which can panic (`unwrap()` at fixtures/alias_resolution.rs:8); outline the failure \
         path and vet it, or handle the error arm\"}],\
         \"count\":1}"
    );
}

// ------------------------------------------------------------ suppression

#[test]
fn comment_suppression_silences_a_finding() {
    let src = "// atos-lint: allow(facade_bypass) — test-only counter, not part of\n\
               // the checked protocol surface.\n\
               use std::sync::atomic::AtomicU64;\n";
    let ws = Workspace::from_sources(vec![("x.rs".into(), src.into())]);
    assert!(atos_lint::run(&ws, &Config::fixture()).is_empty());
}

#[test]
fn skip_file_marker_silences_a_file() {
    let src = "// lint:skip-file — deliberately-broken twin for mutation tests\n\
               use std::sync::atomic::AtomicU64;\n";
    let ws = Workspace::from_sources(vec![("mutations.rs".into(), src.into())]);
    assert!(atos_lint::run(&ws, &Config::fixture()).is_empty());
}

// -------------------------------------------------- workspace + mutations

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn read_real(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel))
        .unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// The committed tree has zero findings — the baseline stays empty.
#[test]
fn workspace_is_clean() {
    let ws = Workspace::discover(&workspace_root()).unwrap();
    let findings = atos_lint::run(&ws, &Config::project());
    assert!(
        findings.is_empty(),
        "workspace should lint clean:\n{}",
        report::human(&findings)
    );
}

/// Tripwire for undriven cell protocols: an `UnsafeCell` access (the
/// facade's `.with_mut(..)` / `.with(..)`) may appear only in the queue
/// files whose every access a model-checked driver in `crates/check/tests/`
/// runs, so the race detector — not a lint — guards its ordering
/// (DESIGN.md §7).
#[test]
fn cell_accesses_stay_in_model_checked_files() {
    const DRIVEN: &[&str] = &[
        "crates/queue/src/counter.rs",
        "crates/queue/src/cas.rs",
        "crates/queue/src/broker.rs",
        "crates/queue/src/sync.rs",
        "crates/check/",
    ];
    let ws = Workspace::discover(&workspace_root()).unwrap();
    let mut stray = Vec::new();
    for file in &ws.files {
        let test_file = file.path.starts_with("tests/") || file.path.contains("/tests/");
        if file.skip || test_file || DRIVEN.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for f in file.parsed.fns.iter().filter(|f| !f.in_test_mod) {
            for e in events_of(&file.parsed, f) {
                if let Event::Call { name, method: true, line, .. } = e {
                    if name == "with" || name == "with_mut" {
                        stray.push(format!("{}:{line}", file.path));
                    }
                }
            }
        }
    }
    assert!(
        stray.is_empty(),
        "`UnsafeCell` access outside the model-checked queue files: {stray:?} — add a \
         model-checked driver for it in crates/check/tests/, then list its file here"
    );
}

/// Tripwire for undrawn applications: the owner-computes rule (a task
/// writes only state its PE owns; everything else travels as a charged
/// message) is guarded by `tests/differential.rs` and the goldens, not by
/// a lint, so every application must be one the fuzzer runs. An
/// application is a non-test `impl Application for X` (or
/// `HostApplication`) in `crates/apps/src/` or `crates/baselines/src/`;
/// it is run when a body in `tests/differential.rs` names a free function
/// of its file that builds `X`, directly or through another such function.
#[test]
fn every_application_is_drawn_by_the_differential_fuzzer() {
    const APP_DIRS: &[&str] = &["crates/apps/src/", "crates/baselines/src/"];
    fn names(p: &ParsedFile, f: &FnItem, ident: &str) -> bool {
        p.toks[f.body.clone()].iter().any(|t| t.is(ident))
    }
    let ws = Workspace::discover(&workspace_root()).unwrap();
    let fuzzer = &ws
        .files
        .iter()
        .find(|f| f.path == "tests/differential.rs")
        .expect("tests/differential.rs")
        .parsed;
    let mut undrawn = Vec::new();
    for file in ws.files.iter().filter(|f| APP_DIRS.iter().any(|d| f.path.starts_with(d))) {
        let p = &file.parsed;
        let live = |f: &&FnItem| !f.in_test_mod;
        let apps = p.toks.windows(3).filter_map(|w| {
            let is_trait = w[0].is("Application") || w[0].is("HostApplication");
            (is_trait && w[1].is("for")).then(|| w[2].text.as_str())
        });
        let apps = apps.filter(|&x| p.fns.iter().filter(live).any(|f| f.self_ty.as_deref() == Some(x)));
        for app in apps {
            // The free functions that build `app`, closed under "calls one".
            let mut entries: Vec<&str> = Vec::new();
            loop {
                let before = entries.len();
                for f in p.fns.iter().filter(live).filter(|f| f.self_ty.is_none()) {
                    if !entries.contains(&f.name.as_str())
                        && (names(p, f, app) || entries.iter().any(|e| names(p, f, e)))
                    {
                        entries.push(&f.name);
                    }
                }
                if entries.len() == before {
                    break;
                }
            }
            if !entries.iter().any(|e| fuzzer.fns.iter().any(|f| names(fuzzer, f, e))) {
                undrawn.push(format!("{app} ({}; entry points {entries:?})", file.path));
            }
        }
    }
    assert!(
        undrawn.is_empty(),
        "applications tests/differential.rs never runs: {undrawn:?} — add each to the \
         fuzzer's generator (its `App` enum, `Case::draw`, `run` and `check_answer`)"
    );
}

/// Seeded mutation: a raw atomic import in the queue crate must be caught.
#[test]
fn mutation_raw_atomic_import_is_caught() {
    let rel = "crates/queue/src/counter.rs";
    let clean = read_real(rel);
    let ws = Workspace::from_sources(vec![(rel.into(), clean.clone())]);
    assert!(
        atos_lint::run(&ws, &Config::project()).is_empty(),
        "unmutated counter.rs must lint clean"
    );

    let mutated = format!("use std::sync::atomic::AtomicUsize;\n{clean}");
    let ws = Workspace::from_sources(vec![(rel.into(), mutated)]);
    let findings = atos_lint::run(&ws, &Config::project());
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "facade-bypass" && f.line == 1),
        "mutation not caught: {findings:?}"
    );
}

/// Seeded mutation: a wall-clock read flowing into a trace event in the
/// runtime must be caught — by `sim-determinism`, at the read: the clock
/// cannot be named in a file that records trace events.
#[test]
fn mutation_wall_clock_in_trace_is_caught() {
    let rel = "crates/core/src/runtime.rs";
    let clean = read_real(rel);
    let mutated = format!(
        "{clean}\n\
         fn injected_trace(tracer: &atos_trace::Tracer) {{\n\
             let t0 = std::time::Instant::now();\n\
             let wall = t0.elapsed().as_nanos() as u64;\n\
             tracer.counter(atos_trace::Track::pe(0), 0, \"wall\", wall);\n\
         }}\n"
    );
    let ws = Workspace::from_sources(vec![(rel.into(), mutated)]);
    let findings = atos_lint::run(&ws, &Config::project());
    let injected_at = clean.lines().count() as u32 + 3;
    assert!(
        findings.iter().any(|f| f.rule == "sim-determinism"
            && f.line == injected_at
            && f.message.contains("`Instant`")),
        "wall-clock-in-trace mutation not caught: {findings:?}"
    );
}
