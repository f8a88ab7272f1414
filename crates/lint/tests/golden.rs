//! Golden tests for the lint pass.
//!
//! Each file under `tests/fixtures/` is a deliberately-bad example for
//! `panic-in-kernel`; the human report is asserted line for line so any
//! drift in coverage, line attribution, or report formatting shows up as a
//! diff against these strings. The fixtures are excluded from workspace
//! discovery (`tests/fixtures/` is skipped), so they never pollute the
//! production run.

use atos_lint::model::{events_of, Event};
use atos_lint::parse::{FnItem, ParsedFile};
use atos_lint::{lints, report, Finding, Workspace};

fn fixture_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures").to_string()
}

/// Lint one fixture in isolation.
fn lint_fixture(name: &str) -> Vec<Finding> {
    let src = std::fs::read_to_string(format!("{}/{name}", fixture_dir()))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    let ws = Workspace::from_sources(vec![(format!("fixtures/{name}"), src)]);
    atos_lint::run(&ws)
}

/// The fixture's human report, one string per line.
fn report_lines(name: &str) -> Vec<String> {
    report::human(&lint_fixture(name))
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn rule_set_is_stable() {
    assert_eq!(lints::RULES, ["panic-in-kernel"]);
}

#[test]
fn panic_in_kernel_golden() {
    assert_eq!(
        report_lines("panic_in_kernel.rs"),
        [
            "fixtures/panic_in_kernel.rs:7: [panic-in-kernel] `assert!` in protocol fn \
             `push_group` can abort mid-protocol",
            "fixtures/panic_in_kernel.rs:9: [panic-in-kernel] panicking index `slots[..]` in \
             protocol fn `push_group`; use `get(..)` and handle the `None` arm",
            "fixtures/panic_in_kernel.rs:15: [panic-in-kernel] `unwrap()` in protocol fn \
             `pop_group` can abort mid-protocol; handle the None/Err arm (a lookup is `get(..)` \
             with its `None` arm)",
            "fixtures/panic_in_kernel.rs:16: [panic-in-kernel] `expect()` in protocol fn \
             `pop_group` can abort mid-protocol; handle the None/Err arm (a lookup is `get(..)` \
             with its `None` arm)",
            "atos-lint: 4 findings",
        ]
    );
}

/// `use helpers::grow as quietly_grow;` must still resolve the call edge
/// to the panicking definition (alias regression for the call graph).
#[test]
fn alias_resolution_golden() {
    assert_eq!(
        report_lines("alias_resolution.rs"),
        [
            "fixtures/alias_resolution.rs:17: [panic-in-kernel] protocol fn `hot_entry` calls \
             `grow` (fixtures/alias_resolution.rs:7), which can panic (`unwrap()` at \
             fixtures/alias_resolution.rs:8); outline the failure path and vet it, or handle the \
             error arm",
            "atos-lint: 1 finding",
        ]
    );
}

// ------------------------------------------------------------ suppression

#[test]
fn comment_suppression_silences_a_finding() {
    let hot = "#[atos_hot]\nfn pop(v: Option<u64>) -> u64 {\n";
    let lint = |body: &str| {
        let ws = Workspace::from_sources(vec![("x.rs".into(), format!("{hot}{body}}}\n"))]);
        atos_lint::run(&ws).len()
    };
    assert_eq!(lint("    v.unwrap()\n"), 1);
    let vetted = "    // atos-lint: allow(panic_in_kernel) — the caller checked `v`.\n";
    assert_eq!(lint(&format!("{vetted}    v.unwrap()\n")), 0);
}

// ---------------------------------------------------------------- workspace

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// The committed tree has zero findings — the baseline stays empty.
#[test]
fn workspace_is_clean() {
    let ws = Workspace::discover(&workspace_root()).unwrap();
    let findings = atos_lint::run(&ws);
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
        if test_file || DRIVEN.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for f in file.parsed.fns.iter().filter(|f| !f.in_test_mod) {
            for e in events_of(&file.parsed, f) {
                if let Event::Call {
                    name,
                    method: true,
                    line,
                    ..
                } = e
                {
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

/// Tripwire for a stale safety inventory: DESIGN.md §4.5 lists, in
/// backticks, every file of the workspace whose code holds the `unsafe`
/// keyword, each with its reason. The list must be exactly those files, so
/// a new `unsafe` — or the last one leaving a file — edits §4.5 with it.
/// The keyword counts as code only: comments and string literals are not
/// tokens (`parse.rs` names it in both).
#[test]
fn unsafe_stays_in_the_files_design_lists() {
    let root = workspace_root();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("\n## 4. ")
        .nth(1)
        .and_then(|s4| s4.split("\n5. **").nth(1))
        .and_then(|item| item.split("\n6. **").next())
        .expect("DESIGN.md has a §4 with items 5 and 6");
    let mut listed: Vec<&str> = section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.ends_with(".rs"))
        .collect();
    listed.sort();
    listed.dedup();
    let ws = Workspace::discover(&root).unwrap();
    let holding: Vec<&str> = ws
        .files
        .iter()
        .filter(|f| f.parsed.toks.iter().any(|t| t.is("unsafe")))
        .map(|f| f.path.as_str())
        .collect();
    assert_eq!(
        holding, listed,
        "the files whose code holds `unsafe` (left) must be the files DESIGN.md §4.5 lists \
         (right): give a new one its reason there, or strike one that no longer needs it"
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
    for file in ws
        .files
        .iter()
        .filter(|f| APP_DIRS.iter().any(|d| f.path.starts_with(d)))
    {
        let p = &file.parsed;
        let live = |f: &&FnItem| !f.in_test_mod;
        let apps = p.toks.windows(3).filter_map(|w| {
            let is_trait = w[0].is("Application") || w[0].is("HostApplication");
            (is_trait && w[1].is("for")).then(|| w[2].text.as_str())
        });
        let apps = apps.filter(|&x| {
            p.fns
                .iter()
                .filter(live)
                .any(|f| f.self_ty.as_deref() == Some(x))
        });
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
            if !entries
                .iter()
                .any(|e| fuzzer.fns.iter().any(|f| names(fuzzer, f, e)))
            {
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
