//! `atos-lint`: workspace static analysis for the invariants this project
//! actually depends on.
//!
//! The dynamic side of verification — the model checker and race detector
//! in `atos-check` (PR 3) — explores interleavings of code that *runs*.
//! This crate is the static side: it parses every workspace source file
//! into a lightweight token/item/event model (no `syn` — the offline
//! build vendors zero external crates, so the parser is a small purpose-
//! built lexer in [`parse`]) and checks structural invariants that are
//! awkward or impossible to catch dynamically:
//!
//! 1. `facade-bypass` — raw `std::sync::atomic` / `std::cell::UnsafeCell`
//!    outside the `atos_queue::sync` facade (which is what lets
//!    `--cfg atos_check` interpose the checker's shadow types).
//! 2. `relaxed-publish` — relaxed atomic write publishing a pending cell
//!    write.
//! 3. `unreleased-write` — cell write with no release edge at all.
//! 4. `acquire-pairing` — relaxed load of a publish counter followed by a
//!    cell read with no acquire in between.
//! 5. `hot-path-alloc` — allocation in `#[atos_hot]` functions (or the
//!    configured denylist) and, transitively, in anything they reach
//!    through the workspace call graph ([`callgraph`] + fixed-point
//!    effect summaries in [`summaries`]); `#[atos_alloc_ok]` vets a
//!    definition and stops the propagation there.
//! 6. `panic-in-kernel` — `unwrap`/`expect`/`panic!`/panicking indexes in
//!    queue-protocol and runtime-step code, again propagated transitively
//!    so an outlined `#[cold]` abort helper is attributed to its kernel
//!    callers.
//! 7. `sim-determinism` — wall-clock, sleeps, and default-hasher
//!    containers in the simulator.
//! 8. `missing-safety` — `unsafe` without a `SAFETY:` comment.
//! 9. `determinism-taint` — dataflow pass ([`taint`]) tracing wall-clock
//!    reads (`Instant::now`, `.elapsed()`) and host-nondeterminism probes
//!    (thread counts, contention counters) through locals, fields, and
//!    return values. Wall-clock taint reaching a *trace* sink is a
//!    finding (traces are golden-compared and must carry virtual time
//!    only); either kind reaching a *metrics* sink lands in the generated
//!    wall-clock key inventory (`--wall-clock-inventory`), which
//!    `crates/bench/tests/trace_golden.rs` consumes instead of a
//!    hand-maintained skip list.
//! 10. `shard-escape` — owner-computes flow check ([`shard`]): every
//!     field of an `Application` impl is classified owner-indexed
//!     authoritative / per-sender private / shared-immutable (declared
//!     via `#[atos_shard(..)]` on `process`; an application in scope
//!     without the attribute is a finding), and the entry points plus
//!     everything they transitively call in-file may write authoritative
//!     state only under a dominating `partition.owner(v) == pe` witness.
//! 11. `unchecked-guard` — reservation-bound proofs ([`bounds`]): every
//!     call to a `# Safety: idx < cap` unchecked accessor must dominate
//!     its index with a diverging capacity guard or a loop clamped by an
//!     Acquire-loaded publication index; parameter-forwarding helpers
//!     become derived accessors so their callers are checked instead.
//!
//! Suppression is always visible in the diff: `#[allow_atos_lint(rule)]`
//! on an item, an `atos-lint: allow(rule)` comment on the finding line or
//! the two lines above it, or a `lint:skip-file` marker in the first ten
//! lines of a file (honored for deliberately-broken twins like
//! `mutations.rs`).

pub mod bounds;
pub mod callgraph;
pub mod config;
pub mod lints;
pub mod model;
pub mod parse;
pub mod report;
pub mod shard;
pub mod summaries;
pub mod taint;

use std::fs;
use std::io;
use std::path::Path;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (kebab-case, from [`lints::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Parsed view.
    pub parsed: parse::ParsedFile,
    /// `lint:skip-file` marker present in the first ten lines.
    pub skip: bool,
}

/// The parsed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// All files, in discovery order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Build from in-memory `(path, source)` pairs (used by tests and the
    /// seeded-mutation checks).
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let files = sources
            .into_iter()
            .map(|(path, src)| SourceFile {
                skip: src
                    .lines()
                    .take(10)
                    .any(|l| l.contains("lint:skip-file")),
                parsed: parse::parse(&src),
                path: path.replace('\\', "/"),
            })
            .collect();
        Workspace { files }
    }

    /// Walk `root` collecting every `.rs` file, excluding `target/`,
    /// hidden directories, and lint fixtures (`tests/fixtures/`).
    pub fn discover(root: &Path) -> io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, root, &mut paths)?;
        paths.sort();
        let mut sources = Vec::new();
        for p in paths {
            let src = fs::read_to_string(root.join(&p))?;
            sources.push((p, src));
        }
        Ok(Workspace::from_sources(sources))
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if rel.contains("tests/fixtures") {
                continue;
            }
            walk(root, &path, out)?;
        } else if ty.is_file() && name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Kebab rule id → snake (the form used in suppressions).
fn snake(rule: &str) -> String {
    rule.replace('-', "_")
}

/// The innermost function whose source span covers `line`.
fn fn_covering_line(p: &parse::ParsedFile, line: u32) -> Option<&parse::FnItem> {
    p.fns
        .iter()
        .filter(|f| {
            if f.body.is_empty() {
                return f.line == line;
            }
            let first = f.line;
            let last = p.toks[f.body.end - 1].line;
            first <= line && line <= last
        })
        .min_by_key(|f| f.body.len())
}

/// Is `f` suppressed at `line` by attribute or comment?
fn suppressed(file: &SourceFile, f: &Finding) -> bool {
    let needle = format!("atos-lint: allow({})", snake(f.rule));
    if file.parsed.comment_near(f.line, 2, &needle) {
        return true;
    }
    if let Some(item) = fn_covering_line(&file.parsed, f.line) {
        if item
            .attrs
            .iter()
            .any(|a| a.name == "allow_atos_lint" && a.args.iter().any(|x| *x == snake(f.rule)))
        {
            return true;
        }
    }
    false
}

/// Run every rule, apply suppressions, and return findings sorted by
/// `(file, line, rule)`. The CLI calls [`lints::analyze`] and
/// [`lints::run`] itself: it also wants the analysis's wall-clock key
/// inventory and the timing rows.
pub fn run(ws: &Workspace, cfg: &config::Config) -> Vec<Finding> {
    lints::run(ws, cfg, &lints::analyze(ws, cfg)).0
}
