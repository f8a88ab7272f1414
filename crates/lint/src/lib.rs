//! `atos-lint`: the workspace's call-graph lint.
//!
//! The dynamic side of verification — the model checker and race detector
//! in `atos-check` — explores interleavings of code that *runs*; clippy
//! holds the path-scoped invariants by resolving types (the atomics
//! facade, deterministic simulation, `SAFETY:` comments; DESIGN.md §7).
//! This crate is the one check neither can express: it parses every
//! workspace source file into a lightweight token/item/event model (no
//! `syn` — the offline build vendors zero external crates, so the parser
//! is a small purpose-built lexer in [`parse`]) and runs one rule,
//! `panic-in-kernel`: `unwrap`/`expect`/`panic!`-family in hot functions
//! and, transitively, in anything they reach through the workspace call
//! graph ([`callgraph`] + fixed-point summaries in [`summaries`]), so an
//! outlined `#[cold]` abort helper is attributed to its callers. A
//! function is hot because it says so: `#[atos_hot]`, or the comment
//! `// atos-lint: hot` on the line above the `fn` in the crates that stay
//! dependency-free (`atos-queue`, `atos-graph`); with the marker's one
//! argument (`#[atos_hot(no_index)]` / `// atos-lint: hot(no-index)`: the
//! queue protocol and the `prefetch` hint path) panicking indexes too.
//!
//! Why the rule stays, and what left (three flow analyses, the ordering
//! pass, `hot-path-alloc`, and the three lexical rules clippy now holds),
//! is the audit in DESIGN.md §7 and §11.
//!
//! Suppression is always visible in the diff: an
//! `atos-lint: allow(panic_in_kernel)` comment on the finding line or the
//! two lines above it, or on a vetted callee's definition.

pub mod callgraph;
pub mod lints;
pub mod model;
pub mod parse;
pub mod report;
pub mod summaries;

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
}

/// The parsed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// All files, in discovery order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Build from in-memory `(path, source)` pairs (used by tests and the
    /// CLI's explicit paths).
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let files = sources
            .into_iter()
            .map(|(path, src)| SourceFile {
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

/// Is there an `atos-lint: allow(panic_in_kernel)` comment on `line` or
/// the two above? The one spelling of a suppression: on a finding's line
/// it silences the finding, on a definition's it vets the callee.
pub(crate) fn allowed_at(file: &SourceFile, line: u32) -> bool {
    file.parsed
        .comment_near(line, 2, "atos-lint: allow(panic_in_kernel)")
}

/// Run the rule, apply suppressions, and return findings sorted by
/// `(file, line)`. The CLI calls [`lints::analyze`] and [`lints::run`]
/// itself: it also wants the timing rows.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    lints::run(ws, &lints::analyze(ws))
}
