//! Three rules about where code may live, checked over the source text.
//!
//! Each reads the workspace's `.rs` files with comments and string
//! literals blanked out ([`code_of`]), so prose that names a rule never
//! trips it. The compiler holds what it can: `unsafe` is denied across the
//! workspace (`unsafe_code` in `[workspace.lints.rust]`) and a file that
//! needs it says `#![expect(unsafe_code, reason = "…")]`, which also fails
//! once the file no longer does; the test here only keeps DESIGN.md's list
//! of those files true.

use std::path::{Path, PathBuf};

/// The workspace root.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `crates`, `src`, `tests` and `examples`, as a
/// path relative to the root, sorted.
fn sources() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        walk(&root().join(dir), &mut files);
    }
    let mut files: Vec<String> = files
        .iter()
        .filter_map(|p| p.strip_prefix(root()).ok())
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();
    files
}

/// `text` with every comment and string or char literal replaced by
/// spaces, newlines kept, so lines and columns stay where they were.
fn code_of(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, run: &[char]| {
        out.extend(run.iter().map(|&c| if c == '\n' { '\n' } else { ' ' }));
    };
    let mut i = 0;
    while i < chars.len() {
        let rest = &chars[i..];
        let end = match rest {
            ['/', '/', ..] => rest.iter().position(|&c| c == '\n').unwrap_or(rest.len()),
            ['/', '*', ..] => {
                let (mut depth, mut j) = (0, 0);
                loop {
                    match rest.get(j..j + 2) {
                        Some(['/', '*']) => (depth, j) = (depth + 1, j + 2),
                        Some(['*', '/']) => (depth, j) = (depth - 1, j + 2),
                        None => break rest.len(),
                        _ => j += 1,
                    }
                    if depth == 0 {
                        break j;
                    }
                }
            }
            ['r', '#' | '"', ..] if !prev_is_ident(&chars, i) => {
                let hashes = rest[1..].iter().take_while(|&&c| c == '#').count();
                if rest.get(1 + hashes) != Some(&'"') {
                    out.push(rest[0]);
                    i += 1;
                    continue;
                }
                let close: Vec<char> = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                let body = 2 + hashes;
                rest[body..]
                    .windows(close.len())
                    .position(|w| w == close.as_slice())
                    .map_or(rest.len(), |p| body + p + close.len())
            }
            ['"', ..] => {
                let mut j = 1;
                while j < rest.len() && rest[j] != '"' {
                    j += if rest[j] == '\\' { 2 } else { 1 };
                }
                (j + 1).min(rest.len())
            }
            ['\'', '\\', ..] => rest[2..]
                .iter()
                .position(|&c| c == '\'')
                .map_or(2, |p| p + 3),
            ['\'', _, '\'', ..] => 3,
            _ => {
                out.push(rest[0]);
                i += 1;
                continue;
            }
        };
        blank(&mut out, &rest[..end]);
        i += end;
    }
    out
}

/// Whether the character before `i` continues an identifier (so an `r`
/// at `i` is not a raw-string prefix).
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// The code of `file` up to its `#[cfg(test)] mod`, if it has one.
fn live_code(file: &str) -> String {
    let code = code_of(&std::fs::read_to_string(root().join(file)).expect("read a source file"));
    let test_mod = code.match_indices("#[cfg(test)]").find(|&(at, attr)| {
        let rest = code[at + attr.len()..].trim_start();
        rest.starts_with("mod ") || rest.starts_with("pub mod ")
    });
    match test_mod {
        Some((at, _)) => code[..at].to_string(),
        None => code,
    }
}

/// DESIGN.md §4.5 lists, in backticks, every file whose code holds
/// `unsafe`, each with its reason; the compiler denies `unsafe` elsewhere
/// and fails a listed file that no longer needs it (`#![expect(..)]`). So
/// the files that carry the expectation must be exactly the list.
#[test]
fn unsafe_stays_in_the_files_design_lists() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).expect("DESIGN.md");
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
    let holding: Vec<String> = sources()
        .into_iter()
        .filter(|f| {
            let code = code_of(&std::fs::read_to_string(root().join(f)).unwrap());
            let tight: String = code.split_whitespace().collect();
            tight.contains("#![expect(unsafe_code")
        })
        .collect();
    assert_eq!(
        holding, listed,
        "the files allowed `unsafe` (left) must be the files DESIGN.md §4.5 lists (right): give \
         a new one its reason there, or strike one that no longer needs it"
    );
}

/// An `UnsafeCell` access (the facade's `.with_mut(..)` / `.with(..)`) may
/// appear only in the queue files whose every access a model-checked
/// driver in `crates/check/tests/` runs, so the race detector, not a lint,
/// guards its ordering (DESIGN.md §7). Test files and test modules are
/// exempt.
#[test]
fn cell_accesses_stay_in_model_checked_files() {
    const DRIVEN: &[&str] = &[
        "crates/queue/src/counter.rs",
        "crates/queue/src/cas.rs",
        "crates/queue/src/broker.rs",
        "crates/queue/src/sync.rs",
        "crates/check/",
    ];
    let mut stray = Vec::new();
    for file in sources() {
        let test_file = file.starts_with("tests/") || file.contains("/tests/");
        if test_file || DRIVEN.iter().any(|d| file.starts_with(d)) {
            continue;
        }
        for (n, line) in live_code(&file).lines().enumerate() {
            if line.contains(".with(") || line.contains(".with_mut(") {
                stray.push(format!("{file}:{}", n + 1));
            }
        }
    }
    assert!(
        stray.is_empty(),
        "`UnsafeCell` access outside the model-checked queue files: {stray:?} — add a \
         model-checked driver for it in crates/check/tests/, then list its file here"
    );
}

/// The owner-computes rule is guarded by `tests/differential.rs` and the
/// goldens, so every application must be one the fuzzer runs. An
/// application is a non-test `impl Application for X` (or
/// `HostApplication`) in `crates/apps/src/` or `crates/baselines/src/`; it
/// is run when `tests/differential.rs` names a free function of its file
/// that builds `X`, directly or through another such function.
#[test]
fn every_application_is_drawn_by_the_differential_fuzzer() {
    let words = |code: &str| -> Vec<String> {
        code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .map(str::to_string)
            .collect()
    };
    let fuzzer = words(&code_of(
        &std::fs::read_to_string(root().join("tests/differential.rs")).expect("the fuzzer"),
    ));
    let mut undrawn = Vec::new();
    let app_files = sources()
        .into_iter()
        .filter(|f| f.starts_with("crates/apps/src/") || f.starts_with("crates/baselines/src/"));
    for file in app_files {
        let code = live_code(&file);
        let toks = words(&code);
        let apps = toks.windows(3).filter_map(|w| {
            let is_trait = w[0] == "Application" || w[0] == "HostApplication";
            (is_trait && w[1] == "for").then(|| w[2].clone())
        });
        // Free functions: `fn` at the start of a line, to the next `}`
        // there, as (name, words of the body).
        let mut free = Vec::new();
        let mut lines = code.lines();
        while let Some(line) = lines.next() {
            let head = line
                .trim_start_matches("pub ")
                .trim_start_matches("pub(crate) ");
            if let Some(sig) = head.strip_prefix("fn ") {
                let name: String = sig
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let body: Vec<&str> = lines.by_ref().take_while(|l| !l.starts_with('}')).collect();
                free.push((name, words(&format!("{line}\n{}", body.join("\n")))));
            }
        }
        for app in apps {
            // The free functions that build `app`, closed under "calls one".
            let mut entries: Vec<&str> = Vec::new();
            loop {
                let before = entries.len();
                for (name, body) in &free {
                    let builds = body
                        .iter()
                        .any(|w| *w == app || entries.contains(&w.as_str()));
                    if !entries.contains(&name.as_str()) && builds {
                        entries.push(name);
                    }
                }
                if entries.len() == before {
                    break;
                }
            }
            if !entries.iter().any(|e| fuzzer.iter().any(|w| w == e)) {
                undrawn.push(format!("{app} ({file}; entry points {entries:?})"));
            }
        }
    }
    assert!(
        undrawn.is_empty(),
        "applications tests/differential.rs never runs: {undrawn:?} — add each to the \
         fuzzer's generator (its `App` enum, `Case::draw`, `run` and `check_answer`)"
    );
}
