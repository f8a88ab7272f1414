//! Parser fuzz: the hand-rolled lexer/parser and the rule over it must
//! turn *any* text into findings or none — never a panic, never a hang.
//! Inputs: arbitrary bytes (kept as valid UTF-8) spliced with the lexer's
//! hard cases, and every real workspace file truncated at an arbitrary
//! byte and with an arbitrary bracket deleted.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use atos_lint::Workspace;
use proptest::collection::vec;
use proptest::prelude::*;

/// Lint one in-memory file on its own thread;
/// fail on a panic or when it is not back within a second.
fn lint_bounded(path: &str, src: String) {
    let (tx, rx) = mpsc::channel();
    let sources = vec![(path.to_string(), src)];
    let worker = std::thread::spawn(move || {
        let ws = Workspace::from_sources(sources);
        let _ = tx.send(atos_lint::run(&ws).len());
    });
    match rx.recv_timeout(Duration::from_secs(1)) {
        Ok(_) => worker.join().expect("lint thread exits cleanly"),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("atos-lint hung (> 1 s) on a mangled {path}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("atos-lint panicked on a mangled {path}")
        }
    }
}

/// What the lexer has to disambiguate or balance.
const HARD_CASES: &[&str] = &[
    "\"",
    "r\"",
    "r#\"",
    "\"#",
    "'",
    "'a",
    "'\\",
    "\\",
    "/*",
    "*/",
    "//",
    "\n",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "#[atos_hot",
    "#[atos_hot(no_index)]",
    "#[derive(",
    "#[cfg(test)]",
    "// atos-lint: hot",
    "// atos-lint: allow(",
    "fn ",
    "fn f(&mut self, pe: usize",
    "impl ",
    "impl X for Y ",
    "mod ",
    "use a::{b, c as ",
    "unsafe ",
    ".unwrap()",
    ".with_mut(|p| ",
    ".load(Ordering::",
    "self.x[i] = ",
    "::",
    "0..",
    "x!",
    " ",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir").flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the workspace as `(workspace-relative path, text)`;
/// the relative path keeps each file in its real crate, which call
/// resolution keys on.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("root");
    let mut paths = Vec::new();
    rust_files(&root, &mut paths);
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            (rel, std::fs::read_to_string(p).expect("utf-8 source"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_is_linted_without_panic(
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(0usize..HARD_CASES.len(), 0..48),
        path in 0usize..3,
    ) {
        // Interleave raw bytes (lossily decoded: still valid UTF-8) with
        // the hard cases, a few bytes between each.
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        let mut chunks = raw.char_indices().step_by(5).map(|(i, _)| i).chain([raw.len()]);
        let mut src = String::new();
        let mut from = chunks.next().unwrap_or(0);
        for pick in picks {
            let to = chunks.next().unwrap_or(raw.len());
            src.push_str(&raw[from..to]);
            src.push_str(HARD_CASES[pick]);
            from = to;
        }
        src.push_str(&raw[from..]);
        // Inside two crates, and outside any.
        let path = ["crates/apps/src/fuzz.rs", "crates/queue/src/fuzz.rs", "fuzz.rs"][path];
        lint_bounded(path, src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn mangled_workspace_files_are_linted_without_panic(cut in any::<usize>(), drop in any::<usize>()) {
        for (path, src) in workspace_sources() {
            let mut at = cut % (src.len() + 1);
            while !src.is_char_boundary(at) {
                at -= 1;
            }
            lint_bounded(&path, src[..at].to_string());

            let brackets: Vec<usize> = src
                .char_indices()
                .filter(|(_, c)| "()[]{}".contains(*c))
                .map(|(i, _)| i)
                .collect();
            if !brackets.is_empty() {
                let mut unbalanced = src.clone();
                unbalanced.remove(brackets[drop % brackets.len()]);
                lint_bounded(&path, unbalanced);
            }
        }
    }
}
