//! The lint rule: `panic-in-kernel`, the one check a compiler lint cannot
//! express, because it walks the workspace call graph. Suppression
//! (`atos-lint: allow(panic_in_kernel)` comments) is applied centrally by
//! [`run`], so the rule reports every raw site it sees.

use crate::callgraph::CallGraph;
use crate::model::{events_of, Event};
use crate::parse::FnItem;
use crate::summaries::{vetted, Summaries};
use crate::{Finding, SourceFile, Workspace};

/// All rule identifiers, in report order.
pub const RULES: &[&str] = &["panic-in-kernel"];

/// The interprocedural substrate the rule walks: built once per run.
pub struct Analysis {
    /// Resolved call graph.
    pub graph: CallGraph,
    /// Per-function panic summaries at their fixed point.
    pub summaries: Summaries,
    /// Wall time of each analysis phase (for `--timings`).
    pub phase_timings: Vec<(&'static str, std::time::Duration)>,
}

/// Build the call graph and the panic summaries.
pub fn analyze(ws: &Workspace) -> Analysis {
    let t0 = std::time::Instant::now();
    let graph = CallGraph::build(ws);
    let t1 = std::time::Instant::now();
    let summaries = Summaries::compute(ws, &graph);
    let t2 = std::time::Instant::now();
    Analysis {
        graph,
        summaries,
        phase_timings: vec![
            ("analysis: call graph", t1 - t0),
            ("analysis: panic summaries", t2 - t1),
        ],
    }
}

/// Run the rule against a prebuilt [`Analysis`] and apply suppressions:
/// the findings sorted by `(file, line)` — a stable order for goldens.
pub fn run(ws: &Workspace, an: &Analysis) -> Vec<Finding> {
    let mut out = Vec::new();
    for fi in 0..ws.files.len() {
        panic_in_kernel(ws, fi, an, &mut out);
    }
    out.retain(|f| {
        ws.files
            .iter()
            .find(|sf| sf.path == f.file)
            .map(|sf| !crate::allowed_at(sf, f.line))
            .unwrap_or(true)
    });
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out.dedup();
    out
}

fn finding(file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule: RULES[0],
        file: file.path.clone(),
        line,
        message,
    }
}

// ------------------------------------------------------- panic-in-kernel

/// How a function declares itself hot, if it does: `#[atos_hot]` where
/// the crate depends on `atos-macros`, the comment `// atos-lint: hot` on
/// the line above the `fn` in the dependency-free crates. Hot means
/// `panic-in-kernel` applies, transitively, and that
/// `crates/core/tests/alloc_count.rs` must run the function inside a
/// counted window. The one argument — `#[atos_hot(no_index)]` /
/// `// atos-lint: hot(no-index)` — also forbids panicking slice indexing
/// (`ident[i]`) in the body: the lock-free queue protocol, where a bounds
/// panic would strand a published reservation, and the `prefetch` hint
/// path, which runs over tasks that have not executed yet. The runtime
/// indexes its own dense PE arrays pervasively and does not take it.
///
/// `None`: not hot; `Some(no_index)` otherwise.
pub fn hot_marker(file: &SourceFile, f: &FnItem) -> Option<bool> {
    if f.in_test_mod || f.body.is_empty() {
        return None;
    }
    if let Some(a) = f.attrs.iter().find(|a| a.name == "atos_hot") {
        return Some(a.args.iter().any(|x| x == "no_index"));
    }
    // The comment form is the whole line directly above the `fn`: prose
    // that merely mentions the marker (this doc comment) is not one.
    let above = file
        .parsed
        .comments
        .iter()
        .find(|c| c.end_line + 1 == f.line)?;
    let arg = above
        .text
        .lines()
        .last()?
        .trim()
        .strip_prefix("// atos-lint: hot")?;
    match arg {
        "" => Some(false),
        "(no-index)" => Some(true),
        _ => None,
    }
}

pub(crate) const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
pub(crate) const PANIC_CALLS: &[&str] = &["unwrap", "expect"];

/// `panic-in-kernel` — no panicking construct in a hot function
/// (queue protocol, runtime step, engine heap, hint path), nor
/// (transitively) in anything it calls through the resolved call graph. A
/// panic between reservation and publication strands the reservation for
/// every other thread. Callees vetted at their own definition (hot
/// themselves, or carrying an allow) stop the walk; panicking *indexing*
/// stays a local judgment (the marker's `no_index` argument) and is not
/// propagated.
fn panic_in_kernel(ws: &Workspace, fi: usize, an: &Analysis, out: &mut Vec<Finding>) {
    let file = &ws.files[fi];
    for (gi, f) in file.parsed.fns.iter().enumerate() {
        let Some(no_index) = hot_marker(file, f) else {
            continue;
        };
        let mut checked: Vec<&str> = Vec::new();
        for site in an.graph.callees_of((fi, gi)) {
            if checked.contains(&site.name.as_str()) {
                continue;
            }
            checked.push(&site.name);
            if vetted(ws, site.callee) {
                continue;
            }
            let Some((hops, pat, pfile, pline)) = an.summaries.chain(ws, site.callee) else {
                continue;
            };
            let (cfi, cgi) = site.callee;
            let cfile = &ws.files[cfi];
            let callee = &cfile.parsed.fns[cgi];
            let via = if hops.len() > 1 {
                let chain: Vec<String> = hops.iter().map(|(n, _, _)| format!("`{n}`")).collect();
                format!(" via {}", chain.join(" -> "))
            } else {
                String::new()
            };
            out.push(finding(
                file,
                site.line,
                format!(
                    "protocol fn `{}` calls `{}` ({}:{}), which can panic{via} \
                     (`{pat}` at {pfile}:{pline}); outline the failure path and vet \
                     it, or handle the error arm",
                    f.name, callee.name, cfile.path, callee.line
                ),
            ));
        }
        for e in events_of(&file.parsed, f) {
            match &e {
                Event::Macro { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                    out.push(finding(
                        file,
                        *line,
                        format!(
                            "`{name}!` in protocol fn `{}` can abort mid-protocol",
                            f.name
                        ),
                    ));
                }
                Event::Call { name, line, .. } if PANIC_CALLS.contains(&name.as_str()) => {
                    out.push(finding(
                        file,
                        *line,
                        format!(
                            "`{name}()` in protocol fn `{}` can abort mid-protocol; \
                             handle the None/Err arm (a lookup is `get(..)` with its \
                             `None` arm)",
                            f.name
                        ),
                    ));
                }
                Event::Index { base, line } if no_index => {
                    out.push(finding(
                        file,
                        *line,
                        format!(
                            "panicking index `{base}[..]` in protocol fn `{}`; use \
                             `get(..)` and handle the `None` arm",
                            f.name
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_marker_reads_both_spellings_and_the_argument() {
        let src = "#[atos_hot]\nfn a() { x(); }\n\
                   #[inline]\n#[atos_hot(no_index)]\nfn b() { x(); }\n\
                   /// Docs.\n// atos-lint: hot\npub fn c() { x(); }\n\
                   #[inline]\n// atos-lint: hot(no-index)\npub(crate) fn d() { x(); }\n\
                   // atos-lint: hot\n\nfn not_adjacent() { x(); }\n\
                   /// Prose naming `// atos-lint: hot` is not a marker.\nfn prose() { x(); }\n\
                   // atos-lint: hotter\nfn misspelt() { x(); }\n\
                   fn plain() { x(); }\n\
                   #[cfg(test)]\nmod tests {\n#[atos_hot]\nfn in_tests() { x(); }\n}\n";
        let ws = Workspace::from_sources(vec![("x.rs".into(), src.into())]);
        let file = &ws.files[0];
        let got: Vec<(&str, Option<bool>)> = file
            .parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), hot_marker(file, f)))
            .collect();
        assert_eq!(
            got,
            [
                ("a", Some(false)),
                ("b", Some(true)),
                ("c", Some(false)),
                ("d", Some(true)),
                ("not_adjacent", None),
                ("prose", None),
                ("misspelt", None),
                ("plain", None),
                ("in_tests", None),
            ]
        );
    }
}
