//! The lint rules.
//!
//! Each rule is a pure function from the parsed workspace to findings;
//! suppression (`atos-lint: allow(..)` comments, `lint:skip-file` markers)
//! is applied centrally by [`crate::run`], so rules report every raw site
//! they see.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::model::{events_of, Event, Ord};
use crate::parse::{FnItem, TokKind};
use crate::summaries::{vetted, Summaries, Why};
use crate::{Finding, SourceFile, Workspace};

/// All rule identifiers, in report order.
pub const RULES: &[&str] = &[
    "facade-bypass",
    "relaxed-publish",
    "unreleased-write",
    "acquire-pairing",
    "hot-path-alloc",
    "panic-in-kernel",
    "sim-determinism",
    "missing-safety",
    "shard-escape",
];

/// The interprocedural substrate the rules share: built once per run.
pub struct Analysis {
    /// Resolved call graph.
    pub graph: CallGraph,
    /// Per-function effect summaries at their fixed point.
    pub summaries: Summaries,
    /// Wall time of each analysis phase (for `--timings`).
    pub phase_timings: Vec<(&'static str, std::time::Duration)>,
}

/// Build the call graph and the effect summaries.
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
            ("analysis: effect summaries", t2 - t1),
        ],
    }
}

/// Run every rule against a prebuilt [`Analysis`] and apply suppressions:
/// the findings sorted by `(file, line, rule)` — a stable order for
/// goldens — plus per-rule wall time (for `--timings`; the three ordering
/// rules share one pass and report as one row).
pub fn run(
    ws: &Workspace,
    cfg: &Config,
    an: &Analysis,
) -> (Vec<Finding>, Vec<(&'static str, std::time::Duration)>) {
    let mut out = Vec::new();
    let mut timings: Vec<(&'static str, std::time::Duration)> = Vec::new();
    {
        let mut rule = |name: &'static str,
                        out: &mut Vec<Finding>,
                        f: &mut dyn FnMut(usize, &SourceFile, &mut Vec<Finding>)| {
            let t0 = std::time::Instant::now();
            for (fi, file) in ws.files.iter().enumerate() {
                if !file.skip {
                    f(fi, file, out);
                }
            }
            timings.push((name, t0.elapsed()));
        };
        rule("facade-bypass", &mut out, &mut |_, file, out| {
            facade_bypass(file, cfg, out)
        });
        rule("ordering (3 rules)", &mut out, &mut |_, file, out| {
            ordering_rules(file, cfg, out)
        });
        rule("hot-path-alloc", &mut out, &mut |fi, _, out| {
            hot_path_alloc(ws, fi, an, out)
        });
        rule("panic-in-kernel", &mut out, &mut |fi, _, out| {
            panic_in_kernel(ws, fi, an, out)
        });
        rule("sim-determinism", &mut out, &mut |_, file, out| {
            sim_determinism(file, cfg, out)
        });
        rule("missing-safety", &mut out, &mut |_, file, out| {
            missing_safety(file, out)
        });
        rule("shard-escape", &mut out, &mut |fi, _, out| {
            crate::shard::shard_escape(ws, fi, cfg, an, out)
        });
    }
    out.retain(|f| {
        ws.files
            .iter()
            .find(|sf| sf.path == f.file)
            .map(|sf| !crate::allowed_at(sf, f.line, f.rule))
            .unwrap_or(true)
    });
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out.dedup();
    (out, timings)
}

fn finding(rule: &'static str, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.path.clone(),
        line,
        message,
    }
}

// ---------------------------------------------------------------- facade

/// Rule 1: `facade-bypass` — only the facade, the model checker, and the
/// vendored shims may name `std::sync::atomic` / `std::cell::UnsafeCell`
/// directly. Everything else goes through `atos_queue::sync`, so the
/// whole workspace can be re-pointed at the checker's shadow types with
/// one `--cfg`.
fn facade_bypass(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.is_facade_allowed(&file.path) {
        return;
    }
    let toks = &file.parsed.toks;
    let mut seen_lines = Vec::new();
    for i in 0..toks.len().saturating_sub(4) {
        let root = toks[i].text.as_str();
        if (root == "std" || root == "core")
            && toks[i + 1].is("::")
            && toks[i + 3].is("::")
            && toks[i].kind == TokKind::Ident
        {
            let ns = toks[i + 2].text.as_str();
            let leaf = toks[i + 4].text.as_str();
            let hit = (ns == "sync" && leaf == "atomic")
                || (ns == "cell" && leaf == "UnsafeCell");
            if hit && !seen_lines.contains(&toks[i].line) {
                seen_lines.push(toks[i].line);
                out.push(finding(
                    "facade-bypass",
                    file,
                    toks[i].line,
                    format!(
                        "direct `{root}::{ns}::{}` use; go through the `atos_queue::sync` \
                         facade so `--cfg atos_check` can interpose the model checker",
                        if ns == "sync" { "atomic" } else { leaf }
                    ),
                ));
            }
        }
    }
}

// ------------------------------------------------------------- ordering

/// Rules 2–4: the ordering-dataflow pass. Per non-test function, walk the
/// event list tracking the publication protocol:
///
/// * `relaxed-publish` — a relaxed atomic *write* (store/RMW/CAS-success)
///   while a cell write is still unpublished. Readers that acquire-load
///   the counter would not synchronize-with the slot contents.
/// * `unreleased-write` — a cell write that is never followed by any
///   release-ordered atomic write in the same function: the data has no
///   publication edge at all.
/// * `acquire-pairing` — a relaxed load of a *publish field* (a field
///   that receives release-ordered writes somewhere in the file) followed
///   by a cell read with no intervening acquire: the read may observe
///   pre-publication slot state.
fn ordering_rules(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg.is_ordering_exempt(&file.path) {
        return;
    }
    // Publish fields: receive a release-ordered atomic write in any
    // non-test fn of this file.
    let mut publish_fields: Vec<String> = Vec::new();
    let fn_events: Vec<(usize, Vec<Event>)> = file
        .parsed
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test_mod && !f.body.is_empty())
        .map(|(i, f)| (i, events_of(&file.parsed, f)))
        .collect();
    for (_, evs) in &fn_events {
        for e in evs {
            let (field, ord) = match e {
                Event::AtomicWrite { field, ord, .. } => (field, *ord),
                Event::Cas { field, success, .. } => (field, *success),
                _ => continue,
            };
            if ord.releases() && !field.is_empty() && !publish_fields.contains(field) {
                publish_fields.push(field.clone());
            }
        }
    }

    for (fidx, evs) in &fn_events {
        let f = &file.parsed.fns[*fidx];
        // Pending (unpublished) cell writes, by line.
        let mut pending: Vec<(String, u32)> = Vec::new();
        // Relaxed load of a publish field with no acquire since.
        let mut tainted: Option<(String, u32)> = None;
        for e in evs {
            match e {
                Event::CellWrite { field, line } => pending.push((field.clone(), *line)),
                Event::AtomicWrite { field, ord, line }
                | Event::Cas {
                    field,
                    success: ord,
                    line,
                } => {
                    if ord.releases() {
                        pending.clear();
                    } else if *ord == Ord::Relaxed && !pending.is_empty() {
                        let (_, wline) = pending[0].clone();
                        out.push(finding(
                            "relaxed-publish",
                            file,
                            *line,
                            format!(
                                "relaxed atomic write to `{field}` in `{}` while the cell \
                                 write at line {wline} is unpublished; use Release (or \
                                 stronger) so poppers synchronize-with the slot contents",
                                f.name
                            ),
                        ));
                        // Treat as published to avoid cascading reports.
                        pending.clear();
                    }
                    if ord.acquires() {
                        tainted = None;
                    }
                }
                Event::AtomicLoad { field, ord, line } => {
                    if ord.acquires() {
                        tainted = None;
                    } else if *ord == Ord::Relaxed
                        && publish_fields.contains(field)
                        && tainted.is_none()
                    {
                        tainted = Some((field.clone(), *line));
                    }
                }
                Event::Fence { ord, .. } => {
                    if ord.releases() {
                        pending.clear();
                    }
                    if ord.acquires() {
                        tainted = None;
                    }
                }
                Event::CellRead { line, .. } => {
                    if let Some((lfield, lline)) = &tainted {
                        out.push(finding(
                            "acquire-pairing",
                            file,
                            *line,
                            format!(
                                "cell read in `{}` after relaxed load of publish field \
                                 `{lfield}` (line {lline}) with no acquire in between; \
                                 the read can observe pre-publication slot state",
                                f.name
                            ),
                        ));
                        tainted = None;
                    }
                }
                _ => {}
            }
        }
        for (field, wline) in pending {
            out.push(finding(
                "unreleased-write",
                file,
                wline,
                format!(
                    "cell write to `{field}` in `{}` is never published by a \
                     release-ordered atomic write in this function",
                    f.name
                ),
            ));
        }
    }
}

// ------------------------------------------------------------ hot-path

pub(crate) const ALLOC_METHODS: &[&str] = &[
    "with_capacity",
    "collect",
    "to_vec",
    "to_string",
    "to_owned",
    "into_boxed_slice",
    "reserve",
    "reserve_exact",
];
pub(crate) const ALLOC_NEW_PATHS: &[&str] = &["Box::", "Rc::", "Arc::"];
pub(crate) const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Does this event allocate? Returns a short description if so.
pub(crate) fn alloc_pattern(e: &Event) -> Option<String> {
    match e {
        Event::Macro { name, .. } if ALLOC_MACROS.contains(&name.as_str()) => {
            Some(format!("{name}!"))
        }
        Event::Call { name, path, .. } => {
            if ALLOC_METHODS.contains(&name.as_str()) {
                Some(name.clone())
            } else if name == "new" && ALLOC_NEW_PATHS.contains(&path.as_str()) {
                Some(format!("{path}new"))
            } else if name == "from" && path == "String::" {
                Some("String::from".into())
            } else {
                None
            }
        }
        _ => None,
    }
}

/// How a function declares itself hot, if it does: `#[atos_hot]` where
/// the crate depends on `atos-macros`, the comment `// atos-lint: hot` on
/// the line above the `fn` in the dependency-free crates. Hot means both
/// `hot-path-alloc` and `panic-in-kernel` apply, transitively. The one
/// argument — `#[atos_hot(no_index)]` / `// atos-lint: hot(no-index)` —
/// also forbids panicking slice indexing (`ident[i]`) in the body: the
/// lock-free queue protocol, where a bounds panic would strand a published
/// reservation, and the `prefetch` hint path, which runs over tasks that
/// have not executed yet. The runtime indexes its own dense PE arrays
/// pervasively and does not take it.
///
/// `None`: not hot; `Some(no_index)` otherwise.
pub(crate) fn hot_marker(file: &SourceFile, f: &FnItem) -> Option<bool> {
    if f.in_test_mod || f.body.is_empty() {
        return None;
    }
    if let Some(a) = f.attrs.iter().find(|a| a.name == "atos_hot") {
        return Some(a.args.iter().any(|x| x == "no_index"));
    }
    // The comment form is the whole line directly above the `fn`: prose
    // that merely mentions the marker (this doc comment) is not one.
    let above = file.parsed.comments.iter().find(|c| c.end_line + 1 == f.line)?;
    let arg = above.text.lines().last()?.trim().strip_prefix("// atos-lint: hot")?;
    match arg {
        "" => Some(false),
        "(no-index)" => Some(true),
        _ => None,
    }
}

/// Rule 5: `hot-path-alloc` — no allocating construct in a hot function
/// or, transitively, in anything it calls through the resolved call
/// graph. A direct callee that allocates locally keeps the original
/// one-hop message; deeper chains spell out the call path. Callees
/// vetted at their own definition (hot themselves, or an allow) stop the
/// walk.
fn hot_path_alloc(ws: &Workspace, fi: usize, an: &Analysis, out: &mut Vec<Finding>) {
    let file = &ws.files[fi];
    for (gi, f) in file.parsed.fns.iter().enumerate() {
        if hot_marker(file, f).is_none() {
            continue;
        }
        for e in events_of(&file.parsed, f) {
            if let Some(pat) = alloc_pattern(&e) {
                out.push(finding(
                    "hot-path-alloc",
                    file,
                    e.line(),
                    format!("allocating `{pat}` in hot-path fn `{}`", f.name),
                ));
            }
        }
        let mut checked: Vec<&str> = Vec::new();
        for site in an.graph.callees_of((fi, gi)) {
            if checked.contains(&site.name.as_str()) {
                continue;
            }
            checked.push(&site.name);
            if vetted(ws, site.callee, "hot-path-alloc") {
                continue;
            }
            let (cfi, cgi) = site.callee;
            let cfile = &ws.files[cfi];
            let callee = &cfile.parsed.fns[cgi];
            match an.summaries.of(site.callee).alloc {
                None => {}
                Some(Why::Local { .. }) => {
                    // Depth 1: report every local allocation in the callee.
                    for ce in events_of(&cfile.parsed, callee) {
                        if let Some(pat) = alloc_pattern(&ce) {
                            out.push(finding(
                                "hot-path-alloc",
                                file,
                                site.line,
                                format!(
                                    "hot-path fn `{}` calls `{}` ({}:{}), which allocates \
                                     (`{pat}` at line {})",
                                    f.name,
                                    callee.name,
                                    cfile.path,
                                    callee.line,
                                    ce.line()
                                ),
                            ));
                        }
                    }
                }
                Some(Why::Via { .. }) => {
                    let Some((hops, pat, pfile, pline)) =
                        an.summaries.chain(ws, site.callee, |e| e.alloc.clone())
                    else {
                        continue;
                    };
                    let chain: Vec<String> =
                        hops.iter().map(|(n, _, _)| format!("`{n}`")).collect();
                    out.push(finding(
                        "hot-path-alloc",
                        file,
                        site.line,
                        format!(
                            "hot-path fn `{}` calls `{}` ({}:{}), which allocates \
                             transitively via {} (`{pat}` at {pfile}:{pline})",
                            f.name,
                            callee.name,
                            cfile.path,
                            callee.line,
                            chain.join(" -> ")
                        ),
                    ));
                }
            }
        }
    }
}

// ------------------------------------------------------- panic-in-kernel

pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"];
pub(crate) const PANIC_CALLS: &[&str] = &["unwrap", "expect"];

/// Rule 6: `panic-in-kernel` — no panicking construct in a hot function
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
            if vetted(ws, site.callee, "panic-in-kernel") {
                continue;
            }
            if an.summaries.of(site.callee).panic.is_none() {
                continue;
            }
            let Some((hops, pat, pfile, pline)) =
                an.summaries.chain(ws, site.callee, |e| e.panic.clone())
            else {
                continue;
            };
            let (cfi, cgi) = site.callee;
            let cfile = &ws.files[cfi];
            let callee = &cfile.parsed.fns[cgi];
            let via = if hops.len() > 1 {
                let chain: Vec<String> =
                    hops.iter().map(|(n, _, _)| format!("`{n}`")).collect();
                format!(" via {}", chain.join(" -> "))
            } else {
                String::new()
            };
            out.push(finding(
                "panic-in-kernel",
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
                        "panic-in-kernel",
                        file,
                        *line,
                        format!("`{name}!` in protocol fn `{}` can abort mid-protocol", f.name),
                    ));
                }
                Event::Call { name, line, .. } if PANIC_CALLS.contains(&name.as_str()) => {
                    out.push(finding(
                        "panic-in-kernel",
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
                        "panic-in-kernel",
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

// ------------------------------------------------------ sim-determinism

/// Rule 7: `sim-determinism` — the simulator, the runtime that records
/// its trace events, and the applications and baselines that charge its
/// virtual time must be a pure function of their inputs: no wall-clock
/// types, no default-hasher containers (their iteration order is seeded
/// per-process), no thread sleeps, no host thread-count query. Lexical: a
/// clock that cannot be named in these files cannot flow to a trace.
fn sim_determinism(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !cfg.is_sim_path(&file.path) {
        return;
    }
    let toks = &file.parsed.toks;
    let mut seen: Vec<(u32, String)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !cfg.sim_forbidden.contains(&t.text.as_str()) {
            continue;
        }
        // `sleep` only as a call; the rest also in type/use position.
        if t.text == "sleep" && !toks.get(i + 1).map(|n| n.is("(")).unwrap_or(false) {
            continue;
        }
        if let Some(f) = file.parsed.enclosing_fn(i) {
            if f.in_test_mod {
                continue;
            }
        }
        let key = (t.line, t.text.clone());
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        out.push(finding(
            "sim-determinism",
            file,
            t.line,
            format!(
                "`{}` in deterministic-simulation code; virtual time and order-stable \
                 containers (BTreeMap/Vec) only",
                t.text
            ),
        ));
    }
}

// -------------------------------------------------------- missing-safety

/// Rule 8: `missing-safety` — every `unsafe` keyword needs a `SAFETY:`
/// comment on the same line or within the 8 preceding lines.
fn missing_safety(file: &SourceFile, out: &mut Vec<Finding>) {
    let mut seen_lines: Vec<u32> = Vec::new();
    for (i, t) in file.parsed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !t.is("unsafe") {
            continue;
        }
        // `unsafe fn` declarations document their contract with a
        // `# Safety` doc section; the SAFETY-comment convention applies to
        // the sites that *discharge* an obligation (blocks and impls).
        if file.parsed.toks.get(i + 1).is_some_and(|n| n.is("fn")) {
            continue;
        }
        if seen_lines.contains(&t.line) {
            continue;
        }
        seen_lines.push(t.line);
        if !file.parsed.comment_near(t.line, 8, "SAFETY") {
            out.push(finding(
                "missing-safety",
                file,
                t.line,
                "`unsafe` without a `SAFETY:` comment on the same line or within \
                 the 8 preceding lines"
                    .into(),
            ));
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
