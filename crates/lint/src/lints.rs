//! The lint rules.
//!
//! Each rule is a pure function from the parsed workspace to findings;
//! suppression (`#[allow_atos_lint(..)]` attributes, `atos-lint: allow(..)`
//! comments, `lint:skip-file` markers) is applied centrally by
//! [`crate::run`], so rules report every raw site they see.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::model::{events_of, Event, Ord};
use crate::parse::{FnItem, TokKind};
use crate::summaries::{alloc_vetted, panic_vetted, Summaries, Why};
use crate::taint::{self, TaintResult};
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
    "determinism-taint",
    "shard-escape",
    "unchecked-guard",
];

/// The interprocedural substrate the rules share: built once per run.
pub struct Analysis {
    /// Resolved call graph.
    pub graph: CallGraph,
    /// Per-function effect summaries at their fixed point.
    pub summaries: Summaries,
    /// Determinism-taint findings and wall-clock key inventory.
    pub taint: TaintResult,
    /// Wall time of each analysis phase (for `--timings`).
    pub phase_timings: Vec<(&'static str, std::time::Duration)>,
}

/// Build the call graph, effect summaries, and taint analysis.
pub fn analyze(ws: &Workspace, cfg: &Config) -> Analysis {
    let t0 = std::time::Instant::now();
    let graph = CallGraph::build(ws);
    let t1 = std::time::Instant::now();
    let summaries = Summaries::compute(ws, cfg, &graph);
    let t2 = std::time::Instant::now();
    let taint = taint::analyze(ws, cfg, &graph);
    let t3 = std::time::Instant::now();
    Analysis {
        graph,
        summaries,
        taint,
        phase_timings: vec![
            ("analysis: call graph", t1 - t0),
            ("analysis: effect summaries", t2 - t1),
            ("analysis: determinism taint", t3 - t2),
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
            hot_path_alloc(ws, fi, cfg, an, out)
        });
        rule("panic-in-kernel", &mut out, &mut |fi, _, out| {
            panic_in_kernel(ws, fi, cfg, an, out)
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
        rule("unchecked-guard", &mut out, &mut |fi, _, out| {
            crate::bounds::unchecked_guard(ws, fi, cfg, an, out)
        });
    }
    let t0 = std::time::Instant::now();
    out.extend(an.taint.findings.iter().cloned());
    timings.push(("determinism-taint", t0.elapsed()));
    out.retain(|f| {
        ws.files
            .iter()
            .find(|sf| sf.path == f.file)
            .map(|sf| !crate::suppressed(sf, f))
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

/// Is this function hot: annotated `#[atos_hot]` or config-denylisted.
pub(crate) fn is_hot(file: &SourceFile, f: &FnItem, cfg: &Config) -> bool {
    if f.in_test_mod || f.body.is_empty() {
        return false;
    }
    f.attrs.iter().any(|a| a.name == "atos_hot")
        || cfg.hot_fns(&file.path).contains(&f.name.as_str())
}

/// Rule 5: `hot-path-alloc` — no allocating construct in a hot function
/// or, transitively, in anything it calls through the resolved call
/// graph. A direct callee that allocates locally keeps the original
/// one-hop message; deeper chains spell out the call path. Callees
/// vetted at their own definition (hot themselves, `#[atos_alloc_ok]`,
/// or an allow) stop the walk.
fn hot_path_alloc(
    ws: &Workspace,
    fi: usize,
    cfg: &Config,
    an: &Analysis,
    out: &mut Vec<Finding>,
) {
    let file = &ws.files[fi];
    for (gi, f) in file.parsed.fns.iter().enumerate() {
        if !is_hot(file, f, cfg) {
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
            if alloc_vetted(ws, cfg, site.callee) {
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

/// Rule 6: `panic-in-kernel` — no panicking construct in queue-protocol
/// and runtime-step functions, nor (transitively) in anything they call
/// through the resolved call graph. A panic between reservation and
/// publication strands the reservation for every other thread. Callees
/// vetted at their own definition (kernel-scope themselves, or carrying
/// an allow) stop the walk; panicking *indexing* stays a local judgment
/// (`forbid_index`) and is not propagated.
fn panic_in_kernel(
    ws: &Workspace,
    fi: usize,
    cfg: &Config,
    an: &Analysis,
    out: &mut Vec<Finding>,
) {
    let file = &ws.files[fi];
    let Some(scope) = cfg.kernel_scope(&file.path) else {
        return;
    };
    for (gi, f) in file.parsed.fns.iter().enumerate() {
        if f.in_test_mod || !scope.fns.contains(&f.name.as_str()) {
            continue;
        }
        let mut checked: Vec<&str> = Vec::new();
        for site in an.graph.callees_of((fi, gi)) {
            if checked.contains(&site.name.as_str()) {
                continue;
            }
            checked.push(&site.name);
            if panic_vetted(ws, cfg, site.callee) {
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
                             handle the None/Err arm or use an unchecked accessor with \
                             a SAFETY argument",
                            f.name
                        ),
                    ));
                }
                Event::Index { base, line } if scope.forbid_index => {
                    out.push(finding(
                        "panic-in-kernel",
                        file,
                        *line,
                        format!(
                            "panicking index `{base}[..]` in protocol fn `{}`; use a \
                             bounds-proven unchecked accessor",
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

/// Rule 7: `sim-determinism` — the simulator must be a pure function of
/// its inputs: no wall-clock types, no default-hasher containers (their
/// iteration order is seeded per-process), no thread sleeps.
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
