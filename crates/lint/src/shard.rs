//! `shard-escape`: the owner-computes discipline, checked statically.
//!
//! The model's costs rest on a convention the type system cannot see: an
//! `Application`'s entry points (`process`, `on_receive`, `on_idle`) may
//! mutate *authoritative* vertex-indexed state only at indices the
//! current PE owns — the paper's one-sided `atomicMin` lands in the
//! owner's memory, and reaches it as a message. A write to `depth[w]`
//! where `partition.owner(w) != pe` is communication the fabric never
//! charged: the run's virtual time and its Table III message counts are
//! wrong, and nothing at run time says so. (The name is from the K-shard
//! engine the check was written for, where such a write also diverged
//! between shard counts; DESIGN.md §11.)
//!
//! Under the configured path scope every `process(&mut self, pe, ..)`
//! is an application: the rule takes the class of every field from the
//! `#[atos_shard(owner(..), private(..), shared(..))]` attribute on it —
//! a `process` without one is itself a finding — then walks the `Self`
//! type's entry points and everything they transitively call in the same
//! file:
//!
//! * a write to an `owner` field must be dominated by an owner witness
//!   for its index: an `assert_owner!(partition, v, pe)` /
//!   `debug_assert_eq!(partition.owner(v), pe)` (valid to the end of the
//!   function) or a `let o = partition.owner(v); if o == pe { … }` guard
//!   (valid inside the guarded block only);
//! * a write to a `shared` field, or a wholesale overwrite of an `owner`
//!   array, is always a finding;
//! * `private` fields (send-side mirrors) are writable freely — no other
//!   PE reads them;
//! * sends (`out.push(owner, task)`) are the only escape for non-owned
//!   updates and are untouched by the rule.
//!
//! Transitive violations are reported at the entry point's call site
//! with a provenance chain naming the helper and the violating write,
//! mirroring `panic-in-kernel`'s chain messages.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::callgraph::FnId;
use crate::config::Config;
use crate::lints::Analysis;
use crate::model::{first_ident_in, matching, split_top_commas};
use crate::parse::{FnItem, Tok, TokKind};
use crate::{Finding, SourceFile, Workspace};

/// Ownership class of one application field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldClass {
    /// Owner-indexed authoritative state: writable only at owned indices.
    Owner,
    /// Per-sender scratch (mirrors): read by no other PE.
    Private,
    /// Immutable topology/config: read-only in entry paths.
    Shared,
}

/// One detected field write in a function body.
struct FieldWrite {
    /// Field name (last path segment before the index/assignment).
    field: String,
    /// First identifier of the *last* index group (`w` in
    /// `mirror[pe][w as usize]`), `None` for a wholesale assignment.
    idx: Option<String>,
    /// Token index of the field identifier (for witness-span checks).
    at: usize,
    /// 1-based source line of the write.
    line: u32,
}

/// A rule violation inside one function, before message rendering.
struct Violation {
    field: String,
    idx: Option<String>,
    line: u32,
    class: FieldClass,
}

/// The `Application` trait's three entry points: their writes (direct
/// and transitive) must respect the owner-computes discipline.
const ENTRY_FNS: &[&str] = &["process", "on_receive", "on_idle"];

/// Is the token at `j` the start of an assignment operator (`=` or a
/// compound `+=`-family, excluding the `==` comparison and the `=>`
/// match arrow — `recv.field => ..` in a match-guard arm is a read)?
fn assigns_at(toks: &[Tok], j: usize) -> bool {
    let Some(t) = toks.get(j) else { return false };
    let next_eq = toks.get(j + 1).is_some_and(|n| n.is("="));
    if t.is("=") {
        let arrow = toks.get(j + 1).is_some_and(|n| n.is(">"));
        return !next_eq && !arrow;
    }
    matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^") && next_eq
}

/// Every `recv.field[..] = ..` / `&mut recv.field[..]` / `recv.field = ..`
/// write in a token range, in source order.
fn writes_in(toks: &[Tok], range: Range<usize>) -> Vec<FieldWrite> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 2 < range.end {
        if toks[i].kind == TokKind::Ident
            && toks[i + 1].is(".")
            && toks[i + 2].kind == TokKind::Ident
        {
            let field_at = i + 2;
            let mut j = field_at + 1;
            let mut idx = None;
            let mut indexed = false;
            while j < range.end && toks[j].is("[") {
                let Some(close) = matching(toks, j, "[", "]") else { break };
                idx = first_ident_in(toks, j + 1..close).map(str::to_string);
                indexed = true;
                j = close + 1;
            }
            let borrow_mut = i >= 2 && toks[i - 1].is("mut") && toks[i - 2].is("&");
            if assigns_at(toks, j) || (borrow_mut && indexed) {
                out.push(FieldWrite {
                    field: toks[field_at].text.clone(),
                    idx: if indexed { idx } else { None },
                    at: field_at,
                    line: toks[field_at].line,
                });
            }
        }
        i += 1;
    }
    out
}

/// The impl's field classes, as its `process` declares them:
/// `#[atos_shard(owner(a, b), private(c), shared(d))]`. Empty when the
/// attribute is missing.
pub(crate) fn classify_fields(process: &FnItem) -> BTreeMap<String, FieldClass> {
    let mut map: BTreeMap<String, FieldClass> = BTreeMap::new();
    let Some(attr) = process.attrs.iter().find(|a| a.name == "atos_shard") else {
        return map;
    };
    // The parser flattens attribute args to an in-order ident list, so the
    // class keywords act as mode switches.
    let mut cur = None;
    for arg in &attr.args {
        match arg.as_str() {
            "owner" => cur = Some(FieldClass::Owner),
            "private" => cur = Some(FieldClass::Private),
            "shared" => cur = Some(FieldClass::Shared),
            field => {
                if let Some(c) = cur {
                    map.entry(field.to_string()).or_insert(c);
                }
            }
        }
    }
    map
}

/// Owner witnesses in one function: `(index var, token span where the
/// witness dominates)`.
fn collect_witnesses(toks: &[Tok], f: &FnItem) -> Vec<(String, Range<usize>)> {
    let mut spans: Vec<(String, Range<usize>)> = Vec::new();
    // `let O = <recv>.owner(X)` bindings seen so far: O → X.
    let mut bind: BTreeMap<String, String> = BTreeMap::new();
    let mut i = f.body.start;
    while i < f.body.end {
        let t = &toks[i];

        // Macro witnesses, valid from here to the end of the function:
        // `debug_assert_eq!(….owner(X), pe, …)` (either arg order) and
        // `assert_owner!(partition_expr, X, pe)`.
        if t.kind == TokKind::Ident
            && i + 2 < f.body.end
            && toks[i + 1].is("!")
            && toks[i + 2].is("(")
        {
            if let Some(close) = matching(toks, i + 2, "(", ")") {
                let args = i + 3..close;
                let vertex = match t.text.as_str() {
                    "debug_assert_eq" | "assert_eq" => {
                        let names_pe = args
                            .clone()
                            .any(|k| toks[k].kind == TokKind::Ident && toks[k].is("pe"));
                        if names_pe {
                            owner_call_vertex(toks, args)
                        } else {
                            None
                        }
                    }
                    "assert_owner" => split_top_commas(toks, args)
                        .get(1)
                        .and_then(|r| first_ident_in(toks, r.clone()))
                        .map(str::to_string),
                    _ => None,
                };
                if let Some(v) = vertex {
                    spans.push((v, i..f.body.end));
                }
                i = close + 1;
                continue;
            }
        }

        // `O = ….owner(X)` binding (typically `let owner = …`). The
        // left-walk over the receiver chain stops at `=`; a `==`
        // comparison has a punct (not an ident) before the `=` and is
        // rejected.
        if t.is(".")
            && i + 2 < f.body.end
            && toks[i + 1].is("owner")
            && toks[i + 2].is("(")
        {
            if let Some(close) = matching(toks, i + 2, "(", ")") {
                if let Some(x) = first_ident_in(toks, i + 3..close) {
                    let mut k = i;
                    while k > f.body.start
                        && (toks[k - 1].kind == TokKind::Ident || toks[k - 1].is("."))
                    {
                        k -= 1;
                    }
                    if k >= f.body.start + 2
                        && toks[k - 1].is("=")
                        && toks[k - 2].kind == TokKind::Ident
                    {
                        bind.insert(toks[k - 2].text.clone(), x.to_string());
                    }
                }
            }
        }

        // `if O == pe {` / `if pe == O {` guard: the witness holds inside
        // the guarded block only — an `else` branch write is *not*
        // covered, which is exactly the non-owner-escape shape.
        if t.is("if") && i + 5 < f.body.end {
            let (a, b) = (&toks[i + 1], &toks[i + 4]);
            if a.kind == TokKind::Ident
                && toks[i + 2].is("=")
                && toks[i + 3].is("=")
                && b.kind == TokKind::Ident
                && toks[i + 5].is("{")
            {
                let owner_var = if a.is("pe") { Some(&b.text) } else if b.is("pe") {
                    Some(&a.text)
                } else {
                    None
                };
                if let Some(x) = owner_var.and_then(|o| bind.get(o)) {
                    if let Some(end) = matching(toks, i + 5, "{", "}") {
                        spans.push((x.clone(), i + 5..end));
                    }
                }
            }
        }

        i += 1;
    }
    spans
}

/// The first ident inside the parens of the first `.owner(` call in a
/// token range (`debug_assert_eq!(self.partition.owner(w), pe)` → `w`).
fn owner_call_vertex(toks: &[Tok], range: Range<usize>) -> Option<String> {
    let mut i = range.start;
    while i + 2 < range.end {
        if toks[i].is(".") && toks[i + 1].is("owner") && toks[i + 2].is("(") {
            let close = matching(toks, i + 2, "(", ")")?;
            return first_ident_in(toks, i + 3..close).map(str::to_string);
        }
        i += 1;
    }
    None
}

/// All owner-computes violations inside one function.
fn violations_in(
    file: &SourceFile,
    f: &FnItem,
    classes: &BTreeMap<String, FieldClass>,
) -> Vec<Violation> {
    let toks = &file.parsed.toks;
    let witnesses = collect_witnesses(toks, f);
    let mut out = Vec::new();
    for w in writes_in(toks, f.body.clone()) {
        let Some(class) = classes.get(&w.field) else {
            continue; // unclassified receiver (not app state)
        };
        match class {
            FieldClass::Private => {}
            FieldClass::Shared => out.push(Violation {
                field: w.field,
                idx: w.idx,
                line: w.line,
                class: FieldClass::Shared,
            }),
            FieldClass::Owner => {
                let witnessed = w.idx.as_ref().is_some_and(|x| {
                    witnesses
                        .iter()
                        .any(|(v, span)| v == x && span.contains(&w.at))
                });
                if !witnessed {
                    out.push(Violation {
                        field: w.field,
                        idx: w.idx,
                        line: w.line,
                        class: FieldClass::Owner,
                    });
                }
            }
        }
    }
    out
}

fn render_local(f: &FnItem, v: &Violation) -> String {
    match (v.class, &v.idx) {
        (FieldClass::Shared, _) => format!(
            "`{}` writes shared-immutable field `{}`; topology/config state \
             is read-only in shard entry paths",
            f.name, v.field
        ),
        (_, Some(idx)) => format!(
            "`{}` writes owner-indexed `{}[{idx}]` with no dominating \
             `partition.owner({idx}) == pe` guard or `assert_owner!` witness; \
             only the owning PE may mutate authoritative state — send the \
             update to `owner` instead",
            f.name, v.field
        ),
        (_, None) => format!(
            "`{}` overwrites owner-indexed array `{}` wholesale; \
             authoritative state may only be updated per-element at owned \
             indices",
            f.name, v.field
        ),
    }
}

/// Rule 5: `shard-escape` — see the module docs.
pub fn shard_escape(
    ws: &Workspace,
    fi: usize,
    cfg: &Config,
    an: &Analysis,
    out: &mut Vec<Finding>,
) {
    let file = &ws.files[fi];
    if !cfg.is_shard_path(&file.path) {
        return;
    }
    for process in &file.parsed.fns {
        let is_app = process.name == "process"
            && !process.in_test_mod
            && process.has_self
            && process.params.first().is_some_and(|p| p == "pe");
        let Some(ty) = process.self_ty.as_deref().filter(|_| is_app) else {
            continue;
        };
        let classes = classify_fields(process);
        if classes.is_empty() {
            // Unclassified state would pass every check below.
            out.push(Finding {
                rule: "shard-escape",
                file: file.path.clone(),
                line: process.line,
                message: format!(
                    "`{ty}` is in the owner-computes scope but its `process` declares no \
                     field classes; add `#[atos_shard(owner(..), private(..), shared(..))]`"
                ),
            });
            continue;
        }
        check_entries(ws, fi, an, ty, &classes, out);
    }
}

/// Flow-check the entry points of application `ty` under `classes`.
fn check_entries(
    ws: &Workspace,
    fi: usize,
    an: &Analysis,
    ty: &str,
    classes: &BTreeMap<String, FieldClass>,
    out: &mut Vec<Finding>,
) {
    let file = &ws.files[fi];
    let is_entry =
        |f: &FnItem| ENTRY_FNS.contains(&f.name.as_str()) && f.self_ty.as_deref() == Some(ty);
    for (gi, f) in file.parsed.fns.iter().enumerate() {
        if f.in_test_mod || f.body.is_empty() || !is_entry(f) {
            continue;
        }
        // Direct violations, reported at the write.
        for v in violations_in(file, f, classes) {
            out.push(Finding {
                rule: "shard-escape",
                file: file.path.clone(),
                line: v.line,
                message: render_local(f, &v),
            });
        }
        // Transitive: helpers reached through the call graph, restricted
        // to this file (the impl and its outlined protocol code). Each
        // violating write is reported at the entry's call site with the
        // full hop chain.
        let mut visited: Vec<FnId> = vec![(fi, gi)];
        let mut stack: Vec<(FnId, Vec<String>, u32)> = Vec::new();
        for site in an.graph.callees_of((fi, gi)) {
            if site.callee.0 == fi {
                stack.push((
                    site.callee,
                    vec![f.name.clone(), site.name.clone()],
                    site.line,
                ));
            }
        }
        while let Some((id, chain, entry_line)) = stack.pop() {
            if visited.contains(&id) {
                continue;
            }
            visited.push(id);
            let g = &file.parsed.fns[id.1];
            if g.in_test_mod || g.body.is_empty() || is_entry(g) {
                continue;
            }
            let hops: Vec<String> = chain.iter().map(|n| format!("`{n}`")).collect();
            for v in violations_in(file, g, classes) {
                let what = match (&v.class, &v.idx) {
                    (FieldClass::Shared, _) => {
                        format!("shared-immutable field `{}`", v.field)
                    }
                    (_, Some(idx)) => format!("owner-indexed `{}[{idx}]`", v.field),
                    (_, None) => format!("owner-indexed array `{}`", v.field),
                };
                out.push(Finding {
                    rule: "shard-escape",
                    file: file.path.clone(),
                    line: entry_line,
                    message: format!(
                        "`{}` calls `{}` ({}:{}), which writes {what} at line {} \
                         with no dominating owner witness (via {})",
                        f.name,
                        g.name,
                        file.path,
                        g.line,
                        v.line,
                        hops.join(" -> ")
                    ),
                });
            }
            for site in an.graph.callees_of(id) {
                if site.callee.0 == fi && !visited.contains(&site.callee) {
                    let mut c = chain.clone();
                    c.push(site.name.clone());
                    stack.push((site.callee, c, entry_line));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::Workspace;

    fn classify(src: &str) -> BTreeMap<String, FieldClass> {
        let ws = Workspace::from_sources(vec![(
            "fixtures/shard_escape.rs".into(),
            src.into(),
        )]);
        let process = ws.files[0].parsed.fns.iter().find(|f| f.name == "process");
        classify_fields(process.expect("a process fn"))
    }

    #[test]
    fn classes_come_from_the_attribute_on_process() {
        let m = classify(
            "impl BadApp {\n\
             #[atos_shard(owner(depth), private(mirror), shared(graph))]\n\
             fn process(&mut self, pe: usize, v: u32) {}\n\
             }\n",
        );
        assert_eq!(m.get("depth"), Some(&FieldClass::Owner));
        assert_eq!(m.get("mirror"), Some(&FieldClass::Private));
        assert_eq!(m.get("graph"), Some(&FieldClass::Shared));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn an_application_without_the_attribute_is_a_finding() {
        // The unguarded write below would pass if no class were known.
        let src = "impl BadApp {\n\
                   fn process(&mut self, pe: usize, v: u32) { self.depth[v as usize] = 1; }\n\
                   }\n";
        assert!(classify(src).is_empty());
        let ws = Workspace::from_sources(vec![("fixtures/shard_escape.rs".into(), src.into())]);
        let findings = crate::run(&ws, &Config::fixture());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!((f.rule, f.line), ("shard-escape", 2));
        assert!(f.message.contains("`BadApp`") && f.message.contains("atos_shard"), "{f:?}");
    }
}
