//! Workspace model: per-function facts extracted from the token stream.
//!
//! Every function body is summarized into an ordered list of *events* the
//! lints consume: atomic loads/stores/RMWs/CASes with their `Ordering`s
//! and receiver field, `UnsafeCell` accesses through the facade's
//! `with`/`with_mut` closures, calls (for the one-level-deep hot-path
//! walk), macro invocations, and panic/alloc-pattern sites. The extraction
//! is name-based — no type information — which is exactly the right
//! fidelity for project-invariant lints: protocols in this workspace name
//! their publication counters (`end`, `flags`, …) consistently, and false
//! negatives from aliasing are covered by the dynamic checker (PR 3).

use crate::parse::{FnItem, ParsedFile, Tok, TokKind};

/// Memory-ordering strength, as written at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ord {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
    /// Passed through a variable — treated as unknown (never flagged).
    Unknown,
}

impl Ord {
    /// Does this ordering publish prior writes (release or stronger)?
    pub fn releases(self) -> bool {
        matches!(self, Ord::Release | Ord::AcqRel | Ord::SeqCst)
    }

    /// Does this ordering synchronize-with a release (acquire or stronger)?
    pub fn acquires(self) -> bool {
        matches!(self, Ord::Acquire | Ord::AcqRel | Ord::SeqCst)
    }

    fn from_name(s: &str) -> Ord {
        match s {
            "Relaxed" => Ord::Relaxed,
            "Acquire" => Ord::Acquire,
            "Release" => Ord::Release,
            "AcqRel" => Ord::AcqRel,
            "SeqCst" => Ord::SeqCst,
            _ => Ord::Unknown,
        }
    }
}

/// One event in a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// `recv.with_mut(|p| …)` — an `UnsafeCell` write window.
    CellWrite { field: String, line: u32 },
    /// `recv.with(|p| …)` — an `UnsafeCell` read window.
    CellRead { field: String, line: u32 },
    /// `recv.load(ord)`.
    AtomicLoad { field: String, ord: Ord, line: u32 },
    /// `recv.store(_, ord)` / `recv.fetch_*(_, ord)` / `recv.swap(_, ord)`.
    AtomicWrite { field: String, ord: Ord, line: u32 },
    /// `recv.compare_exchange[_weak](_, _, success, failure)`.
    Cas { field: String, success: Ord, line: u32 },
    /// `fence(ord)`.
    Fence { ord: Ord, line: u32 },
    /// A call: free/associated (`path::name(`, `method` false) or method
    /// (`.name(`, `method` true).
    Call {
        name: String,
        path: String,
        method: bool,
        line: u32,
    },
    /// A macro invocation `name!`.
    Macro { name: String, line: u32 },
    /// Indexing into a named place: `ident[…]` (slice/array index that can
    /// panic). Indexing a numeric literal or `]` chain is not recorded.
    Index { base: String, line: u32 },
}

impl Event {
    /// Source line of the event.
    pub fn line(&self) -> u32 {
        match self {
            Event::CellWrite { line, .. }
            | Event::CellRead { line, .. }
            | Event::AtomicLoad { line, .. }
            | Event::AtomicWrite { line, .. }
            | Event::Cas { line, .. }
            | Event::Fence { line, .. }
            | Event::Call { line, .. }
            | Event::Macro { line, .. }
            | Event::Index { line, .. } => *line,
        }
    }
}

const ATOMIC_RMWS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "swap",
];

/// The orderings named inside the argument list starting at the `(` token
/// at `open` (scans to the matching `)`).
fn orderings_in_args(toks: &[Tok], open: usize) -> Vec<Ord> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "Ordering" if toks.get(i + 1).is_some_and(|t| t.is("::")) => {
                if let Some(t) = toks.get(i + 2) {
                    out.push(Ord::from_name(&t.text));
                    i += 2;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The receiver *field name* of a method call whose `.` is at `dot`:
/// walks left over one `[…]` index chain and takes the identifier, e.g.
/// `self.slots[(idx) as usize].with_mut` → `slots`;
/// `self.end.load` → `end`; `q.end_alloc.fetch_add` → `end_alloc`.
pub(crate) fn receiver_field(toks: &[Tok], dot: usize) -> String {
    let mut i = dot;
    // Step left over a closing bracket chain.
    loop {
        if i == 0 {
            return String::new();
        }
        i -= 1;
        match toks[i].text.as_str() {
            "]" => {
                // Skip to matching `[`.
                let mut d = 1i32;
                while i > 0 && d > 0 {
                    i -= 1;
                    match toks[i].text.as_str() {
                        "]" => d += 1,
                        "[" => d -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            ")" => {
                let mut d = 1i32;
                while i > 0 && d > 0 {
                    i -= 1;
                    match toks[i].text.as_str() {
                        ")" => d += 1,
                        "(" => d -= 1,
                        _ => {}
                    }
                }
                continue;
            }
            _ => break,
        }
    }
    if toks[i].kind == TokKind::Ident {
        toks[i].text.clone()
    } else {
        String::new()
    }
}

/// Index of the token matching the opener at `open` (which must hold
/// `open_s`), scanning forward and balancing `open_s`/`close_s` pairs.
/// `None` if the stream ends unbalanced.
pub(crate) fn matching(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    if !toks.get(open)?.is(open_s) {
        return None;
    }
    let mut d = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is(open_s) {
            d += 1;
        } else if t.is(close_s) {
            d -= 1;
            if d == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Split a token range at top-level commas (paren/bracket/brace depth 0
/// relative to the range), e.g. an argument list with its outer parens
/// already stripped.
pub(crate) fn split_top_commas(
    toks: &[Tok],
    range: std::ops::Range<usize>,
) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = range.start;
    for i in range.clone() {
        match toks[i].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push(start..i);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < range.end {
        out.push(start..range.end);
    }
    out
}

/// First identifier token in a range, if any.
pub(crate) fn first_ident_in(toks: &[Tok], range: std::ops::Range<usize>) -> Option<&str> {
    toks[range]
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// Extract the ordered event list of one function body.
pub fn events_of(file: &ParsedFile, f: &FnItem) -> Vec<Event> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut i = f.body.start;
    while i < f.body.end {
        let t = &toks[i];
        // Method call: `. name (`
        if t.is(".")
            && i + 2 < f.body.end
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is("(")
        {
            let name = toks[i + 1].text.as_str();
            let line = toks[i + 1].line;
            let field = receiver_field(toks, i);
            let ords = orderings_in_args(toks, i + 2);
            let first = ords.first().copied().unwrap_or(Ord::Unknown);
            match name {
                "with_mut" => out.push(Event::CellWrite { field, line }),
                "with" => out.push(Event::CellRead { field, line }),
                "load" => out.push(Event::AtomicLoad {
                    field,
                    ord: first,
                    line,
                }),
                "store" => out.push(Event::AtomicWrite {
                    field,
                    ord: first,
                    line,
                }),
                "compare_exchange" | "compare_exchange_weak" => out.push(Event::Cas {
                    field,
                    success: first,
                    line,
                }),
                n if ATOMIC_RMWS.contains(&n) => out.push(Event::AtomicWrite {
                    field,
                    ord: first,
                    line,
                }),
                _ => out.push(Event::Call {
                    name: name.to_string(),
                    path: String::new(),
                    method: true,
                    line,
                }),
            }
            i += 2;
            continue;
        }
        // Free / associated call or macro: `ident (`, `ident !`, `path::ident (`.
        if t.kind == TokKind::Ident {
            if i + 1 < f.body.end && toks[i + 1].is("!") {
                out.push(Event::Macro {
                    name: t.text.clone(),
                    line: t.line,
                });
                i += 2;
                continue;
            }
            if i + 1 < f.body.end && toks[i + 1].is("(") {
                // Reconstruct a leading path (a::b::name).
                let mut path = String::new();
                let mut j = i;
                while j >= 2 && toks[j - 1].is("::") && toks[j - 2].kind == TokKind::Ident {
                    j -= 2;
                }
                for tok in &toks[j..i] {
                    path.push_str(&tok.text);
                }
                if t.is("fence") {
                    let ords = orderings_in_args(toks, i + 1);
                    out.push(Event::Fence {
                        ord: ords.first().copied().unwrap_or(Ord::Unknown),
                        line: t.line,
                    });
                } else {
                    out.push(Event::Call {
                        name: t.text.clone(),
                        path,
                        method: false,
                        line: t.line,
                    });
                }
                i += 1;
                continue;
            }
            // Indexing: `ident [` — a panicking slice/array index unless
            // it is an attribute or type position; those don't appear as
            // ident-then-bracket inside bodies except slices.
            if i + 1 < f.body.end && toks[i + 1].is("[") {
                out.push(Event::Index {
                    base: t.text.clone(),
                    line: t.line,
                });
                i += 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn events(src: &str) -> Vec<Event> {
        let p = parse(src);
        let f = p.fns.first().expect("one fn").clone();
        events_of(&p, &f)
    }

    #[test]
    fn extracts_atomic_ops_with_fields_and_orderings() {
        let ev = events(
            "fn push(&self) {\n\
             let idx = self.end_alloc.fetch_add(n, Ordering::Relaxed);\n\
             self.slots[(idx + i as u64) as usize].with_mut(|p| unsafe { (*p).write(item) });\n\
             self.end.fetch_max(idx + n, Ordering::AcqRel);\n\
             }",
        );
        assert!(matches!(
            &ev[0],
            Event::AtomicWrite { field, ord: Ord::Relaxed, .. } if field == "end_alloc"
        ));
        assert!(
            ev.iter()
                .any(|e| matches!(e, Event::CellWrite { field, .. } if field == "slots")),
            "{ev:?}"
        );
        assert!(matches!(
            ev.last().unwrap(),
            Event::AtomicWrite { field, ord: Ord::AcqRel, .. } if field == "end"
        ));
    }

    #[test]
    fn cas_success_ordering_is_first() {
        let ev = events(
            "fn f(&self) { let _ = self.end.compare_exchange(\n a,\n b,\n Ordering::Release,\n Ordering::Relaxed,\n ); }",
        );
        assert!(matches!(
            &ev[0],
            Event::Cas { field, success: Ord::Release, .. } if field == "end"
        ));
    }

    #[test]
    fn calls_macros_and_indexing_recorded() {
        let ev = events("fn f() { helper(); mod_a::g(x); out.push(v); vec![1]; buf[i] = 0; }");
        assert!(ev.iter().any(|e| matches!(e, Event::Call { name, .. } if name == "helper")));
        assert!(
            ev.iter()
                .any(|e| matches!(e, Event::Call { name, path, .. } if name == "g" && path == "mod_a::"))
        );
        assert!(ev.iter().any(|e| matches!(e, Event::Call { name, .. } if name == "push")));
        assert!(ev.iter().any(|e| matches!(e, Event::Macro { name, .. } if name == "vec")));
        assert!(ev.iter().any(|e| matches!(e, Event::Index { base, .. } if base == "buf")));
    }

    #[test]
    fn fence_recorded_with_ordering() {
        let ev = events("fn f() { fence(Ordering::Release); }");
        assert!(matches!(&ev[0], Event::Fence { ord: Ord::Release, .. }));
    }
}
