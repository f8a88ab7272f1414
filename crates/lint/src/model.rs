//! Workspace model: per-function facts extracted from the token stream.
//!
//! Every function body is summarized into an ordered list of *events* the
//! rule consumes: calls (the call graph's edges and the `unwrap`/`expect`
//! sites), macro invocations (the panic family) and panicking indexes. The
//! extraction is name-based — no type information — which is the right
//! fidelity for project-invariant lints; what it cannot see is covered by
//! the dynamic checkers (`atos-check`, `alloc_count.rs`).

use crate::parse::{FnItem, ParsedFile, TokKind};

/// One event in a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
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
            out.push(Event::Call {
                name: toks[i + 1].text.clone(),
                path: String::new(),
                method: true,
                line: toks[i + 1].line,
            });
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
                out.push(Event::Call {
                    name: t.text.clone(),
                    path,
                    method: false,
                    line: t.line,
                });
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
    fn calls_macros_and_indexing_recorded() {
        let ev = events("fn f() { helper(); mod_a::g(x); out.push(v); vec![1]; buf[i] = 0; }");
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Call { name, .. } if name == "helper")));
        assert!(ev.iter().any(
            |e| matches!(e, Event::Call { name, path, .. } if name == "g" && path == "mod_a::")
        ));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Call { name, .. } if name == "push")));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Macro { name, .. } if name == "vec")));
        assert!(ev
            .iter()
            .any(|e| matches!(e, Event::Index { base, .. } if base == "buf")));
    }
}
