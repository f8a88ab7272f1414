//! Workspace model: per-function facts extracted from the token stream.
//!
//! Every function body is summarized into an ordered list of *events* the
//! lints consume: calls (the call graph's edges and the `unwrap`/`expect`
//! sites), macro invocations (the panic family) and panicking indexes. The
//! extraction is name-based — no type information — which is the right
//! fidelity for project-invariant lints; what it cannot see is covered by
//! the dynamic checkers (`atos-check`, `alloc_count.rs`).

use crate::parse::{FnItem, ParsedFile, Tok, TokKind};

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
        assert!(ev.iter().any(|e| matches!(e, Event::Call { name, .. } if name == "helper")));
        assert!(
            ev.iter()
                .any(|e| matches!(e, Event::Call { name, path, .. } if name == "g" && path == "mod_a::"))
        );
        assert!(ev.iter().any(|e| matches!(e, Event::Call { name, .. } if name == "push")));
        assert!(ev.iter().any(|e| matches!(e, Event::Macro { name, .. } if name == "vec")));
        assert!(ev.iter().any(|e| matches!(e, Event::Index { base, .. } if base == "buf")));
    }
}
