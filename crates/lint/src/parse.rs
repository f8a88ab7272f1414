//! A small Rust lexer and item scanner.
//!
//! The workspace builds offline with no registry access, so `syn` is not
//! available; this module provides the fraction of it the lint needs: a
//! token stream with line numbers, comment capture (for hot and
//! suppression markers), the `use` alias map, and extraction of function
//! items with their attributes, signatures, and body token ranges.
//!
//! It is deliberately *not* a full parser. The grammar subset it
//! understands — brace/paren nesting, attributes, `fn` items at any depth,
//! string/char/lifetime disambiguation — is exactly what the rule in
//! [`crate::lints`] consumes, and the fixture golden tests pin its
//! behavior. Anything it cannot classify it skips, so unknown syntax
//! degrades to fewer findings, never to crashes.

/// Token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation (single char, except `::` which is one token).
    Punct,
    /// String/char/numeric literal (content not preserved verbatim for
    /// strings — they only matter as "not code").
    Lit,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: u32,
    /// Kind.
    pub kind: TokKind,
    /// Token text (`"::"`, `"fn"`, `"("`, …). Literals are reduced to a
    /// placeholder so their contents can never pattern-match as code.
    pub text: String,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is(&self, text: &str) -> bool {
        self.text == text
    }
}

/// One captured comment (line or block), used for hot markers and
/// `// atos-lint: allow(...)` suppressions.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: u32,
    /// Full comment text including markers.
    pub text: String,
}

/// Lexer output: code tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in order.
    pub toks: Vec<Tok>,
    /// Comments in order.
    pub comments: Vec<Comment>,
}

/// Lex `src` into tokens and comments.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = b.len();

    let push = |out: &mut Lexed, line: u32, kind: TokKind, text: String| {
        out.toks.push(Tok { line, kind, text });
    };
    let push_str = |out: &mut Lexed, line: u32| {
        push(out, line, TokKind::Lit, "\"…\"".into());
    };

    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: b[start..i].iter().collect(),
                });
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: b[start..i.min(n)].iter().collect(),
                });
            }
            '"' => {
                // String literal (escapes honored).
                let start_line = line;
                i += 1;
                while i < n {
                    match b[i] {
                        '\\' => (line, i) = (line + (b.get(i + 1) == Some(&'\n')) as u32, i + 2),
                        '"' => break,
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                if i < n {
                    i += 1; // closing quote
                }
                push_str(&mut out, start_line);
            }
            'r' if i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Raw string r"..." / r#"..."# (any hash count).
                let start_line = line;
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == '"' {
                    j += 1;
                    'raw: while j < n {
                        if b[j] == '\n' {
                            line += 1;
                        } else if b[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                    push_str(&mut out, start_line);
                } else {
                    // `r#ident` raw identifier or plain `r`.
                    let start = i;
                    i += 1;
                    if i < n && b[i] == '#' {
                        i += 1;
                    }
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    push(&mut out, line, TokKind::Ident, b[start..i].iter().collect());
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' has a closing quote within
                // a couple of chars; 'ident does not.
                let is_char = if i + 1 < n && b[i + 1] == '\\' {
                    true
                } else {
                    i + 2 < n && b[i + 2] == '\''
                };
                if is_char {
                    let start_line = line;
                    i += 1;
                    while i < n {
                        match b[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    push(&mut out, start_line, TokKind::Lit, "'…'".into());
                } else {
                    // Lifetime: consume 'ident as one token.
                    let start = i;
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    push(&mut out, line, TokKind::Lit, b[start..i].iter().collect());
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // `0..10` range: stop before `..`.
                    if b[i] == '.' && i + 1 < n && b[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                }
                push(&mut out, line, TokKind::Lit, b[start..i].iter().collect());
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                push(&mut out, line, TokKind::Ident, b[start..i].iter().collect());
            }
            ':' if i + 1 < n && b[i + 1] == ':' => {
                push(&mut out, line, TokKind::Punct, "::".into());
                i += 2;
            }
            _ => {
                push(&mut out, line, TokKind::Punct, c.to_string());
                i += 1;
            }
        }
    }
    out
}

/// One parsed attribute, e.g. `atos_hot` or `atos_hot(no_index)`.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Attribute path (first ident), e.g. `atos_hot`.
    pub name: String,
    /// Raw argument idents inside the parens (empty if none).
    pub args: Vec<String>,
}

/// A function item with its body as a token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Attributes immediately preceding the item.
    pub attrs: Vec<Attr>,
    /// Token index range of the body (inside the outer braces, exclusive
    /// of the braces themselves). Empty for bodyless decls.
    pub body: std::ops::Range<usize>,
    /// Whether this item is (transitively) inside a `#[cfg(test)]` module.
    pub in_test_mod: bool,
    /// The `Self` type name if this fn sits inside an `impl` block
    /// (`impl Foo { … }` or `impl Trait for Foo { … }` → `Foo`).
    pub self_ty: Option<String>,
    /// Does the signature take `self` (method rather than associated fn)?
    pub has_self: bool,
}

/// Parsed view of one source file.
#[derive(Debug)]
pub struct ParsedFile {
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Comments.
    pub comments: Vec<Comment>,
    /// Function items (all nesting depths, including inside impls and
    /// test modules).
    pub fns: Vec<FnItem>,
    /// Import aliases: local name → full path, from `use` declarations.
    /// `use a::b::c` maps `c → a::b::c`; `use a::b as x` maps `x → a::b`;
    /// groups and `self` items are expanded. Globs contribute nothing.
    pub aliases: std::collections::BTreeMap<String, String>,
}

impl ParsedFile {
    /// Does any comment covering `line` (or one of the `back` preceding
    /// lines) contain `needle`?
    pub fn comment_near(&self, line: u32, back: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(back);
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= line && c.text.contains(needle))
    }
}

/// Parse one file.
pub fn parse(src: &str) -> ParsedFile {
    let Lexed { toks, mut comments } = lex(src);

    // Coalesce runs of `//` comments on consecutive lines into single
    // blocks, so a marker on any line of a comment paragraph is found by
    // a windowed search anchored at the paragraph's last line (the one
    // adjacent to the code it annotates).
    let mut merged: Vec<Comment> = Vec::new();
    for c in comments.drain(..) {
        match merged.last_mut() {
            Some(prev) if prev.end_line + 1 == c.line => {
                prev.end_line = c.end_line;
                prev.text.push('\n');
                prev.text.push_str(&c.text);
            }
            _ => merged.push(c),
        }
    }
    let comments = merged;
    let mut fns = Vec::new();
    let mut aliases = std::collections::BTreeMap::new();

    // Pass 1: the `use` alias map, for call resolution.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].is("use") {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is(";") {
                j += 1;
            }
            collect_use_aliases(&toks[i + 1..j], "", &mut aliases);
            i = j;
        }
        i += 1;
    }

    // Pass 2: attributes + fn items + test-module and impl-block
    // tracking.
    //
    // `mod_stack` holds brace depths of `#[cfg(test)] mod` bodies we are
    // inside; `depth` counts `{` nesting. `impl_spans` records each impl
    // block's body token range and `Self` type name, so fns can be
    // assigned their `self_ty` after the scan.
    let mut pending_attrs: Vec<Attr> = Vec::new();
    let mut pending_cfg_test = false;
    let mut test_mod_depths: Vec<usize> = Vec::new();
    let mut impl_spans: Vec<(std::ops::Range<usize>, String)> = Vec::new();
    let mut fn_tok_idx: Vec<usize> = Vec::new();
    let mut depth: usize = 0;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is("#") && i + 1 < toks.len() && toks[i + 1].is("[") {
            // Capture one attribute: `#[ name (args) ]` with arbitrary
            // nesting inside.
            let mut j = i + 2;
            let mut name = String::new();
            let mut args = Vec::new();
            let mut bracket = 1usize;
            let mut text = String::new();
            while j < toks.len() && bracket > 0 {
                match toks[j].text.as_str() {
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    _ => {}
                }
                if bracket > 0 {
                    if name.is_empty() && toks[j].kind == TokKind::Ident {
                        name = toks[j].text.clone();
                    } else if toks[j].kind == TokKind::Ident {
                        args.push(toks[j].text.clone());
                    }
                    text.push_str(&toks[j].text);
                }
                j += 1;
            }
            if name == "cfg" && args.iter().any(|a| a == "test") {
                pending_cfg_test = true;
            }
            pending_attrs.push(Attr { name, args });
            i = j;
            continue;
        }
        match t.text.as_str() {
            // `fn name` — the guard skips `fn` keyword uses in types
            // (`fn(`) which have no following ident.
            "fn" if i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident => {
                let name = toks[i + 1].text.clone();
                let line = t.line;
                // Find the body `{` at angle/paren depth 0, stopping
                // at `;` (bodyless decl). Along the way, scan the
                // signature parens for `self`.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut body = 0..0;
                let mut has_self = false;
                let mut in_sig = true;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "(" | "[" => paren += 1,
                        ")" | "]" => {
                            paren -= 1;
                            if paren == 0 {
                                in_sig = false;
                            }
                        }
                        "self" if in_sig && paren == 1 => has_self = true,
                        ";" if paren == 0 => break,
                        "{" if paren == 0 => {
                            // Matching close brace.
                            let start = j + 1;
                            let mut d = 1usize;
                            let mut k = start;
                            while k < toks.len() && d > 0 {
                                match toks[k].text.as_str() {
                                    "{" => d += 1,
                                    "}" => d -= 1,
                                    _ => {}
                                }
                                k += 1;
                            }
                            body = start..k.saturating_sub(1);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                fn_tok_idx.push(i);
                fns.push(FnItem {
                    name,
                    line,
                    attrs: std::mem::take(&mut pending_attrs),
                    body,
                    in_test_mod: !test_mod_depths.is_empty() || pending_cfg_test,
                    self_ty: None,
                    has_self,
                });
                pending_cfg_test = false;
                // Do NOT skip the body: nested fns are items too.
                i += 1;
                continue;
            }
            // An impl block header. The whitelist on the previous token
            // excludes `impl Trait` in type position (`-> impl Fn()`,
            // `x: impl Into<…>`), which is always preceded by `>`/`(`/
            // `,`/`:`/`&`/`=` rather than an item boundary.
            "impl"
                if i == 0
                    || matches!(toks[i - 1].text.as_str(), "}" | "{" | ";" | "]" | "unsafe") =>
            {
                // Self type: last path ident at angle depth 0 before the
                // body `{`; `for` (trait impls) and `where` reset/stop
                // the collection.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut self_ty = String::new();
                let mut stop_collect = false;
                while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                    match toks[j].text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "for" if angle == 0 => self_ty.clear(),
                        "where" if angle == 0 => stop_collect = true,
                        _ if angle == 0 && !stop_collect && toks[j].kind == TokKind::Ident => {
                            self_ty = toks[j].text.clone();
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].is("{") && !self_ty.is_empty() {
                    let start = j + 1;
                    let mut d = 1usize;
                    let mut k = start;
                    while k < toks.len() && d > 0 {
                        match toks[k].text.as_str() {
                            "{" => d += 1,
                            "}" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                    impl_spans.push((start..k.saturating_sub(1), self_ty));
                }
                // Do not skip: fns inside the impl are scanned normally.
                pending_attrs.clear();
            }
            "mod" => {
                if pending_cfg_test {
                    // The module body opens at the next `{` (or it's a
                    // `mod name;` decl).
                    let mut j = i + 1;
                    while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                        j += 1;
                    }
                    if j < toks.len() && toks[j].is("{") {
                        test_mod_depths.push(depth);
                    }
                    pending_cfg_test = false;
                }
                pending_attrs.clear();
            }
            "{" => {
                depth += 1;
                pending_attrs.clear();
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if test_mod_depths.last() == Some(&depth) {
                    test_mod_depths.pop();
                }
                pending_attrs.clear();
            }
            ";" => {
                pending_attrs.clear();
                pending_cfg_test = false;
            }
            _ => {}
        }
        i += 1;
    }

    // Assign each fn its innermost enclosing impl's `Self` type.
    for (f, &at) in fns.iter_mut().zip(&fn_tok_idx) {
        f.self_ty = impl_spans
            .iter()
            .filter(|(span, _)| span.contains(&at))
            .min_by_key(|(span, _)| span.len())
            .map(|(_, ty)| ty.clone());
    }

    ParsedFile {
        toks,
        comments,
        fns,
        aliases,
    }
}

/// Expand one `use` tree (the tokens between `use` and `;`) into the
/// alias map. Handles plain paths, `as` renames, nested `{…}` groups,
/// and `self` group items; `*` globs are skipped.
fn collect_use_aliases(
    toks: &[Tok],
    prefix: &str,
    out: &mut std::collections::BTreeMap<String, String>,
) {
    // Leading segments up to a group/rename/end.
    let mut path = prefix.to_string();
    let mut last_seg = String::new();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is("{") {
            // Group: split the balanced region on top-level commas and
            // recurse with the accumulated prefix.
            let mut d = 1usize;
            let mut j = i + 1;
            let mut item_start = j;
            while j < toks.len() && d > 0 {
                match toks[j].text.as_str() {
                    "{" => d += 1,
                    "}" => d -= 1,
                    "," if d == 1 => {
                        collect_use_aliases(&toks[item_start..j], &path, out);
                        item_start = j + 1;
                    }
                    _ => {}
                }
                j += 1;
            }
            let item_end = j.saturating_sub(1).max(item_start);
            collect_use_aliases(&toks[item_start..item_end], &path, out);
            return;
        }
        if t.is("as") {
            // `path as rename`.
            if let Some(rename) = toks.get(i + 1) {
                if !path.is_empty() {
                    out.insert(rename.text.clone(), path);
                }
            }
            return;
        }
        if t.is("*") {
            return; // glob: contributes no aliases
        }
        if t.kind == TokKind::Ident {
            if t.is("self") {
                // `{self, …}` item: the prefix's own last segment.
                if let Some(seg) = prefix.rsplit("::").next() {
                    if !seg.is_empty() {
                        out.insert(seg.to_string(), prefix.to_string());
                    }
                }
                return;
            }
            if t.is("pub") {
                i += 1;
                continue; // `pub use` re-export
            }
            last_seg = t.text.clone();
            if !path.is_empty() {
                path.push_str("::");
            }
            path.push_str(&t.text);
        }
        i += 1;
    }
    if !last_seg.is_empty() {
        out.insert(last_seg, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_strings_comments_lifetimes() {
        let src = r##"
// a comment with unsafe { inside }
fn f<'a>(x: &'a str) -> char {
    let _s = "quoted } brace";
    let _r = r#"raw " str"#;
    let _c = "a continued \
              string";
    'x'
}
"##;
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        // The continued string's escaped newline still counts as a line.
        let x = l.toks.iter().find(|t| t.is("'…'")).unwrap();
        assert_eq!(x.line, 8);
        // No brace tokens leaked from the string literals.
        let braces = l.toks.iter().filter(|t| t.is("{") || t.is("}")).count();
        assert_eq!(braces, 2, "{:?}", l.toks);
    }

    #[test]
    fn finds_fns_with_attrs_and_bodies() {
        let src = r#"
impl Foo {
    #[inline]
    #[atos_hot(no_index)]
    pub fn step(&mut self, pe: usize) -> u64 {
        self.inner(pe)
    }
}
#[cfg(test)]
mod tests {
    fn helper() { nested(); }
}
"#;
        let p = parse(src);
        let step = p.fns.iter().find(|f| f.name == "step").unwrap();
        assert_eq!(step.attrs.len(), 2);
        assert_eq!(step.attrs[0].name, "inline");
        assert_eq!(step.attrs[1].name, "atos_hot");
        assert_eq!(step.attrs[1].args, vec!["no_index"]);
        assert!(!step.in_test_mod);
        assert!(!step.body.is_empty());
        let helper = p.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.in_test_mod);
    }

    #[test]
    fn nested_fn_items_are_separate() {
        let src = "fn outer() { fn inner() { x(); } inner(); }";
        let p = parse(src);
        assert_eq!(p.fns.len(), 2);
        let outer = &p.fns[0];
        let inner = &p.fns[1];
        assert!(outer.body.start < inner.body.start && inner.body.end <= outer.body.end);
    }

    #[test]
    fn comment_near_finds_a_suppression() {
        let src = "fn f() {\n    // atos-lint: allow(panic_in_kernel)\n    g().unwrap()\n}\n";
        let p = parse(src);
        assert!(p.comment_near(3, 2, "allow(panic_in_kernel)"));
        assert!(!p.comment_near(1, 0, "allow(panic_in_kernel)"));
    }

    #[test]
    fn impl_blocks_give_fns_a_self_ty() {
        let src = r#"
impl Wheel {
    fn push(&mut self, t: u64) {}
    fn capacity(hint: usize) -> usize { hint }
}
impl Iterator for Drain<'_> {
    fn next(&mut self) -> Option<u64> { None }
}
fn free(x: u64) -> impl Fn() -> u64 {
    move || x
}
"#;
        let p = parse(src);
        let push = p.fns.iter().find(|f| f.name == "push").unwrap();
        assert_eq!(push.self_ty.as_deref(), Some("Wheel"));
        assert!(push.has_self);
        let cap = p.fns.iter().find(|f| f.name == "capacity").unwrap();
        assert_eq!(cap.self_ty.as_deref(), Some("Wheel"));
        assert!(!cap.has_self);
        let next = p.fns.iter().find(|f| f.name == "next").unwrap();
        assert_eq!(next.self_ty.as_deref(), Some("Drain"));
        let free = p.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.self_ty, None);
    }

    #[test]
    fn use_aliases_cover_renames_and_groups() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering as O};\n\
                   use core::cell::UnsafeCell as RawCell;\n\
                   use atos_queue::stats::{self, ContentionSnapshot};\n\
                   use atos_core::prelude::*;\n";
        let p = parse(src);
        assert_eq!(
            p.aliases.get("AtomicU64").map(String::as_str),
            Some("std::sync::atomic::AtomicU64")
        );
        assert_eq!(
            p.aliases.get("O").map(String::as_str),
            Some("std::sync::atomic::Ordering")
        );
        assert_eq!(
            p.aliases.get("RawCell").map(String::as_str),
            Some("core::cell::UnsafeCell")
        );
        assert_eq!(
            p.aliases.get("stats").map(String::as_str),
            Some("atos_queue::stats")
        );
        assert_eq!(
            p.aliases.get("ContentionSnapshot").map(String::as_str),
            Some("atos_queue::stats::ContentionSnapshot")
        );
        assert!(!p.aliases.keys().any(|k| k == "*"));
    }

    #[test]
    fn cfg_test_fn_marked_without_mod() {
        let src = "#[cfg(test)]\nfn only_in_tests() {}\nfn prod() {}\n";
        let p = parse(src);
        assert!(p.fns[0].in_test_mod);
        assert!(!p.fns[1].in_test_mod);
    }
}
