//! `#[atos_hot]`: the mark of a runtime hot-path function, and under
//! `--cfg atos_nopanic` the link-time proof that it cannot unwind.
//!
//! In every ordinary build the attribute expands to the item unchanged, so
//! it costs nothing. It means two things. No unwinding edge leaves the
//! function: a GPU kernel cannot throw out of the middle of a protocol, and
//! neither may the code that stands in for one. And
//! `crates/core/tests/alloc_count.rs` runs it inside a counted window whose
//! allocations do not grow with the task count (its coverage map scans the
//! source for this marker).
//!
//! The proof build (`RUSTFLAGS="--cfg atos_nopanic" cargo build --release
//! --workspace --bins --examples`, a `scripts/verify.sh` stage) runs the
//! body inside a closure behind a guard whose `Drop` calls an `extern`
//! symbol that nothing defines, and forgets the guard on return. Only an
//! unwind drops it, so the build links exactly when the optimiser has
//! removed every unwinding edge from the function, std calls and inlined
//! callees included. The symbol is `atos_nopanic: <file>::<fn>`, so the
//! linker's error names each function that can still unwind. This is
//! dtolnay's `no-panic` technique.
//!
//! `atos-queue` and `atos-graph` stay dependency-free and spell the same
//! guard as a crate-local `macro_rules!` with the same symbol naming
//! (DESIGN.md §7).

use proc_macro::{Delimiter, Group, Span, TokenStream, TokenTree};

/// Mark a function as runtime-hot-path: no unwinding edge (proved at link
/// time under `--cfg atos_nopanic`) and no allocation growth under the task
/// count (`alloc_count.rs`). Inert in every other build.
#[proc_macro_attribute]
pub fn atos_hot(attr: TokenStream, item: TokenStream) -> TokenStream {
    assert!(attr.is_empty(), "`#[atos_hot]` takes no argument");
    let mut sig: Vec<TokenTree> = item.into_iter().collect();
    let body = match sig.pop() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        _ => panic!("`#[atos_hot]` goes on a fn with a body"),
    };
    let word = |t: &TokenTree, w: &str| matches!(t, TokenTree::Ident(i) if i.to_string() == w);
    let name = match sig.iter().skip_while(|t| !word(t, "fn")).nth(1) {
        Some(TokenTree::Ident(name)) => name.to_string(),
        _ => panic!("`#[atos_hot]` goes on a fn"),
    };
    // The return type: from the signature's top-level `->` to `where`.
    let punct = |t: &TokenTree, c: char| matches!(t, TokenTree::Punct(p) if p.as_char() == c);
    let arrow = sig
        .windows(2)
        .position(|w| punct(&w[0], '-') && punct(&w[1], '>'));
    let ret: TokenStream = match arrow {
        Some(at) => sig[at + 2..]
            .iter()
            .take_while(|t| !word(t, "where"))
            .cloned()
            .collect(),
        None => "()".parse().expect("`()` is a type"),
    };
    let symbol = format!("atos_nopanic: {}::{name}", Span::call_site().file());
    let guard: TokenStream = format!(
        "struct AtosUnwinds;
        impl ::core::ops::Drop for AtosUnwinds {{
            #[inline(always)]
            #[allow(unsafe_code)]
            fn drop(&mut self) {{
                extern \"C\" {{
                    #[link_name = {symbol:?}]
                    fn unwinds() -> !;
                }}
                // SAFETY: never called in a linked program: the build links
                // only if no unwinding edge reaches this drop.
                unsafe {{ unwinds() }}
            }}
        }}
        #[inline(always)]
        fn once<R>(f: impl FnOnce() -> R) -> R {{
            f()
        }}
        let atos_guard = AtosUnwinds;
        let atos_ret = once(#[inline(always)] move || -> {ret} BODY);
        ::core::mem::forget(atos_guard);
        atos_ret"
    )
    .parse()
    .expect("the guard is valid Rust");
    // The body goes in as tokens, keeping the caller's spans.
    let guard = guard.into_iter().map(|t| match t {
        TokenTree::Group(g) => {
            let inner = g.stream().into_iter().map(|t| match t {
                TokenTree::Ident(i) if i.to_string() == "BODY" => TokenTree::Group(body.clone()),
                t => t,
            });
            TokenTree::Group(Group::new(g.delimiter(), inner.collect()))
        }
        t => t,
    });
    let proof = Group::new(Delimiter::Brace, guard.collect());
    let cfg =
        |pred: &str| -> TokenStream { format!("#[cfg({pred})]").parse().expect("a cfg attribute") };
    let mut out = cfg("not(atos_nopanic)");
    out.extend(sig.iter().cloned().chain([TokenTree::Group(body.clone())]));
    out.extend(cfg("atos_nopanic"));
    out.extend(sig.into_iter().chain([TokenTree::Group(proof)]));
    out
}
