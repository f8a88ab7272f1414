//! The marker attribute consumed by the [`atos-lint`] call-graph lint.
//!
//! [`macro@atos_hot`] is *inert at runtime*: it expands to the annotated
//! item unchanged, so it costs nothing in any build. Its payload is the
//! annotation itself, which `atos-lint` reads back out of the source text.
//! It marks a function as being on the runtime hot path, which means two
//! things. `panic-in-kernel` forbids `unwrap` / `expect` / the `panic!`
//! family in it and, transitively, in the workspace functions it calls.
//! And `crates/core/tests/alloc_count.rs` must run it inside a counted
//! window whose allocations do not grow with the task count (its coverage
//! map reads this marker through `atos_lint::lints::hot_marker`). The one
//! argument, `#[atos_hot(no_index)]`, also forbids panicking slice
//! indexing (`ident[i]`) in the body — the `prefetch` hint path uses it.
//! Crates that stay dependency-free (`atos-queue`, `atos-graph`) spell the
//! same marker as a comment on the line above the `fn`: `// atos-lint: hot`
//! / `// atos-lint: hot(no-index)`.
//!
//! Suppression is not an attribute: an `atos-lint: allow(panic_in_kernel)`
//! comment with its reason, on the finding or on the vetted callee's
//! definition. (The workspace's clippy lints take `#[allow(clippy::…,
//! reason = "…")]`; this crate has nothing to do with them.)
//!
//! [`atos-lint`]: ../atos_lint/index.html

use proc_macro::TokenStream;

/// Mark a function as runtime-hot-path: no `unwrap`/`expect`/`panic!`
/// family, transitively, and no allocation growth under the task count;
/// with the `no_index` argument no panicking index either. Inert; read by
/// `atos-lint`'s `panic-in-kernel` rule and by the `alloc_count` coverage
/// check.
#[proc_macro_attribute]
pub fn atos_hot(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
