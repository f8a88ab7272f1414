//! Marker attributes consumed by the [`atos-lint`] static analyzer.
//!
//! Both attributes are *inert at runtime*: they expand to the annotated
//! item unchanged, so they cost nothing in any build. Their payload is the
//! annotation itself, which `atos-lint` reads back out of the source text:
//!
//! * [`macro@atos_hot`] marks a function as being on the runtime hot path.
//!   The `hot-path-alloc` lint then forbids allocating calls (`vec!`,
//!   `format!`, `Box::new`, `with_capacity`, `collect`, …) in its body and
//!   in workspace functions it calls directly, and
//!   `crates/core/tests/alloc_count.rs` asserts every annotated runtime
//!   function is exercised by a counted allocation scenario — the static
//!   denylist and the dynamic guard cannot drift apart.
//! * [`macro@allow_atos_lint`] suppresses named `atos-lint` rules for one
//!   item, e.g. `#[allow_atos_lint(panic_in_kernel)]`. Suppressions are
//!   part of the reviewed source, so every exemption is visible in diffs;
//!   policy (when a suppression is acceptable) lives in DESIGN.md §7.
//! * [`macro@atos_alloc_ok`] vets one function as allocation-acceptable
//!   when reached *transitively* from a hot path: the interprocedural
//!   `hot-path-alloc` propagation stops at the annotated definition
//!   instead of reporting every hot caller. Use it for setup-phase
//!   helpers (arena growth, one-time table builds) whose allocations are
//!   amortized by design and covered by `alloc_count.rs` scenarios.
//! * [`macro@atos_shard`] classifies the fields of an `Application` for
//!   the `shard-escape` lint. Placed on the impl's `process` method (the
//!   one fn every application must define), it declares each field as
//!   `owner(..)` — owner-indexed authoritative state that only the owning
//!   PE may write, `private(..)` — per-sender scratch no other PE reads,
//!   or `shared(..)` — immutable topology/config. An application in the
//!   lint's scope that carries no attribute is a finding.
//!
//! [`atos-lint`]: ../atos_lint/index.html

use proc_macro::TokenStream;

/// Mark a function as runtime-hot-path. Inert; read by `atos-lint`'s
/// `hot-path-alloc` rule and by the `alloc_count` coverage test.
#[proc_macro_attribute]
pub fn atos_hot(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}

/// Suppress the named `atos-lint` rules (snake_case, e.g.
/// `#[allow_atos_lint(panic_in_kernel, hot_path_alloc)]`) for this item.
/// Inert; read back from the source by `atos-lint`.
#[proc_macro_attribute]
pub fn allow_atos_lint(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}

/// Vet this function's allocations as acceptable on hot paths that reach
/// it transitively (amortized setup work). Inert; read back from the
/// source by `atos-lint`'s interprocedural `hot-path-alloc` propagation.
#[proc_macro_attribute]
pub fn atos_alloc_ok(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}

/// Declare the ownership classes of an `Application`'s fields for the
/// `shard-escape` lint, e.g.
/// `#[atos_shard(owner(depth), private(mirror), shared(graph, partition))]`
/// on the impl's `process` method. `owner` fields are vertex-indexed
/// authoritative state (writable only at indices the current PE owns),
/// `private` fields are per-sender scratch indexed by the sending PE, and
/// `shared` fields are immutable after construction. Inert; read back
/// from the source by `atos-lint`.
#[proc_macro_attribute]
pub fn atos_shard(_attr: TokenStream, item: TokenStream) -> TokenStream {
    item
}
