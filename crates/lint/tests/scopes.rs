//! Every scope in the workspace configuration names code that exists.
//!
//! The scopes in `Config::project()` are keyed by `file_suffix` + function
//! name, and the rules skip names they do not find. Moving or renaming a
//! function would therefore drop it out of its no-panic / no-alloc /
//! owner-computes / bounds scope without a single finding. This
//! test closes that hole: each `(file_suffix, fn)` must resolve to a
//! non-test function with a body that the parser finds in the workspace.

use std::path::Path;

use atos_lint::config::Config;
use atos_lint::{SourceFile, Workspace};

fn workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::discover(&root.canonicalize().unwrap()).expect("walk the workspace")
}

fn file<'a>(ws: &'a Workspace, suffix: &str, what: &str) -> &'a SourceFile {
    let mut hits = ws.files.iter().filter(|f| f.path.ends_with(suffix));
    let found = hits
        .next()
        .unwrap_or_else(|| panic!("{what}: no file ends in `{suffix}`"));
    assert!(hits.next().is_none(), "{what}: `{suffix}` is ambiguous");
    found
}

/// Does `file` define a non-test function `name` with a body, on
/// `self_ty` if one is given?
fn defines(file: &SourceFile, name: &str, self_ty: Option<&str>) -> bool {
    file.parsed.fns.iter().any(|f| {
        f.name == name
            && !f.in_test_mod
            && !f.body.is_empty()
            && (self_ty.is_none() || f.self_ty.as_deref() == self_ty)
    })
}

#[test]
fn every_configured_scope_resolves_to_a_function() {
    let ws = workspace();
    let cfg = Config::project();
    let mut flat: Vec<(&str, &str, &str)> = Vec::new();
    for s in cfg.kernel_scopes {
        flat.extend(s.fns.iter().map(|f| ("kernel_scopes", s.file_suffix, *f)));
    }
    for s in cfg.hot_denylist {
        flat.extend(s.fns.iter().map(|f| ("hot_denylist", s.file_suffix, *f)));
    }
    for s in cfg.unchecked_scopes {
        flat.extend(
            s.accessors
                .iter()
                .map(|f| ("unchecked_scopes", s.file_suffix, *f)),
        );
    }
    assert!(flat.len() > 40, "the project configuration lost its scopes");
    for (what, suffix, name) in flat {
        assert!(
            defines(file(&ws, suffix, what), name, None),
            "{what}: `{name}` is not a function in `{suffix}` — if it moved or was \
             renamed, move its scope with it (crates/lint/src/config.rs)"
        );
    }

    // Owner-computes scopes name an impl and its entry points. An entry
    // point the impl leaves out must be one the `Application` trait
    // supplies, i.e. exist there with a default body — that is the code
    // the runtime then calls.
    let app_trait = file(&ws, "crates/core/src/app.rs", "shard_scopes");
    for s in cfg.shard_scopes {
        let f = file(&ws, s.file_suffix, "shard_scopes");
        assert!(
            defines(f, "process", Some(s.ty)),
            "shard_scopes: no `Application for {}` in `{}`",
            s.ty,
            s.file_suffix
        );
        for name in s.entry_fns {
            assert!(
                defines(f, name, Some(s.ty)) || defines(app_trait, name, None),
                "shard_scopes: `{}::{name}` is neither in `{}` nor a trait default",
                s.ty,
                s.file_suffix
            );
        }
    }
}

#[test]
fn a_stale_scope_is_caught() {
    // The check above must be able to fail: the steal path's old home no
    // longer defines it, and a name that never existed resolves nowhere.
    let ws = workspace();
    let runtime = file(&ws, "crates/core/src/runtime.rs", "test");
    assert!(defines(runtime, "step", None));
    assert!(!defines(runtime, "steal_from", None));
    assert!(!defines(runtime, "no_such_function", None));
    let lb = file(&ws, "crates/core/src/loadbalance.rs", "test");
    assert!(defines(lb, "steal_from", Some("Runtime")));
    assert!(!defines(lb, "steal_from", Some("BfsApp")));
}
