//! Workspace call graph: name/alias/method resolution and resolved call
//! edges, the substrate for the interprocedural pass in
//! [`crate::summaries`].
//!
//! Resolution is deliberately *conservative*: an ambiguous name (two
//! candidate definitions in the chosen scope) resolves to nothing, so the
//! effect-summary propagation never follows a wrong edge. The cost is
//! false negatives at trait calls with many impls — those are covered by
//! the dynamic checkers (`alloc_count`, atos-check), and the policy is
//! documented in DESIGN.md §7.
//!
//! What *does* resolve (the fixes this layer exists for):
//!
//! * `use`-aliased paths — `use atos_queue::stats as qs; qs::snapshot()`
//!   expands through [`crate::parse::ParsedFile::aliases`];
//! * same-crate inherent methods — `self.refill()` finds the unique
//!   `fn refill(&self, …)` in an `impl` block of the same crate;
//! * `Type::assoc(..)` associated calls via the impl-block `Self` type
//!   recorded by the parser;
//! * cross-crate paths — `atos_queue::sync::host_parallelism` maps the
//!   `atos_x` lib ident to the `crates/x` directory.

use std::collections::BTreeMap;

use crate::model::{events_of, Event};
use crate::Workspace;

/// Which crate (by `crates/<name>/` path segment) a file belongs to.
pub fn crate_of(path: &str) -> &str {
    if let Some(i) = path.find("crates/") {
        let rest = &path[i + "crates/".len()..];
        rest.split('/').next().unwrap_or("")
    } else {
        ""
    }
}

/// A function identity: (file index, fn index) into the workspace.
pub type FnId = (usize, usize);

/// One resolved call edge out of a function.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The resolved callee.
    pub callee: FnId,
    /// Call-site line in the caller.
    pub line: u32,
    /// Callee name as written at the call site.
    pub name: String,
}

/// The resolved call graph plus the name indexes used to build it.
#[derive(Debug)]
pub struct CallGraph {
    /// fn name → definitions (non-test, with a body).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// (`Self` type, fn name) → definitions inside impl blocks.
    by_method: BTreeMap<(String, String), Vec<FnId>>,
    /// Resolved outgoing edges per function, in call order.
    pub callees: BTreeMap<FnId, Vec<CallSite>>,
    /// Crate directory names present in the workspace (`crates/<dir>`).
    crate_dirs: Vec<String>,
}

impl CallGraph {
    /// Index every definition and resolve every call event.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_method: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        let mut crate_dirs = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            let krate = crate_of(&file.path);
            if !krate.is_empty() && !crate_dirs.contains(&krate.to_string()) {
                crate_dirs.push(krate.to_string());
            }
            for (gi, f) in file.parsed.fns.iter().enumerate() {
                if f.in_test_mod || f.body.is_empty() {
                    continue;
                }
                by_name.entry(f.name.clone()).or_default().push((fi, gi));
                if let Some(ty) = &f.self_ty {
                    by_method
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push((fi, gi));
                }
            }
        }
        let mut graph = CallGraph {
            by_name,
            by_method,
            callees: BTreeMap::new(),
            crate_dirs,
        };
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.parsed.fns.iter().enumerate() {
                if f.in_test_mod || f.body.is_empty() {
                    continue;
                }
                let mut edges = Vec::new();
                for e in events_of(&file.parsed, f) {
                    if let Event::Call {
                        name,
                        path,
                        method,
                        line,
                        ..
                    } = &e
                    {
                        if let Some(callee) = graph.resolve(ws, fi, name, path, *method) {
                            if callee != (fi, gi) {
                                edges.push(CallSite {
                                    callee,
                                    line: *line,
                                    name: name.clone(),
                                });
                            }
                        }
                    }
                }
                graph.callees.insert((fi, gi), edges);
            }
        }
        graph
    }

    /// Resolved outgoing edges of `id` (empty slice if none).
    pub fn callees_of(&self, id: FnId) -> &[CallSite] {
        self.callees.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolve one call. `path` is the leading path text as written
    /// (`"mod_a::"`, `"Wheel::"`, `""`); `method` marks `.name(..)` calls.
    pub fn resolve(
        &self,
        ws: &Workspace,
        from_file: usize,
        name: &str,
        path: &str,
        method: bool,
    ) -> Option<FnId> {
        let mut name = name.to_string();
        let from_crate = crate_of(&ws.files[from_file].path);
        if method {
            // 1. unique same-file definition (free fn or method);
            // 2. unique same-crate inherent *method* (any Self type).
            if let Some(id) = self.unique_by_name(&name, |id| id.0 == from_file) {
                return Some(id);
            }
            return self.unique_method(ws, &name, |id, f| {
                f.has_self && crate_of(&ws.files[id.0].path) == from_crate
            });
        }
        // Free/associated call: expand the leading alias, then interpret
        // the path segments.
        let mut segs: Vec<String> = path
            .split("::")
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if let Some(first) = segs.first().cloned() {
            if let Some(full) = ws.files[from_file].parsed.aliases.get(&first) {
                let expanded: Vec<String> = full.split("::").map(str::to_string).collect();
                segs.splice(0..1, expanded);
            }
        } else if let Some(full) = ws.files[from_file].parsed.aliases.get(&name) {
            // Bare call through `use a::b::helper;` or a renamed
            // `use a::b::helper as h;` — the alias target's last segment
            // is the *definition* name; resolve under that.
            let parts: Vec<String> = full.split("::").map(str::to_string).collect();
            if let Some((last, init)) = parts.split_last() {
                name = last.clone();
                segs = init.to_vec();
            }
        }
        // Leading crate-ish segments pin the target crate.
        let mut target_crate = from_crate.to_string();
        while let Some(first) = segs.first().cloned() {
            match first.as_str() {
                "crate" | "self" | "super" => {
                    segs.remove(0);
                }
                "std" | "core" | "alloc" => return None, // std call
                _ => {
                    if let Some(dir) = self.crate_dir_of(&first) {
                        target_crate = dir;
                        segs.remove(0);
                    }
                    break;
                }
            }
        }
        // A `Type::assoc` tail resolves through the impl-block index.
        if let Some(ty) = segs
            .iter()
            .rev()
            .find(|s| s.chars().next().is_some_and(char::is_uppercase))
        {
            let in_crate = self.unique_method(ws, &name, |id, f| {
                f.self_ty.as_deref() == Some(ty.as_str())
                    && crate_of(&ws.files[id.0].path) == target_crate
            });
            if in_crate.is_some() {
                return in_crate;
            }
            // A unique impl of this type anywhere is still unambiguous.
            return self.unique_method(ws, &name, |_, f| f.self_ty.as_deref() == Some(ty.as_str()));
        }
        // Plain fn path: same file, then target crate. Deliberately no
        // workspace-wide fallback: a crate-qualified path with no match
        // in its crate is behind a std re-export (`crate::sync::hint::…`)
        // and must NOT accidentally bind a same-named fn elsewhere.
        if let Some(id) = self.unique_by_name(&name, |id| id.0 == from_file) {
            return Some(id);
        }
        self.unique_by_name(&name, |id| crate_of(&ws.files[id.0].path) == target_crate)
    }

    /// Map an `atos_x` lib ident (or bare directory name) to a workspace
    /// crate directory, if it names one.
    fn crate_dir_of(&self, seg: &str) -> Option<String> {
        let candidates = [seg.strip_prefix("atos_").unwrap_or(seg)];
        for c in candidates {
            let dir = c.replace('_', "-");
            if self.crate_dirs.contains(&dir) {
                return Some(dir);
            }
            if self.crate_dirs.iter().any(|d| d == c) {
                return Some(c.to_string());
            }
        }
        None
    }

    fn unique_by_name(&self, name: &str, keep: impl Fn(FnId) -> bool) -> Option<FnId> {
        let cands: Vec<FnId> = self
            .by_name
            .get(name)?
            .iter()
            .copied()
            .filter(|id| keep(*id))
            .collect();
        match cands.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    fn unique_method(
        &self,
        ws: &Workspace,
        name: &str,
        keep: impl Fn(FnId, &crate::parse::FnItem) -> bool,
    ) -> Option<FnId> {
        let mut cands = Vec::new();
        for ((_ty, n), ids) in &self.by_method {
            if n != name {
                continue;
            }
            for id in ids {
                let f = &ws.files[id.0].parsed.fns[id.1];
                if keep(*id, f) {
                    cands.push(*id);
                }
            }
        }
        match cands.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }
}
