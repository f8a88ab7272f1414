//! Per-function effect summaries and their fixed-point propagation over
//! the call graph.
//!
//! Each function gets two effect bits — `allocates`, `may_panic` —
//! seeded from local patterns (allocating constructs, panicking
//! constructs) and propagated caller-ward over resolved call edges until
//! nothing changes. The lattice is two monotone booleans, so the worklist
//! terminates on cycles without special casing; recursion simply reaches
//! its fixed point.
//!
//! Propagation deliberately *stops* at callees that are vetted at their
//! own definition:
//!
//! * hot callees (`#[atos_hot]` / `// atos-lint: hot`) report their own
//!   allocations and panics directly — re-reporting them at every caller
//!   would be noise;
//! * an `atos-lint: allow(hot_path_alloc)` comment on the definition
//!   vouches for an allocation, `atos-lint: allow(panic_in_kernel)` for a
//!   panic — the escape hatches for arena growth paths and documented
//!   abort helpers.
//!
//! Unresolved calls contribute no effects (conservative in the "fewer
//! findings" direction); the dynamic `alloc_count` guard and atos-check
//! cover what name resolution cannot see. See DESIGN.md §7.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnId};
use crate::lints::{alloc_pattern, hot_marker, PANIC_CALLS, PANIC_MACROS};
use crate::model::{events_of, Event};
use crate::Workspace;

/// Why an effect bit is set: a local pattern, or inherited through a call.
#[derive(Debug, Clone)]
pub enum Why {
    /// A local construct: `pat` at `line` in the function itself.
    Local { pat: String, line: u32 },
    /// Inherited from `callee`, called at `line`.
    Via { callee: FnId, line: u32 },
}

/// Effect summary of one function.
#[derive(Debug, Clone, Default)]
pub struct Effects {
    /// Allocates (directly or transitively).
    pub alloc: Option<Why>,
    /// May panic via `unwrap`/`expect`/panic-family macros (indexing is
    /// judged locally per hot function, not propagated).
    pub panic: Option<Why>,
}

/// A reconstructed provenance chain: the `(fn name, file, decl line)`
/// call hops, ending at the local pattern `(pat, file, line)`.
pub type EffectChain = (Vec<(String, String, u32)>, String, String, u32);

/// Effect summaries for every function in the workspace.
#[derive(Debug)]
pub struct Summaries {
    /// (file idx, fn idx) → effects.
    pub fx: BTreeMap<FnId, Effects>,
}

/// Is the callee vetted for `rule` at its own definition: hot itself (it
/// reports its own sites), or carrying the allow comment?
pub fn vetted(ws: &Workspace, id: FnId, rule: &str) -> bool {
    let file = &ws.files[id.0];
    let f = &file.parsed.fns[id.1];
    hot_marker(file, f).is_some() || crate::allowed_at(file, f.line, rule)
}

impl Summaries {
    /// Seed local effects and run the propagation to its fixed point.
    pub fn compute(ws: &Workspace, graph: &CallGraph) -> Summaries {
        let mut fx: BTreeMap<FnId, Effects> = BTreeMap::new();

        // Seed: local patterns.
        for (fi, file) in ws.files.iter().enumerate() {
            if file.skip {
                continue;
            }
            for (gi, f) in file.parsed.fns.iter().enumerate() {
                if f.in_test_mod || f.body.is_empty() {
                    continue;
                }
                let mut e = Effects::default();
                for ev in events_of(&file.parsed, f) {
                    if e.alloc.is_none() {
                        if let Some(pat) = alloc_pattern(&ev) {
                            e.alloc = Some(Why::Local {
                                pat,
                                line: ev.line(),
                            });
                        }
                    }
                    match &ev {
                        Event::Macro { name, line }
                            if e.panic.is_none() && PANIC_MACROS.contains(&name.as_str()) =>
                        {
                            e.panic = Some(Why::Local {
                                pat: format!("{name}!"),
                                line: *line,
                            });
                        }
                        Event::Call { name, line, .. }
                            if e.panic.is_none() && PANIC_CALLS.contains(&name.as_str()) =>
                        {
                            e.panic = Some(Why::Local {
                                pat: format!("{name}()"),
                                line: *line,
                            });
                        }
                        _ => {}
                    }
                }
                fx.insert((fi, gi), e);
            }
        }

        // Propagate to fixed point. Two monotone bits per fn → at most
        // 2·|fns| useful iterations; the sweep loop converges long before.
        loop {
            let mut changed = false;
            let ids: Vec<FnId> = fx.keys().copied().collect();
            for id in ids {
                for site in graph.callees_of(id) {
                    let callee_fx = match fx.get(&site.callee) {
                        Some(c) => c.clone(),
                        None => continue,
                    };
                    let via = Why::Via {
                        callee: site.callee,
                        line: site.line,
                    };
                    let e = fx.get_mut(&id).expect("seeded");
                    if e.alloc.is_none()
                        && callee_fx.alloc.is_some()
                        && !vetted(ws, site.callee, "hot-path-alloc")
                    {
                        e.alloc = Some(via.clone());
                        changed = true;
                    }
                    if e.panic.is_none()
                        && callee_fx.panic.is_some()
                        && !vetted(ws, site.callee, "panic-in-kernel")
                    {
                        e.panic = Some(via);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        Summaries { fx }
    }

    /// Effects of `id` (default-empty for unknown ids).
    pub fn of(&self, id: FnId) -> Effects {
        self.fx.get(&id).cloned().unwrap_or_default()
    }

    /// Reconstruct the provenance chain of an effect, starting *at* `id`:
    /// the list of `(fn name, file, decl line)` hops ending at the local
    /// pattern `(pat, file, line)`. `pick` selects which effect's chain
    /// to walk. Cycle-guarded; returns `None` if the effect is unset.
    pub fn chain(
        &self,
        ws: &Workspace,
        id: FnId,
        pick: impl Fn(&Effects) -> Option<Why>,
    ) -> Option<EffectChain> {
        let mut hops = Vec::new();
        let mut cur = id;
        let mut seen = vec![id];
        loop {
            let file = &ws.files[cur.0];
            let f = &file.parsed.fns[cur.1];
            hops.push((f.name.clone(), file.path.clone(), f.line));
            match pick(&self.of(cur))? {
                Why::Local { pat, line } => {
                    return Some((hops, pat, file.path.clone(), line));
                }
                Why::Via { callee, .. } => {
                    if seen.contains(&callee) {
                        return None; // cycle without a local witness
                    }
                    seen.push(callee);
                    cur = callee;
                }
            }
        }
    }
}
