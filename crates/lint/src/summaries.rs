//! Per-function panic summaries and their fixed-point propagation over the
//! call graph.
//!
//! Each function gets one effect, *may panic*, seeded from local
//! `unwrap`/`expect`/panic-family macro sites and propagated caller-ward
//! over resolved call edges until nothing changes. The lattice is one
//! monotone bit per function, so the worklist terminates on cycles without
//! special casing; recursion simply reaches its fixed point.
//!
//! Propagation deliberately *stops* at callees that are vetted at their
//! own definition:
//!
//! * hot callees (`#[atos_hot]` / `// atos-lint: hot`) report their own
//!   panics directly — re-reporting them at every caller would be noise;
//! * an `atos-lint: allow(panic_in_kernel)` comment on the definition
//!   vouches for a panic — the escape hatch for documented `#[cold]` abort
//!   helpers.
//!
//! Unresolved calls contribute nothing (conservative in the "fewer
//! findings" direction). See DESIGN.md §7.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnId};
use crate::lints::{hot_marker, PANIC_CALLS, PANIC_MACROS};
use crate::model::{events_of, Event};
use crate::Workspace;

/// Why a function may panic: a local pattern, or inherited through a call.
#[derive(Debug, Clone)]
pub enum Why {
    /// A local construct: `pat` at `line` in the function itself.
    Local { pat: String, line: u32 },
    /// Inherited from `callee`, called at `line`.
    Via { callee: FnId, line: u32 },
}

/// A reconstructed provenance chain: the `(fn name, file, decl line)`
/// call hops, ending at the local pattern `(pat, file, line)`.
pub type EffectChain = (Vec<(String, String, u32)>, String, String, u32);

/// Panic summaries for every function in the workspace.
#[derive(Debug)]
pub struct Summaries {
    /// (file idx, fn idx) → why it may panic; absent if it cannot.
    pub panics: BTreeMap<FnId, Why>,
}

/// Is the callee vetted at its own definition: hot itself (it reports its
/// own sites), or carrying `atos-lint: allow(panic_in_kernel)`?
pub fn vetted(ws: &Workspace, id: FnId) -> bool {
    let file = &ws.files[id.0];
    let f = &file.parsed.fns[id.1];
    hot_marker(file, f).is_some() || crate::allowed_at(file, f.line)
}

impl Summaries {
    /// Seed local panic sites and run the propagation to its fixed point.
    pub fn compute(ws: &Workspace, graph: &CallGraph) -> Summaries {
        let mut panics: BTreeMap<FnId, Why> = BTreeMap::new();

        // Seed: local patterns.
        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.parsed.fns.iter().enumerate() {
                if f.in_test_mod || f.body.is_empty() {
                    continue;
                }
                let local = events_of(&file.parsed, f)
                    .into_iter()
                    .find_map(|ev| match ev {
                        Event::Macro { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                            Some(Why::Local {
                                pat: format!("{name}!"),
                                line,
                            })
                        }
                        Event::Call { name, line, .. } if PANIC_CALLS.contains(&name.as_str()) => {
                            Some(Why::Local {
                                pat: format!("{name}()"),
                                line,
                            })
                        }
                        _ => None,
                    });
                if let Some(why) = local {
                    panics.insert((fi, gi), why);
                }
            }
        }

        // Propagate to fixed point. One monotone bit per fn → at most
        // |fns| useful iterations; the sweep loop converges long before.
        loop {
            let mut changed = false;
            for (&id, edges) in &graph.callees {
                if panics.contains_key(&id) {
                    continue;
                }
                let via = edges
                    .iter()
                    .find(|site| panics.contains_key(&site.callee) && !vetted(ws, site.callee));
                if let Some(site) = via {
                    panics.insert(
                        id,
                        Why::Via {
                            callee: site.callee,
                            line: site.line,
                        },
                    );
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        Summaries { panics }
    }

    /// Reconstruct why `id` may panic, starting *at* `id`: the list of
    /// `(fn name, file, decl line)` hops ending at the local pattern
    /// `(pat, file, line)`. Cycle-guarded; `None` if `id` cannot panic.
    pub fn chain(&self, ws: &Workspace, id: FnId) -> Option<EffectChain> {
        let mut hops = Vec::new();
        let mut cur = id;
        let mut seen = vec![id];
        loop {
            let file = &ws.files[cur.0];
            let f = &file.parsed.fns[cur.1];
            hops.push((f.name.clone(), file.path.clone(), f.line));
            match self.panics.get(&cur)? {
                Why::Local { pat, line } => {
                    return Some((hops, pat.clone(), file.path.clone(), *line));
                }
                Why::Via { callee, .. } => {
                    if seen.contains(callee) {
                        return None; // cycle without a local witness
                    }
                    seen.push(*callee);
                    cur = *callee;
                }
            }
        }
    }
}
