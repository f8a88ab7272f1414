//! Asynchronous connected components by min-label propagation.
//!
//! A third irregular application on the Atos runtime (the paper's
//! framework is application-generic; CC is the other workload its
//! motivating PGAS literature always pairs with BFS). Every vertex starts
//! labeled with its own id and seeded into the queue; processing a vertex
//! pushes its label to every neighbor, keeping minima. On a symmetrized
//! graph this converges to the weak connected components — exactly the
//! fixed point the serial reference computes.

use std::sync::Arc;

use atos_core::{assert_owner, Application, AtosConfig, Emitter, Lookahead, RunStats, Runtime};
use atos_macros::atos_hot;
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_sim::Fabric;

/// Connected components as an Atos application. Expects a symmetric
/// graph (use [`Csr::symmetrize`] for directed inputs).
pub struct CcApp {
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    /// Current best (minimum) component label per vertex. Owned entries
    /// are authoritative; non-owned entries only change via their owner.
    pub label: Vec<u32>,
    /// `mirror[pe][w]`: best label PE `pe` has sent for remote vertex `w`
    /// (sender-side duplicate suppression, private per PE).
    mirror: Vec<Vec<u32>>,
}

impl CcApp {
    /// New instance: every vertex its own component.
    pub fn new(graph: Arc<Csr>, partition: Arc<Partition>) -> Self {
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n);
        CcApp {
            graph,
            partition: partition.clone(),
            label: (0..n as u32).collect(),
            mirror: vec![vec![u32::MAX; n]; partition.n_parts()],
        }
    }

    /// Number of distinct components (after `run`).
    pub fn component_count(&self) -> usize {
        let mut labels: Vec<u32> = self.label.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

impl Application for CcApp {
    /// `(vertex, candidate label)`.
    type Task = (VertexId, u32);

    fn process(&mut self, pe: usize, (v, _l): Self::Task, out: &mut Emitter<Self::Task>) {
        debug_assert_eq!(self.partition.owner(v), pe);
        let l = self.label[v as usize];
        for &w in self.graph.neighbors(v) {
            let owner = self.partition.owner(w);
            if owner == pe {
                if l < self.label[w as usize] {
                    self.label[w as usize] = l;
                    out.push(pe, (w, l));
                }
            } else if l < self.mirror[pe][w as usize] {
                // One-sided min-label push, applied at the owner on
                // arrival; the private mirror keeps each PE from
                // re-offering labels it already sent.
                self.mirror[pe][w as usize] = l;
                out.push(owner, (w, l));
            }
        }
    }

    #[inline]
    #[atos_hot(no_index)]
    fn prefetch(&self, (v, _): &Self::Task, ahead: Lookahead) {
        self.graph.prefetch(*v, ahead);
        if ahead == Lookahead::Far {
            prefetch(&self.label, *v as usize);
        }
    }

    fn on_receive(&mut self, pe: usize, (w, l): Self::Task) -> Option<Self::Task> {
        assert_owner!(self.partition, w, pe);
        if l < self.label[w as usize] {
            self.label[w as usize] = l;
            Some((w, l))
        } else {
            None
        }
    }

    fn priority(&self, (_, l): &Self::Task) -> u32 {
        // Lower labels first: they are the ones that will win, so
        // propagating them early suppresses doomed higher-label waves.
        *l
    }

    fn task_edges(&self, (v, _): &Self::Task) -> u64 {
        self.graph.degree(*v) as u64
    }

    fn task_bytes(&self) -> u64 {
        8
    }
}

/// Result of one CC run.
#[derive(Debug, Clone)]
pub struct CcRun {
    /// Runtime measurements.
    pub stats: RunStats,
    /// Final component labels (minimum vertex id per component).
    pub label: Vec<u32>,
    /// Number of components found.
    pub components: usize,
}

/// Run asynchronous connected components on a symmetric graph.
pub fn run_cc(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    fabric: Fabric,
    cfg: AtosConfig,
) -> CcRun {
    assert_eq!(partition.n_parts(), fabric.n_pes());
    let app = CcApp::new(graph, partition.clone());
    let mut rt = Runtime::new(app, fabric, cfg);
    for pe in 0..partition.n_parts() {
        let seeds: Vec<(VertexId, u32)> = partition
            .vertices_of(pe)
            .into_iter()
            .map(|v| (v, v))
            .collect();
        rt.seed(pe, seeds);
    }
    let stats = rt.run();
    let app = rt.into_app();
    let components = app.component_count();
    CcRun {
        stats,
        label: app.label,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::{grid_2d, Preset, Scale};
    use atos_graph::weights::connected_components;

    fn check(g: Arc<Csr>, n_pes: usize, cfg: AtosConfig) -> CcRun {
        let part = Arc::new(if n_pes == 1 {
            Partition::single(g.n_vertices())
        } else {
            Partition::random(g.n_vertices(), n_pes, 5)
        });
        let run = run_cc(g.clone(), part, Fabric::daisy(n_pes), cfg);
        assert_eq!(run.label, connected_components(&g), "labels must be exact");
        run
    }

    #[test]
    fn finds_multiple_components() {
        // Two disjoint grids.
        let a = grid_2d(4, 4);
        let mut edges: Vec<(u32, u32)> = a.edges().collect();
        edges.extend(a.edges().map(|(u, v)| (u + 16, v + 16)));
        let g = Arc::new(Csr::from_edges(32, &edges));
        let run = check(g, 2, AtosConfig::standard_persistent());
        assert_eq!(run.components, 2);
        assert_eq!(run.label[0], 0);
        assert_eq!(run.label[20], 16);
    }

    #[test]
    fn priority_by_label_reduces_wasted_waves() {
        let p = Preset::by_name("osm_eur_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny).symmetrize());
        let fifo = check(g.clone(), 4, AtosConfig::standard_persistent());
        let prio = check(g, 4, AtosConfig::priority_discrete());
        assert!(
            prio.stats.total_tasks() <= fifo.stats.total_tasks(),
            "priority {} vs fifo {} tasks",
            prio.stats.total_tasks(),
            fifo.stats.total_tasks()
        );
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = Arc::new(Csr::from_edges(5, &[(0, 1), (1, 0)]));
        let run = check(g, 1, AtosConfig::standard_persistent());
        assert_eq!(run.components, 4); // {0,1}, {2}, {3}, {4}
    }
}
