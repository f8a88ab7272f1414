//! Asynchronous connected components by min-label propagation.
//!
//! A third irregular application on the Atos runtime (the paper's
//! framework is application-generic; CC is the other workload its
//! motivating PGAS literature always pairs with BFS). Every vertex starts
//! labeled with its own id and seeded into the queue; processing a vertex
//! pushes its label to every neighbor, keeping minima. On a symmetrized
//! graph this converges to the weak connected components — exactly the
//! fixed point the serial reference computes. That is BFS with a zero
//! hop, so the application is [`BfsApp::components`]; this module holds
//! the launch and the result.

use std::sync::Arc;

use atos_core::{AtosConfig, RunStats, Runtime};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_sim::Fabric;

use crate::bfs::BfsApp;

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
///
/// # Panics
/// If the partition's part count is not the fabric's PE count.
pub fn run_cc(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    fabric: Fabric,
    cfg: AtosConfig,
) -> CcRun {
    crate::assert_partition_fits(&partition, &fabric);
    let app = BfsApp::components(graph, partition.clone());
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
    let label = rt.into_app().depth;
    let mut distinct = label.clone();
    distinct.sort_unstable();
    distinct.dedup();
    CcRun {
        stats,
        label,
        components: distinct.len(),
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
