//! BFS on the host-parallel backend: the paper's Listing 5 running on
//! real threads and the real lock-free queues.
//!
//! Unlike the simulator apps (which model time), this executes genuinely
//! concurrently: shared `AtomicU32` depths, one-sided `fetch_min` updates
//! by the sending worker, direct writes into remote receive queues. Used
//! both as a production API (a fast parallel BFS) and as a living proof
//! that the paper's execution model is implementable with the `atos-queue`
//! data structure semantics.

use std::sync::Arc;

use atos_queue::sync::{AtomicU32, Ordering};

use atos_core::host::{run_host, HostApplication, HostConfig, HostStats};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_graph::reference::UNREACHED;

/// BFS for the host backend.
pub struct HostBfsApp {
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    depth: Vec<AtomicU32>,
}

impl HostBfsApp {
    /// New instance with `source` at depth 0.
    ///
    /// # Panics
    /// If `source` is not a vertex of `graph`.
    pub fn new(graph: Arc<Csr>, partition: Arc<Partition>, source: VertexId) -> Self {
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n);
        assert!(
            (source as usize) < n,
            "BFS source {source} is not a vertex of a graph with {n} vertices"
        );
        let depth = (0..n)
            .map(|v| AtomicU32::new(if v == source as usize { 0 } else { UNREACHED }))
            .collect();
        HostBfsApp {
            graph,
            partition,
            depth,
        }
    }

    /// Snapshot the depth array (after the run).
    pub fn depths(&self) -> Vec<u32> {
        self.depth
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }
}

impl HostApplication for HostBfsApp {
    type Task = VertexId;

    fn process(&self, _pe: usize, v: VertexId, push: &mut dyn FnMut(usize, VertexId)) {
        let nd = self.depth[v as usize].load(Ordering::Relaxed) + 1;
        for &w in self.graph.neighbors(v) {
            // One-sided atomicMin: identical for local and remote
            // vertices, exactly as on NVLink unified memory.
            if self.depth[w as usize].fetch_min(nd, Ordering::Relaxed) > nd {
                push(self.partition.owner(w), w);
            }
        }
    }
}

/// Result of a host-backend BFS.
#[derive(Debug)]
pub struct HostBfsRun {
    /// Wall-clock + counter measurements.
    pub stats: HostStats,
    /// Final depths.
    pub depth: Vec<u32>,
}

/// Run BFS from `source` on the host backend.
///
/// `queue_capacity` bounds total pushes per queue (like the paper's
/// `local_cap`). A vertex is pushed only when its depth strictly
/// improves, so pushes are bounded by total depth improvements — usually
/// ≈ one per reached vertex, but up to `O(diameter)` per vertex under
/// adversarial thread schedules on high-diameter graphs. The default
/// `4 × edges + n` covers everything we have observed; if a run exceeds
/// it the push panics with a clear message — pass an explicit
/// [`HostConfig`] with a larger `queue_capacity` for hostile cases.
///
/// # Panics
/// If `source` is not a vertex of `graph`, or if `cfg` names another PE
/// count than `partition`.
pub fn host_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    cfg: Option<HostConfig>,
) -> HostBfsRun {
    let n_pes = partition.n_parts();
    let cfg = cfg
        .unwrap_or_else(|| HostConfig::new(n_pes, 4 * graph.n_edges() + graph.n_vertices() + 64));
    assert_eq!(cfg.n_pes, n_pes, "config PEs must match partition");
    let app = HostBfsApp::new(graph, partition.clone(), source);
    let mut seeds = vec![Vec::new(); n_pes];
    seeds[partition.owner(source)].push(source);
    let stats = run_host(&app, cfg, seeds);
    HostBfsRun {
        stats,
        depth: app.depths(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::{Preset, Scale};

    #[test]
    fn repeated_runs_agree_despite_scheduling() {
        // Thread interleavings vary, but BFS's fixed point is unique.
        let p = Preset::by_name("soc-LiveJournal1_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::random(g.n_vertices(), 3, 1));
        let a = host_bfs(g.clone(), part.clone(), src, None);
        let b = host_bfs(g.clone(), part, src, None);
        assert_eq!(a.depth, b.depth);
    }

    #[test]
    fn remote_pushes_track_edge_cut() {
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        // Single PE: no remote traffic at all.
        let part1 = Arc::new(Partition::single(g.n_vertices()));
        let solo = host_bfs(g.clone(), part1, src, None);
        assert_eq!(solo.stats.remote_pushes, 0);
        // Multi-PE random partition: plenty.
        let part4 = Arc::new(Partition::random(g.n_vertices(), 4, 1));
        let multi = host_bfs(g, part4, src, None);
        assert!(multi.stats.remote_pushes > 0);
    }

    #[test]
    #[should_panic(expected = "BFS source 9 is not a vertex of a graph with 4 vertices")]
    fn a_source_outside_the_graph_is_refused_by_name() {
        let g = Arc::new(Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let part = Arc::new(Partition::block(4, 2));
        host_bfs(g, part, 9, None);
    }
}
