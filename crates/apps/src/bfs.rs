//! Asynchronous push BFS (paper Listing 5 / Section IV).
//!
//! A task is `(vertex, depth-at-push)`. Processing a popped vertex reads
//! its *current* depth (which may have improved since the push — the
//! paper's `int depth = bfs.depth[node]`), then relaxes every neighbor:
//!
//! * local neighbor — atomicMin on the depth array; push `(w, d+1)` if
//!   improved (`F.depth_update_local` + `push_local`);
//! * remote neighbor — emit `(w, d+1)` to the owner, whose receive path
//!   applies the one-sided atomicMin and enqueues only improvements
//!   (`depth_update_remote` + `push_remote`). The atomic executes at the
//!   *target* memory when the message lands — exactly the semantics of a
//!   one-sided RDMA fetch-min, whose effect becomes visible at the remote
//!   HCA on packet arrival, not at the sender's issue point. The sender
//!   keeps a per-PE *mirror* of its best depth offer per remote vertex so
//!   it never re-sends a non-improving update; the mirror is private to
//!   the sending PE, as memory on its own device would be.
//!
//! Speculation and redundant work: out-of-order processing can visit a
//! vertex more than once before its depth settles. The priority-queue
//! configuration orders tasks by depth-at-push (`threshold_delta = 1`),
//! which is exactly the paper's mitigation quantified in Table III; this
//! module's [`BfsRun::normalized_workload`] reproduces that metric.
//!
//! The same program with a zero hop is min-label connected components
//! ([`BfsApp::components`], run by [`crate::cc::run_cc`]): every vertex
//! starts at its own id and a relaxation offers the label itself instead
//! of `d + 1`.

use std::sync::Arc;

use atos_core::{
    assert_owner, Application, AtosConfig, Emitter, Lookahead, NullTracer, RunStats, Runtime,
    RuntimeTuning, Tracer,
};
use atos_macros::atos_hot;
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_graph::reference::UNREACHED;
use atos_sim::Fabric;

/// BFS (and, with hop 0, connected components) as an Atos application.
pub struct BfsApp {
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    /// Current best depth per vertex (`u32::MAX` = unreached), or
    /// component label under [`BfsApp::components`]. Owned entries are
    /// authoritative; an entry owned by another PE is only ever
    /// read/written by its owner (`process` local relaxations and
    /// `on_receive` remote ones).
    pub depth: Vec<u32>,
    /// `mirror[pe][w]`: the best depth PE `pe` has *sent* for remote
    /// vertex `w` — the sender-side duplicate-suppression filter. Private
    /// to `pe`.
    mirror: Vec<Vec<u32>>,
    /// What one edge adds to the depth it relaxes: 1 for BFS, 0 for
    /// min-label components.
    hop: u32,
}

impl BfsApp {
    /// New BFS instance from `source`.
    pub fn new(graph: Arc<Csr>, partition: Arc<Partition>, source: VertexId) -> Self {
        let mut depth = vec![UNREACHED; graph.n_vertices()];
        depth[source as usize] = 0;
        Self::with_depths(graph, partition, depth, 1)
    }

    /// Connected components by min-label propagation: every vertex starts
    /// labelled with its own id (seed each one with `(v, v)`) and the hop
    /// is 0. Expects a symmetric graph (use [`Csr::symmetrize`] for
    /// directed inputs).
    pub fn components(graph: Arc<Csr>, partition: Arc<Partition>) -> Self {
        let labels = (0..graph.n_vertices() as u32).collect();
        Self::with_depths(graph, partition, labels, 0)
    }

    fn with_depths(graph: Arc<Csr>, partition: Arc<Partition>, depth: Vec<u32>, hop: u32) -> Self {
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n);
        BfsApp {
            graph,
            mirror: vec![vec![UNREACHED; n]; partition.n_parts()],
            partition,
            depth,
            hop,
        }
    }

    /// Number of vertices reached so far.
    pub fn reached(&self) -> usize {
        self.depth.iter().filter(|&&d| d != UNREACHED).count()
    }
}

impl Application for BfsApp {
    /// `(vertex, depth at push time)`.
    type Task = (VertexId, u32);

    fn process(&mut self, pe: usize, (v, _pushed_depth): Self::Task, out: &mut Emitter<Self::Task>) {
        debug_assert_eq!(self.partition.owner(v), pe, "task on wrong PE");
        let d = self.depth[v as usize];
        debug_assert_ne!(d, UNREACHED, "queued vertex must have a depth");
        let nd = d + self.hop;
        for &w in self.graph.neighbors(v) {
            let owner = self.partition.owner(w);
            if owner == pe {
                // Local atomicMin + conditional local push.
                if nd < self.depth[w as usize] {
                    self.depth[w as usize] = nd;
                    out.push_local((w, nd));
                }
            } else if nd < self.mirror[pe][w as usize] {
                // The paper's one-sided RDMA atomicMin (Listing 5):
                // `if (atomicMin(depth+neighbor, d+1, pe) > d+1)
                // push_warp(neighbor, pe)`. The atomic takes effect at the
                // remote memory on arrival (`on_receive`); the sender's
                // private mirror suppresses offers that cannot improve on
                // what this PE already sent.
                self.mirror[pe][w as usize] = nd;
                out.push(owner, (w, nd));
            }
        }
    }

    #[inline]
    #[atos_hot(no_index)]
    fn prefetch(&self, (v, _): &Self::Task, ahead: Lookahead) {
        self.graph.prefetch(*v, ahead);
        if ahead == Lookahead::Far {
            prefetch(&self.depth, *v as usize);
        }
    }

    fn on_receive(&mut self, pe: usize, (w, nd): Self::Task) -> Option<Self::Task> {
        assert_owner!(self.partition, w, pe);
        // The one-sided atomicMin lands here, at the owner's memory: apply
        // it and enqueue the vertex only if it improved (a non-improving
        // arrival was superseded by an earlier, better update whose own
        // push carries the wavefront).
        if nd < self.depth[w as usize] {
            self.depth[w as usize] = nd;
            Some((w, nd))
        } else {
            None
        }
    }

    fn priority(&self, (_, d): &Self::Task) -> u32 {
        *d
    }

    fn task_edges(&self, (v, _): &Self::Task) -> u64 {
        self.graph.degree(*v) as u64
    }

    fn task_bytes(&self) -> u64 {
        8 // vertex id + depth, two u32s
    }
}

// For the frozen `benchmark/` only (`atos_core::sharded`); nothing calls it.
impl atos_core::ShardableApp for BfsApp {
    fn fork(&self, _lo: usize, _hi: usize) -> Self {
        BfsApp {
            graph: self.graph.clone(),
            partition: self.partition.clone(),
            depth: self.depth.clone(),
            mirror: self.mirror.clone(),
            hop: self.hop,
        }
    }

    fn join(&mut self, shard: Self, lo: usize, hi: usize) {
        // Authoritative state: every vertex owned by the shard's PEs.
        for (v, d) in shard.depth.into_iter().enumerate() {
            let owner = self.partition.owner(v as VertexId);
            if (lo..hi).contains(&owner) {
                self.depth[v] = d;
            }
        }
        // Send-side filters: private to each PE, adopted wholesale.
        for (pe, row) in shard.mirror.into_iter().enumerate().take(hi).skip(lo) {
            self.mirror[pe] = row;
        }
    }
}

/// Result of one BFS run.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Runtime measurements.
    pub stats: RunStats,
    /// Final depth array.
    pub depth: Vec<u32>,
    /// Vertices reachable from the source (the ideal visit count).
    pub reachable: u64,
}

impl BfsRun {
    /// Table III's metric: total visits / ideal visits.
    pub fn normalized_workload(&self) -> f64 {
        self.stats.normalized_workload(self.reachable)
    }
}

/// Run asynchronous BFS under `cfg` on `fabric`.
pub fn run_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
    cfg: AtosConfig,
) -> BfsRun {
    run_bfs_tuned(graph, partition, source, fabric, cfg, RuntimeTuning::default(), NullTracer)
}

/// Run asynchronous BFS with a virtual-time tracer attached: per-PE step
/// spans, message instants, aggregator flush windows and occupancy
/// counters land in `tracer` (see `atos-trace`). Tracing is observation
/// only — depths, stats, and virtual times are identical to [`run_bfs`].
pub fn run_bfs_traced(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
    cfg: AtosConfig,
    tracer: &mut dyn Tracer,
) -> BfsRun {
    run_bfs_tuned(graph, partition, source, fabric, cfg, RuntimeTuning::default(), tracer)
}

/// The one place a BFS run is launched — [`run_bfs`], [`run_bfs_traced`]
/// and the Groute-/Galois-like baselines (which differ only in `cfg` and
/// `tuning`) are calls to it: build the runtime, seed the source, run,
/// collect. `tracer` collects the virtual-time timeline (pass
/// [`NullTracer`] for none) and changes no depth, stat or virtual time.
pub fn run_bfs_tuned<Tr: Tracer>(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
    cfg: AtosConfig,
    tuning: RuntimeTuning,
    tracer: Tr,
) -> BfsRun {
    assert_eq!(partition.n_parts(), fabric.n_pes(), "partition/fabric size");
    let app = BfsApp::new(graph, partition.clone(), source);
    let cost = atos_sim::GpuCostModel::v100();
    let mut rt = Runtime::with_tracer(app, fabric, cfg, cost, tuning, tracer);
    rt.seed(partition.owner(source), [(source, 0u32)]);
    let stats = rt.run();
    let app = rt.into_app();
    let reachable = app.reached() as u64;
    BfsRun {
        stats,
        depth: app.depth,
        reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::{GraphKind, Preset, Scale};

    #[test]
    fn priority_queue_reduces_redundant_work() {
        // Table III's phenomenon, on the scale-free tiny preset with 4 PEs.
        let p = Preset::by_name("twitter_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 9));
        let fifo = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        );
        let prio = run_bfs(
            g.clone(),
            part,
            src,
            Fabric::daisy(4),
            AtosConfig::priority_discrete(),
        );
        assert!(fifo.normalized_workload() >= 1.0);
        assert!(prio.normalized_workload() >= 1.0);
        assert!(
            prio.normalized_workload() <= fifo.normalized_workload() + 1e-9,
            "priority {} should not exceed FIFO {}",
            prio.normalized_workload(),
            fifo.normalized_workload()
        );
    }

    #[test]
    fn workload_near_ideal_on_single_pe() {
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::single(g.n_vertices()));
        let run = run_bfs(
            g,
            part,
            src,
            Fabric::daisy(1),
            AtosConfig::standard_persistent(),
        );
        let w = run.normalized_workload();
        assert!((1.0..1.2).contains(&w), "single-PE workload {w}");
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        // Two disconnected chains.
        let g = Arc::new(Csr::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]));
        let part = Arc::new(Partition::block(6, 2));
        let run = run_bfs(
            g,
            part,
            0,
            Fabric::daisy(2),
            AtosConfig::standard_persistent(),
        );
        assert_eq!(run.depth[..3], [0, 1, 2]);
        assert!(run.depth[3..].iter().all(|&d| d == UNREACHED));
        assert_eq!(run.reachable, 3);
    }

    #[test]
    fn mesh_graphs_prefer_persistent_kernels() {
        // The paper's central mesh result: kernel launch overhead dominates
        // high-diameter traversal, so standard+persistent beats
        // priority+discrete (Table II road_usa / osm-eur rows).
        let p = Preset::by_name("road_usa_s").unwrap();
        assert_eq!(p.kind, GraphKind::MeshLike);
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 4, 3));
        let pers = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        );
        let disc = run_bfs(g, part, src, Fabric::daisy(4), AtosConfig::priority_discrete());
        assert!(
            pers.stats.elapsed_ns < disc.stats.elapsed_ns,
            "persistent {} vs discrete {}",
            pers.stats.elapsed_ms(),
            disc.stats.elapsed_ms()
        );
    }

    #[test]
    fn traced_run_is_identical_to_untraced() {
        use atos_core::TraceBuffer;
        let p = Preset::by_name("soc-LiveJournal1_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 5));
        let plain = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::ib_cluster(4),
            AtosConfig::ib_bfs(),
        );
        let mut buf = TraceBuffer::new();
        let traced = run_bfs_traced(
            g,
            part,
            src,
            Fabric::ib_cluster(4),
            AtosConfig::ib_bfs(),
            &mut buf,
        );
        assert_eq!(plain.depth, traced.depth);
        assert_eq!(plain.stats.elapsed_ns, traced.stats.elapsed_ns);
        assert_eq!(plain.stats.messages, traced.stats.messages);
        assert!(!buf.is_empty(), "tracer saw the run");
        assert!(buf.events_named("step").len() as u64 >= traced.stats.steps_per_pe.iter().sum::<u64>());
    }

}
