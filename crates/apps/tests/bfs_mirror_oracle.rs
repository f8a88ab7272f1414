//! `BfsApp` keeps each PE's mirror of sent offers paged until the PE has
//! offered into a quarter of the graph; the application it replaced kept a
//! dense `n`-slot mirror per PE. [`DenseBfs`] is that application as it
//! stood on the commit before (0df9244: the dense `mirror[pe][w]`, one
//! relaxation loop and nothing else), and every run here is made twice,
//! once with each: every `RunStats` field and every depth or label must
//! agree.
//!
//! The cases are the whole product — BFS and connected components (the
//! same application with a zero hop) × three graphs × three partitions ×
//! three configurations × two sources — in a fixed order, so a failure
//! names its case index and rerunning replays it. Case 0 is BFS on the
//! Tiny road mesh under `Partition::block`, where every PE stays paged for
//! most of the run: a mirror whose pages do not read `UNREACHED` fails it.

use std::sync::Arc;

use atos_apps::BfsApp;
use atos_core::{assert_owner, Application, AtosConfig, Emitter, Lookahead, RunStats, Runtime};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_graph::reference::UNREACHED;
use atos_sim::Fabric;

/// The parent's `BfsApp`, field for field and line for line.
struct DenseBfs {
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    /// Current best depth per vertex (`u32::MAX` = unreached), or
    /// component label under [`DenseBfs::components`]. Owned entries are
    /// authoritative; an entry owned by another PE is only ever
    /// read/written by its owner (`process` local relaxations and
    /// `on_receive` remote ones).
    depth: Vec<u32>,
    /// `mirror[pe][w]`: the best depth PE `pe` has *sent* for remote
    /// vertex `w` — the sender-side duplicate-suppression filter. Private
    /// to `pe`.
    mirror: Vec<Vec<u32>>,
    /// What one edge adds to the depth it relaxes: 1 for BFS, 0 for
    /// min-label components.
    hop: u32,
}

impl DenseBfs {
    /// New BFS instance from `source`.
    fn new(graph: Arc<Csr>, partition: Arc<Partition>, source: VertexId) -> Self {
        let mut depth = vec![UNREACHED; graph.n_vertices()];
        depth[source as usize] = 0;
        Self::with_depths(graph, partition, depth, 1)
    }

    /// Connected components by min-label propagation: every vertex starts
    /// labelled with its own id (seed each one with `(v, v)`) and the hop
    /// is 0. Expects a symmetric graph (use [`Csr::symmetrize`] for
    /// directed inputs).
    fn components(graph: Arc<Csr>, partition: Arc<Partition>) -> Self {
        let labels = (0..graph.n_vertices() as u32).collect();
        Self::with_depths(graph, partition, labels, 0)
    }

    fn with_depths(graph: Arc<Csr>, partition: Arc<Partition>, depth: Vec<u32>, hop: u32) -> Self {
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n);
        DenseBfs {
            graph,
            mirror: vec![vec![UNREACHED; n]; partition.n_parts()],
            partition,
            depth,
            hop,
        }
    }
}

impl Application for DenseBfs {
    /// `(vertex, depth at push time)`.
    type Task = (VertexId, u32);

    fn process(
        &mut self,
        pe: usize,
        (v, _pushed_depth): Self::Task,
        out: &mut Emitter<Self::Task>,
    ) {
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

/// The Tiny mesh (0) and scale-free graph (1) with their BFS sources, and
/// a graph with what generators avoid (2): self-loops (0, 5, 9), a vertex
/// nothing points at (6), one with no way out (7), isolated ones (10, 11).
fn graph(which: usize) -> (Csr, VertexId) {
    let preset = |name: &str| {
        let p = Preset::by_name(name).unwrap();
        let g = p.build(Scale::Tiny);
        let src = p.bfs_source(&g);
        (g, src)
    };
    match which {
        0 => preset("road_usa_s"),
        1 => preset("soc-LiveJournal1_s"),
        #[rustfmt::skip]
        _ => (Csr::from_edges(12, &[
            (0, 0), (0, 1), (0, 2), (1, 2), (2, 0), (2, 3), (3, 4), (3, 5), (4, 3),
            (5, 5), (5, 0), (6, 0), (6, 7), (8, 7), (3, 8), (8, 9), (9, 9), (9, 8),
            (2, 9),
        ]), 0),
    }
}

/// `pagerank_flag_oracle.rs`' first three: direct persistent, direct
/// discrete and the paper's IB aggregator.
fn configurations() -> [(Fabric, AtosConfig); 3] {
    [
        (Fabric::daisy(4), AtosConfig::standard_persistent()),
        (Fabric::daisy(4), AtosConfig::standard_discrete()),
        (Fabric::ib_cluster(8), AtosConfig::ib_pagerank()),
    ]
}

/// Seed, run to termination, and return the stats and the depth array.
fn drive<A: Application<Task = (VertexId, u32)>>(
    app: A,
    fabric: Fabric,
    cfg: AtosConfig,
    seeds: &[(usize, Vec<(VertexId, u32)>)],
    depth: impl FnOnce(A) -> Vec<u32>,
) -> (RunStats, Vec<u32>) {
    let mut rt = Runtime::new(app, fabric, cfg);
    for (pe, tasks) in seeds {
        rt.seed(*pe, tasks.iter().copied());
    }
    let stats = rt.run();
    (stats, depth(rt.into_app()))
}

const CASES: usize = 2 * 3 * 3 * 3 * 2;

#[test]
fn whole_runs_agree_with_the_dense_mirror_application() {
    for case in 0..CASES {
        let components = case % 2 == 1;
        let (fabric, cfg) = configurations()[case / 2 % 3].clone();
        let partitioner = ["block", "random", "bfs_grow"][case / 6 % 3];
        let (g, preset_source) = graph(case / 18 % 3);
        let second_source = case / 54 == 1;
        let n_pes = fabric.n_pes();
        let g = Arc::new(if components { g.symmetrize() } else { g });
        let n = g.n_vertices();
        let part = Arc::new(match partitioner {
            "block" => Partition::block(n, n_pes),
            "random" => Partition::random(n, n_pes, case as u64),
            _ => Partition::bfs_grow(&g, n_pes, case as u64),
        });
        // The second source is the 12-vertex graph's isolated vertex 10.
        let source = if second_source {
            (n - 2) as VertexId
        } else {
            preset_source
        };
        let (seeds, dense, app) = if components {
            let seeds = (0..n_pes)
                .map(|pe| {
                    (
                        pe,
                        part.vertices_of(pe).into_iter().map(|v| (v, v)).collect(),
                    )
                })
                .collect();
            let dense = DenseBfs::components(g.clone(), part.clone());
            (seeds, dense, BfsApp::components(g.clone(), part.clone()))
        } else {
            let seeds = vec![(part.owner(source), vec![(source, 0)])];
            let dense = DenseBfs::new(g.clone(), part.clone(), source);
            (seeds, dense, BfsApp::new(g.clone(), part.clone(), source))
        };
        let what = format!(
            "case {case}: {} on {n} vertices, Partition::{partitioner}, {:?}, source {source}",
            if components { "CC" } else { "BFS" },
            cfg,
        );
        let want = drive(dense, fabric.clone(), cfg, &seeds, |app| app.depth);
        let got = drive(app, fabric, cfg, &seeds, |app| app.depth);
        assert_eq!(
            format!("{:?}", got.0),
            format!("{:?}", want.0),
            "{what}: a statistic moved"
        );
        assert_eq!(got.1, want.1, "{what}: a depth or label moved");
        assert!(got.0.total_tasks() > 0, "{what}: nothing ran");
    }
}
