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
//! A mirror holds only the pages its PE has offered into ([`Mirror`]): a
//! mesh band sends across a few rows of its neighbours' bands and keeps a
//! few dozen pages, where a dense mirror would hold `n` slots per PE. A
//! PE that touches more than a quarter of the graph (any scale-free input,
//! within its first hub task) turns dense, and its loop is then the plain
//! indexed one: `process` picks the arm once per task.
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
    Tracer,
};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_graph::reference::UNREACHED;
use atos_macros::atos_hot;
use atos_sim::Fabric;

/// Slots per page of a paged [`Mirror`]. A constant, not a knob: 64, 256
/// and 1024 all left the mesh benchmark's peak memory within 51–55 MiB.
const PAGE: usize = 256;
/// A directory entry with no page behind it.
const NO_PAGE: u32 = u32::MAX;

/// One PE's mirror: the best depth it has *sent* per remote vertex,
/// [`UNREACHED`] until it first offers one.
///
/// It starts **paged**: `pages` holds one arena base per `PAGE` vertices
/// ([`NO_PAGE`] = none yet), and a page's slots are appended to `slots`,
/// all `UNREACHED`, the first time the PE offers into it. When another page
/// would take the arena past `n / 4` slots the mirror is **promoted**: its
/// pages are copied into a dense `slots[w]` for every `w`, and it stays
/// dense. So a paged mirror never holds more than a quarter of the dense
/// bytes plus the directory (`n / 64` bytes). Dense, the directory is the
/// identity (`pages[p] = p · PAGE`), so a paged loop that promoted half way
/// through a task still finds every slot.
#[derive(Clone)]
struct Mirror {
    pages: Vec<u32>,
    slots: Vec<u32>,
    /// Vertex count: dense exactly when `slots` holds all `n`.
    n: usize,
}

impl Mirror {
    fn new(n: usize) -> Self {
        Mirror {
            pages: vec![NO_PAGE; n.div_ceil(PAGE)],
            slots: Vec::new(),
            n,
        }
    }

    /// The dense slots, or `None` while paged (a paged arena holds at most
    /// `n / 4 < n` slots).
    fn dense(&mut self) -> Option<&mut [u32]> {
        (self.slots.len() == self.n).then_some(&mut self.slots[..])
    }

    /// Bytes held: the directory and the arena or dense slots.
    fn bytes(&self) -> usize {
        4 * (self.pages.capacity() + self.slots.capacity())
    }

    /// The best offer sent for `w` so far.
    #[cfg(test)]
    fn get(&self, w: VertexId) -> u32 {
        match self.pages[w as usize / PAGE] {
            NO_PAGE => UNREACHED,
            base => self.slots[base as usize + w as usize % PAGE],
        }
    }

    /// Append `page` to the arena, or promote the mirror to dense if that
    /// would take the arena past `n / 4` slots; `page`'s base either way.
    #[cold]
    #[inline(never)]
    fn add_page(&mut self, page: usize) -> u32 {
        let (len, limit) = (self.slots.len(), self.n / 4);
        if len + PAGE > limit {
            let mut dense = vec![UNREACHED; self.n];
            for (p, base) in self.pages.iter_mut().enumerate() {
                let at = p * PAGE;
                if *base != NO_PAGE {
                    let filled = PAGE.min(self.n - at);
                    dense[at..at + filled].copy_from_slice(&self.slots[*base as usize..][..filled]);
                }
                // `at < n`, and vertex ids are `u32`.
                *base = at as u32;
            }
            self.slots = dense;
        } else {
            // Doubling, capped at the limit, so the arena's capacity stays
            // within it too. `cap ≥ len + PAGE`: the limit is, and so is
            // twice a capacity of at least `max(len, PAGE)`.
            if len + PAGE > self.slots.capacity() {
                let cap = (2 * self.slots.capacity()).max(PAGE).min(limit);
                self.slots.reserve_exact(cap - len);
            }
            self.slots.resize(len + PAGE, UNREACHED);
            self.pages[page] = len as u32;
        }
        self.pages[page]
    }
}

/// How a relaxation reaches the sender's slot for remote vertex `w`: the
/// one thing the dense and the paged arm of [`BfsApp::process`] do
/// differently.
trait SentSlots {
    fn slot(&mut self, w: VertexId) -> &mut u32;
}

impl SentSlots for [u32] {
    #[inline]
    fn slot(&mut self, w: VertexId) -> &mut u32 {
        &mut self[w as usize]
    }
}

impl SentSlots for Mirror {
    /// `w`'s slot, its page added first if it has none.
    #[inline]
    fn slot(&mut self, w: VertexId) -> &mut u32 {
        let page = w as usize / PAGE;
        let mut base = self.pages[page];
        if base == NO_PAGE {
            base = self.add_page(page);
        }
        &mut self.slots[base as usize + w as usize % PAGE]
    }
}

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
    /// `mirror[pe]`: the best depth PE `pe` has *sent* per remote vertex —
    /// the sender-side duplicate-suppression filter, paged until `pe` has
    /// offered into a quarter of the graph ([`Mirror`]). Private to `pe`.
    mirror: Vec<Mirror>,
    /// What one edge adds to the depth it relaxes: 1 for BFS, 0 for
    /// min-label components.
    hop: u32,
}

impl BfsApp {
    /// New BFS instance from `source`.
    ///
    /// # Panics
    /// If `source` is not a vertex of `graph`.
    pub fn new(graph: Arc<Csr>, partition: Arc<Partition>, source: VertexId) -> Self {
        let n = graph.n_vertices();
        assert!(
            (source as usize) < n,
            "BFS source {source} is not a vertex of a graph with {n} vertices"
        );
        let mut depth = vec![UNREACHED; n];
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
            mirror: vec![Mirror::new(n); partition.n_parts()],
            partition,
            depth,
            hop,
        }
    }

    /// Number of vertices reached so far.
    pub fn reached(&self) -> usize {
        self.depth.iter().filter(|&&d| d != UNREACHED).count()
    }

    /// Bytes the PEs' mirrors hold now, summed (directories, arenas and
    /// dense slots, by capacity).
    pub fn mirror_bytes(&self) -> usize {
        self.mirror.iter().map(Mirror::bytes).sum()
    }
}

/// Relax every neighbour of `v` with depth `nd` on PE `pe`, reaching the
/// sent-offer slots through `sent`.
#[inline]
#[allow(
    clippy::too_many_arguments,
    reason = "the disjoint fields of one BfsApp, borrowed apart"
)]
fn relax<S: SentSlots + ?Sized>(
    graph: &Csr,
    partition: &Partition,
    depth: &mut [u32],
    sent: &mut S,
    pe: usize,
    v: VertexId,
    nd: u32,
    out: &mut Emitter<(VertexId, u32)>,
) {
    for &w in graph.neighbors(v) {
        let owner = partition.owner(w);
        if owner == pe {
            // Local atomicMin + conditional local push.
            if nd < depth[w as usize] {
                depth[w as usize] = nd;
                out.push_local((w, nd));
            }
        } else {
            // The paper's one-sided RDMA atomicMin (Listing 5):
            // `if (atomicMin(depth+neighbor, d+1, pe) > d+1)
            // push_warp(neighbor, pe)`. The atomic takes effect at the
            // remote memory on arrival (`on_receive`); the sender's
            // private mirror suppresses offers that cannot improve on
            // what this PE already sent.
            let sent = sent.slot(w);
            if nd < *sent {
                *sent = nd;
                out.push(owner, (w, nd));
            }
        }
    }
}

impl Application for BfsApp {
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
        let (graph, partition, depth) = (&*self.graph, &*self.partition, &mut self.depth[..]);
        // One dispatch per task, none per edge. A dense mirror is indexed
        // directly: the directory load on every remote edge cost the
        // scale-free `where_time_goes bfsr` run 6–20 %.
        let mirror = &mut self.mirror[pe];
        match mirror.dense() {
            Some(dense) => relax(graph, partition, depth, dense, pe, v, nd, out),
            None => relax(graph, partition, depth, mirror, pe, v, nd, out),
        }
    }

    #[inline]
    #[atos_hot]
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

// For the frozen `benchmark/` only (`atos_core::sharded`).
impl atos_core::ShardableApp for BfsApp {}

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
///
/// # Panics
/// If the partition's part count is not the fabric's PE count, or if
/// `source` is not a vertex of `graph`.
pub fn run_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
    cfg: AtosConfig,
) -> BfsRun {
    launch(graph, partition, source, fabric, cfg, NullTracer)
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
    tracer: &mut impl Tracer,
) -> BfsRun {
    launch(graph, partition, source, fabric, cfg, tracer)
}

/// The one place a BFS run is launched — [`run_bfs`] and
/// [`run_bfs_traced`] are calls to it: build the runtime, seed the source,
/// run, collect. `tracer` collects the virtual-time timeline
/// ([`NullTracer`] for none) and changes no depth, stat or virtual time.
fn launch<Tr: Tracer>(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
    cfg: AtosConfig,
    tracer: Tr,
) -> BfsRun {
    crate::assert_partition_fits(&partition, &fabric);
    let app = BfsApp::new(graph, partition.clone(), source);
    let mut rt = Runtime::with_tracer(app, fabric, cfg, tracer);
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
    use atos_graph::generators::{rmat, road_network, GraphKind, Preset, Scale};
    use atos_graph::reference;
    use proptest::collection;
    use proptest::prelude::*;

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
        let disc = run_bfs(
            g,
            part,
            src,
            Fabric::daisy(4),
            AtosConfig::priority_discrete(),
        );
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
        assert!(
            buf.events_named("step").len() as u64 >= traced.stats.steps_per_pe.iter().sum::<u64>()
        );
    }

    #[test]
    #[should_panic(expected = "BFS source 9 is not a vertex of a graph with 4 vertices")]
    fn a_source_outside_the_graph_is_refused_by_name() {
        let g = Arc::new(Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let part = Arc::new(Partition::block(4, 2));
        BfsApp::new(g, part, 9);
    }

    /// Run BFS from `src` on 4 PEs to termination and hand the app back.
    fn run_from(g: &Arc<Csr>, part: &Arc<Partition>, src: VertexId) -> BfsApp {
        let app = BfsApp::new(g.clone(), part.clone(), src);
        let mut rt = Runtime::new(app, Fabric::daisy(4), AtosConfig::standard_persistent());
        rt.seed(part.owner(src), [(src, 0)]);
        rt.run();
        rt.into_app()
    }

    #[test]
    fn a_mesh_band_keeps_its_mirror_paged() {
        // `bfs_mesh_nvlink`'s input: every PE sends across a few rows of
        // its neighbours' bands, far below a quarter of the graph.
        let side = 1000;
        let g = Arc::new(road_network(side, side, 23));
        let part = Arc::new(Partition::block(g.n_vertices(), 4));
        let src = (side / 2 * side + side / 2) as VertexId;
        let dense_bytes = 4 * 4 * g.n_vertices();
        let mut app = run_from(&g, &part, src);
        assert_eq!(app.depth, reference::bfs(&g, src));
        for (pe, mirror) in app.mirror.iter_mut().enumerate() {
            assert!(mirror.dense().is_none(), "PE {pe} promoted on a mesh");
        }
        let bytes = app.mirror_bytes();
        assert!(
            bytes < 1 << 20,
            "{bytes} B of mirror on a mesh (dense: {dense_bytes} B)"
        );
    }

    #[test]
    fn a_scale_free_run_promotes_every_mirror() {
        let g = Arc::new(rmat(14, 200_000, (0.57, 0.19, 0.19, 0.05), 23));
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 23));
        let src = (0..g.n_vertices() as VertexId)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let mut app = run_from(&g, &part, src);
        assert_eq!(app.depth, reference::bfs(&g, src));
        for (pe, mirror) in app.mirror.iter_mut().enumerate() {
            assert!(mirror.dense().is_some(), "PE {pe} stayed paged on R-MAT");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Reads and writes against a plain `Vec<u32>`: no page (`n` = 0),
        /// less than a page, a promotion at the first page (`n / 4 < PAGE`)
        /// and paged runs that promote on their third or fifth page, none
        /// of them a multiple of `PAGE`. Half the cases keep their writes in
        /// a window of two pages, where the paged ones stay paged.
        #[test]
        fn a_mirror_reads_as_a_dense_vector(
            size in 0usize..5,
            window in 0usize..2,
            ops in collection::vec((0u32..3, 0u32..u32::MAX, 0u32..1000), 1..600),
        ) {
            let n = [0, 100, 1000, 3000, 5000][size];
            let mut mirror = Mirror::new(n);
            let mut model = vec![UNREACHED; n];
            let span = if window == 0 { n } else { n.min(2 * PAGE) };
            let mut was_paged_with_pages = false;
            for (kind, w, value) in ops {
                if n == 0 {
                    break;
                }
                let w = (w as usize % span) as VertexId;
                if kind == 0 {
                    prop_assert_eq!(mirror.get(w), model[w as usize], "read of {}", w);
                } else {
                    *mirror.slot(w) = value;
                    model[w as usize] = value;
                }
                match mirror.dense() {
                    Some(dense) => prop_assert_eq!(&dense[..], &model[..]),
                    None => {
                        was_paged_with_pages |= !mirror.slots.is_empty();
                        prop_assert!(mirror.slots.capacity() <= n / 4, "arena past n / 4");
                    }
                }
            }
            let promoted = mirror.dense().is_some();
            for w in 0..n as VertexId {
                prop_assert_eq!(mirror.get(w), model[w as usize], "slot {} at the end", w);
            }
            if n < 4 * PAGE {
                prop_assert!(!was_paged_with_pages, "n = {} held a page without promoting", n);
            }
            if window == 1 && n >= 3000 {
                prop_assert!(!promoted, "two pages promoted n = {}", n);
            }
        }
    }
}
