//! Asynchronous single-source shortest paths — the canonical client of
//! the paper's `DistributedPriorityQueues`.
//!
//! The priority queue's `threshold` / `threshold_delta` machinery *is*
//! delta-stepping: tasks (tentative-distance updates) are bucketed by
//! `distance / delta`, and only buckets below the moving threshold are
//! eligible. FIFO scheduling relaxes vertices in arrival order and pays
//! heavily in re-relaxations; priority scheduling approaches Dijkstra's
//! work efficiency while keeping bucket-level parallelism.
//! `examples/sssp_delta.rs` sweeps `delta` to reproduce the classic
//! trade-off (small delta = work-efficient but serial; large = parallel
//! but speculative).
//!
//! # One slot per relaxation: the per-PE view
//!
//! Only a few percent of relaxations improve anything, so what a
//! relaxation reads before it gives up is the cost of the application.
//! Every PE keeps a *view*, `view[pe][w]`: the lowest distance PE `pe`
//! knows for `w`. For a vertex `pe` owns that is `dist[w]` itself, written
//! through wherever `dist[w]` is written (the source, a local relaxation,
//! `on_receive`); for any other vertex it is the best offer `pe` has sent,
//! which keeps it from re-sending one that cannot improve on its own. A
//! relaxation compares against that one slot, and only one that improves
//! it looks up the owner — to update `dist` if the vertex is local, and to
//! address the push either way. `dist` stays authoritative throughout.
//!
//! The view is the one piece of state that grows with the PE count
//! (`n × n_pes` slots), so a slot is 32 bits. That is exact: a tentative
//! distance is the length of a path on which every vertex improved, so a
//! simple path, and an offer is such a distance plus one edge — at most
//! `n × max weight`, which construction asserts is below `u32::MAX`.
//!
//! # Light/heavy edge splitting ([`run_sssp_delta`])
//!
//! Classic delta-stepping additionally defers *heavy* edges (weight >
//! `delta`): relaxing a heavy edge from a vertex whose distance is still
//! settling inside its bucket is pure speculation, because the target
//! lands at least one bucket away and any improvement to the source will
//! be re-sent anyway. The split mode makes that deferral first-class:
//!
//! * every distance-update task is a **light** task — it relaxes only
//!   edges with weight ≤ `delta`, the ones that can keep the wave inside
//!   the current bucket;
//! * a light task additionally schedules one **heavy** co-task at
//!   priority `2·bucket + 1` (light tasks run at `2·bucket`) whenever the
//!   vertex distance has improved below the value its heavy edges were
//!   last scheduled at, so under priority scheduling heavy edges are
//!   relaxed *after* the bucket's light closure — by which point the
//!   source distance has settled.
//!
//! The heavy co-task re-reads `dist[v]` at execution time and records the
//! distance it actually relaxed at, so a stale co-task is merely
//! redundant, never wrong, and a distance that improves again — even
//! within the same bucket — always triggers a fresh co-task. With `split`
//! off the application is byte-identical to the original single-kind
//! formulation.
//!
//! A vertex runs as a light task every time its distance improves and as
//! a heavy task about once per bucket, so which edges a light task visits
//! is laid out once, at construction: [`LightEdges`] holds every row's
//! light edges, target and weight side by side, and a light task walks
//! that row and nothing of the [`Csr`] or the [`EdgeWeights`]. Heavy and
//! unsplit tasks walk the full row; a heavy task skips the light edges in
//! it.

use std::sync::Arc;

use atos_core::{assert_owner, Application, AtosConfig, Emitter, Lookahead, RunStats, Runtime};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::light::LightEdges;
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_graph::weights::{EdgeWeights, UNREACHED_DIST};
use atos_macros::atos_hot;
use atos_sim::Fabric;

/// Task kind: relax all edges (split mode off).
pub const KIND_FULL: u8 = 0;
/// Task kind: relax only light edges (weight ≤ delta); first one per
/// bucket schedules the heavy co-task.
pub const KIND_LIGHT: u8 = 1;
/// Task kind: relax only heavy edges (weight > delta), once per bucket.
pub const KIND_HEAVY: u8 = 2;

/// What `SsspApp::view` and `heavy_sent` hold for "no distance yet".
const UNREACHED_VIEW: u32 = u32::MAX;

/// SSSP as an Atos application.
pub struct SsspApp {
    graph: Arc<Csr>,
    weights: Arc<EdgeWeights>,
    partition: Arc<Partition>,
    /// Tentative distance per vertex. Owned entries are authoritative;
    /// non-owned entries are only touched by their owner.
    pub dist: Vec<u64>,
    /// `view[pe][w]`: the lowest distance PE `pe` knows for `w`; what that
    /// means for an owned and for a remote `w` is in the module docs.
    /// Private per PE, [`UNREACHED_VIEW`] = none; 32 bits a slot (module
    /// docs).
    view: Vec<Vec<u32>>,
    /// Lowest distance for which this vertex's heavy edges have been
    /// scheduled or relaxed ([`UNREACHED_VIEW`] = never; 0 from the start
    /// for a vertex with no heavy edge, which therefore never gets a
    /// co-task). A light task re-sends the heavy co-task iff `dist[v]`
    /// drops below this. Owner-indexed like `dist`; empty unless split.
    heavy_sent: Vec<u32>,
    /// The rows light tasks walk: `Some` iff light/heavy edge splitting is
    /// on, `None` = original formulation.
    light: Option<Arc<LightEdges>>,
    /// Delta-stepping bucket width for the priority queue.
    pub delta: u64,
}

impl SsspApp {
    /// New instance from `source` with bucket width `delta`.
    ///
    /// # Panics
    /// If `source` is not a vertex of `graph`, or if `n` × the largest
    /// weight does not fit the 32-bit view.
    pub fn new(
        graph: Arc<Csr>,
        weights: Arc<EdgeWeights>,
        partition: Arc<Partition>,
        source: VertexId,
        delta: u64,
    ) -> Self {
        Self::build(graph, weights, partition, source, delta, false)
    }

    /// [`SsspApp::new`] with light/heavy edge splitting enabled: tasks
    /// relax only light edges and schedule one heavy co-task per
    /// (vertex, bucket) at priority `2·bucket + 1`.
    ///
    /// # Panics
    /// As [`SsspApp::new`].
    pub fn new_split(
        graph: Arc<Csr>,
        weights: Arc<EdgeWeights>,
        partition: Arc<Partition>,
        source: VertexId,
        delta: u64,
    ) -> Self {
        Self::build(graph, weights, partition, source, delta, true)
    }

    fn build(
        graph: Arc<Csr>,
        weights: Arc<EdgeWeights>,
        partition: Arc<Partition>,
        source: VertexId,
        delta: u64,
        split: bool,
    ) -> Self {
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n);
        assert!(
            (source as usize) < n,
            "SSSP source {source} is not a vertex of a graph with {n} vertices"
        );
        let max_weight = weights.max();
        assert!(
            (n as u64).saturating_mul(max_weight as u64) < UNREACHED_VIEW as u64,
            "SSSP keeps distances in 32 bits: {n} vertices × max weight {max_weight} \
             must stay below {UNREACHED_VIEW}"
        );
        let delta = delta.max(1);
        let mut dist = vec![UNREACHED_DIST; n];
        dist[source as usize] = 0;
        let mut view = vec![vec![UNREACHED_VIEW; n]; partition.n_parts()];
        view[partition.owner(source)][source as usize] = 0;
        let light = split.then(|| Arc::new(LightEdges::build(&graph, &weights, delta)));
        let heavy_sent = match &light {
            Some(light) => (0..n as VertexId)
                .map(|v| {
                    if light.degree(v) < graph.degree(v) {
                        UNREACHED_VIEW
                    } else {
                        0
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        SsspApp {
            graph,
            weights,
            partition,
            dist,
            view,
            heavy_sent,
            light,
            delta,
        }
    }

    /// Bucket index of distance `d`.
    fn bucket(&self, d: u64) -> u32 {
        (d / self.delta).min(u32::MAX as u64) as u32
    }

    /// Kind stamped on newly generated distance-update tasks.
    fn push_kind(&self) -> u8 {
        if self.light.is_some() {
            KIND_LIGHT
        } else {
            KIND_FULL
        }
    }
}

/// Offer every `(w, nd)` to `view` — the executing PE's row of
/// `SsspApp::view`, the one slot that decides (module docs) — and call
/// `improved` on those that lower it. An offer that lowers a slot is below
/// `u32::MAX`, so it is stored exactly. The compare is spelled here and not
/// inside `improved` so that it is inlined into the loop: one closure
/// holding the whole relaxation was left out of line, a call and five
/// register spills per edge (DESIGN.md §4.9).
#[inline(always)]
fn relax(
    offers: impl Iterator<Item = (VertexId, u64)>,
    view: &mut [u32],
    mut improved: impl FnMut(VertexId, u64),
) {
    for (w, nd) in offers {
        if nd < view[w as usize] as u64 {
            view[w as usize] = nd as u32;
            improved(w, nd);
        }
    }
}

/// The light rows behind `SsspApp::light`, for the task kinds only a split
/// instance creates. (On the field, not on `&self`: `process` reads them
/// while its relaxation holds `view` and `dist` mutably.)
#[inline]
fn split_rows(light: &Option<Arc<LightEdges>>) -> &LightEdges {
    light
        .as_deref()
        .expect("light and heavy tasks exist only in split mode")
}

impl Application for SsspApp {
    /// `(vertex, tentative distance at push time, task kind)`.
    ///
    /// `kind` is [`KIND_FULL`] whenever splitting is off, so the wire
    /// format carries a constant byte and behavior is unchanged.
    type Task = (VertexId, u64, u8);

    fn process(
        &mut self,
        pe: usize,
        (v, _pushed, kind): Self::Task,
        out: &mut Emitter<Self::Task>,
    ) {
        debug_assert_eq!(self.partition.owner(v), pe);
        let d = self.dist[v as usize];
        debug_assert_ne!(d, UNREACHED_DIST);
        if kind == KIND_LIGHT {
            // Schedule the heavy co-task if the distance improved below
            // the value the heavy edges were last scheduled at. The
            // co-task runs at 2b+1, after this bucket's light closure,
            // and re-reads `dist[v]` then — so heavy edges see the
            // settled source distance instead of every speculative
            // improvement.
            if d < self.heavy_sent[v as usize] as u64 {
                self.heavy_sent[v as usize] = d as u32;
                out.push(pe, (v, d, KIND_HEAVY));
            }
        } else if kind == KIND_HEAVY {
            // Record the distance actually relaxed at: a later light
            // task only re-sends if `dist[v]` improves below this.
            let hs = &mut self.heavy_sent[v as usize];
            *hs = (*hs).min(d as u32);
        }
        let (push_kind, delta) = (self.push_kind(), self.delta);
        // What an improving offer still has to do: the local atomicMin +
        // conditional local push, or the one-sided RDMA atomicMin (applied
        // at the owner on arrival, same semantics as BFS).
        let improved = |w: VertexId, nd: u64| {
            let owner = self.partition.owner(w);
            if owner == pe {
                self.dist[w as usize] = nd;
            }
            out.push(owner, (w, nd, push_kind));
        };
        let view = self.view[pe].as_mut_slice();
        if kind == KIND_LIGHT {
            let row = split_rows(&self.light).row(v);
            relax(
                row.iter().map(|&(w, wt)| (w, d + wt as u64)),
                view,
                improved,
            );
        } else {
            // A heavy task skips the row's light edges (its light tasks
            // relaxed them); KIND_FULL relaxes all. The skip is a select,
            // not a branch: a skipped edge offers `u64::MAX`, which no view
            // slot is above, so `relax` never takes it. The weight test
            // holds at no predictable place in a row, and a mispredicted
            // branch on it discards the `view` loads already in flight
            // (DESIGN.md §4.9).
            let skip_light = kind == KIND_HEAVY;
            let row = self
                .graph
                .neighbors(v)
                .iter()
                .zip(self.weights.of(&self.graph, v));
            let offers = row.map(|(&w, &wt)| {
                let kept = !(skip_light && wt as u64 <= delta);
                (
                    w,
                    std::hint::select_unpredictable(kept, d + wt as u64, u64::MAX),
                )
            });
            relax(offers, view, improved);
        }
    }

    #[inline]
    #[atos_hot]
    fn prefetch(&self, &(v, _, kind): &Self::Task, ahead: Lookahead) {
        let light = self.light.as_deref();
        if let (KIND_LIGHT, Some(light)) = (kind, light) {
            // A light task walks its light row and nothing of the graph.
            light.prefetch(v, ahead);
        } else {
            self.graph.prefetch(v, ahead);
            self.weights.prefetch(&self.graph, v, ahead);
        }
        if ahead == Lookahead::Far {
            prefetch(&self.dist, v as usize);
            // Empty unless split: an out-of-range hint is a no-op.
            prefetch(&self.heavy_sent, v as usize);
            if let (KIND_HEAVY, Some(light)) = (kind, light) {
                // `task_edges` subtracts the light degree.
                light.prefetch(v, ahead);
            }
        }
    }

    fn on_receive(&mut self, pe: usize, (w, nd, kind): Self::Task) -> Option<Self::Task> {
        assert_owner!(self.partition, w, pe);
        if nd < self.dist[w as usize] {
            self.dist[w as usize] = nd;
            self.view[pe][w as usize] = nd as u32;
            Some((w, nd, kind))
        } else {
            None
        }
    }

    fn priority(&self, (_, d, kind): &Self::Task) -> u32 {
        let b = self.bucket(*d);
        if self.light.is_some() {
            // Interleave: light tasks of bucket b at 2b, the heavy
            // co-tasks of bucket b at 2b+1, light of b+1 at 2b+2, ...
            b.min(u32::MAX / 2 - 1) * 2 + (*kind == KIND_HEAVY) as u32
        } else {
            b
        }
    }

    fn task_edges(&self, &(v, _, kind): &Self::Task) -> u64 {
        match kind {
            KIND_LIGHT => split_rows(&self.light).degree(v) as u64,
            KIND_HEAVY => (self.graph.degree(v) - split_rows(&self.light).degree(v)) as u64,
            _ => self.graph.degree(v) as u64,
        }
    }

    fn task_bytes(&self) -> u64 {
        if self.light.is_some() {
            13 // vertex id + 64-bit distance + kind byte
        } else {
            12 // vertex id + 64-bit distance
        }
    }
}

// For the frozen `benchmark/` only (`atos_core::sharded`); nothing calls it.
impl atos_core::ShardableApp for SsspApp {
    fn fork(&self, _lo: usize, _hi: usize) -> Self {
        SsspApp {
            graph: self.graph.clone(),
            weights: self.weights.clone(),
            partition: self.partition.clone(),
            dist: self.dist.clone(),
            view: self.view.clone(),
            heavy_sent: self.heavy_sent.clone(),
            light: self.light.clone(),
            delta: self.delta,
        }
    }

    fn join(&mut self, shard: Self, lo: usize, hi: usize) {
        for (v, d) in shard.dist.into_iter().enumerate() {
            let owner = self.partition.owner(v as VertexId);
            if (lo..hi).contains(&owner) {
                self.dist[v] = d;
            }
        }
        for (v, hs) in shard.heavy_sent.into_iter().enumerate() {
            let owner = self.partition.owner(v as VertexId);
            if (lo..hi).contains(&owner) {
                self.heavy_sent[v] = hs;
            }
        }
        for (pe, row) in shard.view.into_iter().enumerate().take(hi).skip(lo) {
            self.view[pe] = row;
        }
    }
}

/// Result of one SSSP run.
#[derive(Debug, Clone)]
pub struct SsspRun {
    /// Runtime measurements.
    pub stats: RunStats,
    /// Final distances.
    pub dist: Vec<u64>,
    /// Reached vertex count (ideal relaxation count lower bound).
    pub reachable: u64,
}

impl SsspRun {
    /// Relaxations per reached vertex (1.0 = Dijkstra-optimal).
    pub fn work_efficiency(&self) -> f64 {
        if self.reachable == 0 {
            return 0.0;
        }
        self.stats.total_tasks() as f64 / self.reachable as f64
    }
}

/// Run asynchronous SSSP under `cfg`; `delta` is the priority bucket
/// width (ignored by FIFO configurations).
///
/// # Panics
/// If the partition's part count is not the fabric's PE count.
pub fn run_sssp(
    graph: Arc<Csr>,
    weights: Arc<EdgeWeights>,
    partition: Arc<Partition>,
    source: VertexId,
    delta: u64,
    fabric: Fabric,
    cfg: AtosConfig,
) -> SsspRun {
    run_sssp_impl(graph, weights, partition, source, delta, fabric, cfg, false)
}

/// Delta-stepping SSSP with light/heavy edge splitting: light tasks
/// carry the wavefront at priority `2·bucket`, heavy co-tasks relax the
/// bucket-escaping edges at `2·bucket + 1`, after the bucket's light
/// closure.
/// `cfg` should be a priority-queue configuration; under a FIFO queue
/// the split still produces exact distances but loses its ordering
/// benefit.
///
/// # Panics
/// If the partition's part count is not the fabric's PE count.
pub fn run_sssp_delta(
    graph: Arc<Csr>,
    weights: Arc<EdgeWeights>,
    partition: Arc<Partition>,
    source: VertexId,
    delta: u64,
    fabric: Fabric,
    cfg: AtosConfig,
) -> SsspRun {
    run_sssp_impl(graph, weights, partition, source, delta, fabric, cfg, true)
}

#[allow(clippy::too_many_arguments)]
fn run_sssp_impl(
    graph: Arc<Csr>,
    weights: Arc<EdgeWeights>,
    partition: Arc<Partition>,
    source: VertexId,
    delta: u64,
    fabric: Fabric,
    cfg: AtosConfig,
    split: bool,
) -> SsspRun {
    crate::assert_partition_fits(&partition, &fabric);
    let app = if split {
        SsspApp::new_split(graph, weights, partition.clone(), source, delta)
    } else {
        SsspApp::new(graph, weights, partition.clone(), source, delta)
    };
    let kind = app.push_kind();
    let mut rt = Runtime::new(app, fabric, cfg);
    rt.seed(partition.owner(source), [(source, 0u64, kind)]);
    let stats = rt.run();
    let app = rt.into_app();
    let reachable = app.dist.iter().filter(|&&d| d != UNREACHED_DIST).count() as u64;
    SsspRun {
        stats,
        dist: app.dist,
        reachable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::{Preset, Scale};
    use atos_graph::weights::dijkstra;

    /// The split application, with the vertex of every heavy task it runs
    /// written down.
    struct HeavySpy {
        app: SsspApp,
        heavy: Vec<VertexId>,
    }

    impl Application for HeavySpy {
        type Task = <SsspApp as Application>::Task;

        fn process(&mut self, pe: usize, task: Self::Task, out: &mut Emitter<Self::Task>) {
            if task.2 == KIND_HEAVY {
                self.heavy.push(task.0);
            }
            self.app.process(pe, task, out);
        }

        fn on_receive(&mut self, pe: usize, task: Self::Task) -> Option<Self::Task> {
            self.app.on_receive(pe, task)
        }

        fn priority(&self, task: &Self::Task) -> u32 {
            self.app.priority(task)
        }

        fn task_edges(&self, task: &Self::Task) -> u64 {
            self.app.task_edges(task)
        }

        fn task_bytes(&self) -> u64 {
            self.app.task_bytes()
        }
    }

    fn check(
        g: &Arc<Csr>,
        w: &Arc<EdgeWeights>,
        src: VertexId,
        n_pes: usize,
        cfg: AtosConfig,
        delta: u64,
    ) -> SsspRun {
        let part = Arc::new(if n_pes == 1 {
            Partition::single(g.n_vertices())
        } else {
            Partition::bfs_grow(g, n_pes, 3)
        });
        let run = run_sssp(
            g.clone(),
            w.clone(),
            part,
            src,
            delta,
            Fabric::daisy(n_pes),
            cfg,
        );
        assert_eq!(run.dist, dijkstra(g, w, src), "distances must be exact");
        run
    }

    fn check_delta(
        g: &Arc<Csr>,
        w: &Arc<EdgeWeights>,
        src: VertexId,
        n_pes: usize,
        cfg: AtosConfig,
        delta: u64,
    ) -> SsspRun {
        let part = Arc::new(if n_pes == 1 {
            Partition::single(g.n_vertices())
        } else {
            Partition::bfs_grow(g, n_pes, 3)
        });
        let run = run_sssp_delta(
            g.clone(),
            w.clone(),
            part,
            src,
            delta,
            Fabric::daisy(n_pes),
            cfg,
        );
        assert_eq!(
            run.dist,
            dijkstra(g, w, src),
            "split distances must be exact"
        );
        run
    }

    #[test]
    fn delta_stepping_defers_heavy_edges() {
        // With weights up to 64 and delta = 8, most edges are heavy. The
        // split run must stay exact, and its speculative *edge* work on
        // heavy edges must not exceed the unsplit run's: heavy edges are
        // relaxed once per settled bucket, not once per improvement.
        let p = Preset::by_name("twitter_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let w = Arc::new(EdgeWeights::random(&g, 64, 1));
        let src = p.bfs_source(&g);
        let plain = check(&g, &w, src, 4, AtosConfig::priority_discrete(), 8);
        let split = check_delta(&g, &w, src, 4, AtosConfig::priority_discrete(), 8);
        assert!(
            split.stats.total_edges() <= plain.stats.total_edges(),
            "split edges {} vs plain edges {}",
            split.stats.total_edges(),
            plain.stats.total_edges()
        );
        // Light tasks with zero heavy neighbors must not spawn co-tasks:
        // total tasks stays within 2x of the unsplit relaxation count.
        assert!(split.stats.total_tasks() <= 2 * plain.stats.total_tasks());

        // Nor does a vertex whose edges are all light ever run as a heavy
        // task, and the graph has such vertices within reach.
        let part = Arc::new(Partition::bfs_grow(&g, 4, 3));
        let spy = HeavySpy {
            app: SsspApp::new_split(g.clone(), w.clone(), part.clone(), src, 8),
            heavy: Vec::new(),
        };
        let mut rt = Runtime::new(spy, Fabric::daisy(4), AtosConfig::priority_discrete());
        rt.seed(part.owner(src), [(src, 0u64, KIND_LIGHT)]);
        rt.run();
        let spy = rt.into_app();
        assert_eq!(spy.app.dist, split.dist);
        let all_light = |v: VertexId| w.of(&g, v).iter().all(|&wt| wt <= 8);
        assert!(!spy.heavy.is_empty(), "the run has heavy tasks");
        assert!(
            spy.heavy.iter().all(|&v| !all_light(v)),
            "heavy task on an all-light vertex"
        );
        let reached_all_light = (0..g.n_vertices() as VertexId)
            .filter(|&v| {
                g.degree(v) > 0 && all_light(v) && spy.app.dist[v as usize] != UNREACHED_DIST
            })
            .count();
        assert!(
            reached_all_light > 0,
            "no reached vertex has only light edges"
        );
    }

    #[test]
    fn a_view_holds_the_owners_truth_and_no_offer_undercuts_it() {
        let p = Preset::by_name("twitter_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let w = Arc::new(EdgeWeights::random(&g, 64, 1));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 7));
        let exact = dijkstra(&g, &w, src);
        for split in [false, true] {
            let app = SsspApp::build(g.clone(), w.clone(), part.clone(), src, 8, split);
            let kind = app.push_kind();
            let mut rt = Runtime::new(app, Fabric::daisy(4), AtosConfig::priority_discrete());
            rt.seed(part.owner(src), [(src, 0u64, kind)]);
            rt.run();
            let app = rt.into_app();
            assert_eq!(app.dist, exact, "split {split}");
            let known = |slot: u32| match slot {
                UNREACHED_VIEW => UNREACHED_DIST,
                d => d as u64,
            };
            for (v, &d) in app.dist.iter().enumerate() {
                let owner = part.owner(v as VertexId);
                for (pe, row) in app.view.iter().enumerate() {
                    if pe == owner {
                        assert_eq!(known(row[v]), d, "PE {pe} owns {v}");
                    } else {
                        assert!(known(row[v]) >= d, "PE {pe} offered {v} {} < {d}", row[v]);
                    }
                }
            }
        }
    }

    #[test]
    fn weights_too_heavy_for_the_view_are_refused() {
        let g = Arc::new(Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let w = Arc::new(EdgeWeights::random(&g, u32::MAX, 1));
        let max = w.max();
        assert!(
            4 * max as u64 >= u32::MAX as u64,
            "the case needs a heavy edge, drew {max}"
        );
        let part = Arc::new(Partition::single(4));
        let built = std::panic::catch_unwind(|| SsspApp::new(g, w, part, 0, 8).delta);
        let err = built.expect_err("a view that cannot hold every offer is refused");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert_eq!(
            *msg,
            format!(
                "SSSP keeps distances in 32 bits: 4 vertices × max weight {max} \
                 must stay below 4294967295"
            )
        );
    }

    #[test]
    fn priority_scheduling_is_more_work_efficient() {
        let p = Preset::by_name("twitter_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let w = Arc::new(EdgeWeights::random(&g, 64, 1));
        let src = p.bfs_source(&g);
        let fifo = check(&g, &w, src, 4, AtosConfig::standard_persistent(), 1);
        let prio = check(&g, &w, src, 4, AtosConfig::priority_discrete(), 1);
        assert!(
            prio.work_efficiency() <= fifo.work_efficiency() + 1e-9,
            "priority {} vs fifo {}",
            prio.work_efficiency(),
            fifo.work_efficiency()
        );
        assert!(fifo.work_efficiency() >= 1.0);
    }

    #[test]
    fn unit_weights_reduce_to_bfs() {
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let w = Arc::new(EdgeWeights::unit(&g));
        let src = p.bfs_source(&g);
        let run = check(&g, &w, src, 2, AtosConfig::standard_persistent(), 1);
        let depths = atos_graph::reference::bfs(&g, src);
        for (v, &depth) in depths.iter().enumerate() {
            if depth != u32::MAX {
                assert_eq!(run.dist[v], depth as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "SSSP source 9 is not a vertex of a graph with 4 vertices")]
    fn a_source_outside_the_graph_is_refused_by_name() {
        let g = Arc::new(Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        let w = Arc::new(EdgeWeights::unit(&g));
        let part = Arc::new(Partition::block(4, 2));
        SsspApp::new_split(g, w, part, 9, 8);
    }
}
