//! Asynchronous push PageRank (Section IV).
//!
//! Every vertex starts with residue `1 − α` and is seeded into its owner's
//! queue. Relaxing a vertex folds its residue into its rank and pushes
//! `α·residue/deg` to each out-neighbor; a neighbor (re-)enters the queue
//! when its residue crosses ε. Remote contributions travel as one-sided
//! messages and are applied at the destination, which re-queues the vertex
//! on a threshold crossing.
//!
//! The paper's GPU implementation rediscovers unconverged vertices by
//! rescanning on pop failure (`f2`) because cross-PE in-queue flags are
//! racy on hardware; the simulator serializes each PE's events, so exact
//! in-queue tracking is equivalent (the `f2` rescan would find exactly the
//! vertices our `on_receive` re-queues) — and it needs no flag, because
//! **the residue is the flag**: a vertex is queued exactly while its
//! residue is at or above ε.
//!
//! 1. Between two relaxations of `w` its residue never shrinks: every
//!    contribution is `α·r/deg ≥ 0` ([`PageRankApp::new`] keeps `α` in
//!    `[0, 1]`).
//! 2. `w` enters the queue at the contribution that lifts its residue from
//!    below ε to at least ε, and by 1 stays at or above ε until it is
//!    popped; the pop resets the residue to `0 < ε`.
//! 3. The start state fits: every vertex is seeded with residue `1 − α`;
//!    if that is below ε every seed returns early and nothing is ever sent.
//!
//! So a contribution `c` enqueues `w` iff `old < ε ≤ old + c` — what a
//! fetch-and-add hands the sender on the hardware. `deposit` is that
//! rule, once, for local edges, per-task arrivals and whole messages.
//!
//! PageRank is the paper's *bandwidth-bound* application: unlike BFS,
//! every vertex is relaxed many times and every relaxation communicates,
//! which is why the IB configuration batches aggressively
//! (`WAIT_TIME = 32`).

use std::fmt;
use std::num::NonZeroU32;
use std::sync::Arc;

use atos_core::{assert_owner, Application, AtosConfig, Emitter, Lookahead, RunStats, Runtime};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::grouped::OwnerGrouped;
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_macros::atos_hot;
use atos_sim::Fabric;

/// A PageRank task: relax an owned vertex, or apply a remote contribution.
///
/// Eight bytes, the size [`Application::task_bytes`] charges for it: these
/// are what trains, bundles and receive lanes hold by the million. The
/// contribution's vertex is stored complemented in a `NonZeroU32`
/// (`PageRankApp::new` keeps ids below `u32::MAX`), whose spare zero tells
/// the variants apart, so the enum needs no tag word.
#[derive(Clone, Copy)]
pub enum PrTask {
    /// Pop-and-relax an owned vertex.
    Relax(VertexId),
    /// One-sided residue contribution to a remote vertex: `!vertex` and the
    /// share. Build with [`PrTask::contrib`], read with [`PrTask::target`].
    Contrib(NonZeroU32, f32),
}

impl PrTask {
    /// A contribution of `c` to vertex `w`.
    ///
    /// Precondition: `w < u32::MAX`, which [`PageRankApp::new`] asserts once
    /// for every vertex of the graph and debug builds check here. The
    /// function is total — no panic edge, so a loop that builds a run of
    /// these vectorises: `u32::MAX` itself would name vertex `u32::MAX − 1`.
    #[inline]
    pub fn contrib(w: VertexId, c: f32) -> Self {
        debug_assert!(w != u32::MAX, "vertex ids stay below u32::MAX");
        PrTask::Contrib(NonZeroU32::new(!w).unwrap_or(NonZeroU32::MIN), c)
    }

    /// The vertex a `Contrib`'s first field names.
    #[inline]
    pub fn target(packed: NonZeroU32) -> VertexId {
        !packed.get()
    }
}

/// What `#[derive(Debug)]` printed when `Contrib` held the vertex itself:
/// logs and the schedule fingerprints hashed from them do not change.
impl fmt::Debug for PrTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PrTask::Relax(v) => f.debug_tuple("Relax").field(&v).finish(),
            PrTask::Contrib(w, c) => f
                .debug_tuple("Contrib")
                .field(&PrTask::target(w))
                .field(&c)
                .finish(),
        }
    }
}

/// PageRank as an Atos application.
pub struct PageRankApp {
    /// Out-neighbours grouped by owning PE: a relaxation walks one local
    /// segment and emits one run per remote PE, with no owner lookup and
    /// no local/remote branch per edge. Built once.
    adj: Arc<OwnerGrouped>,
    partition: Arc<Partition>,
    /// Accumulated rank per vertex.
    pub rank: Vec<f64>,
    /// Pending residue per vertex; at or above `epsilon` exactly while the
    /// vertex is queued (module doc).
    pub residue: Vec<f64>,
    alpha: f64,
    epsilon: f64,
}

impl PageRankApp {
    /// New instance with damping `alpha` and threshold `epsilon`.
    ///
    /// # Panics
    /// If `alpha` is not a finite number in `[0, 1]` (a negative damping
    /// makes residues shrink, the one thing the queueing rule relies on
    /// never happening), if `epsilon` is not finite and positive (at 0 a
    /// vertex is never done and the run spins until the runtime's runaway
    /// abort), if the partition is for another vertex count, or if the
    /// graph has `u32::MAX` vertices or more.
    pub fn new(graph: Arc<Csr>, partition: Arc<Partition>, alpha: f64, epsilon: f64) -> Self {
        // A NaN is in no range.
        assert!(
            (0.0..=1.0).contains(&alpha),
            "PageRank alpha must be finite and in [0, 1], got {alpha}"
        );
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "PageRank epsilon must be finite and > 0, got {epsilon}"
        );
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n, "partition/graph size");
        assert!(
            n < u32::MAX as usize,
            "PrTask::Contrib stores !vertex in a NonZeroU32"
        );
        PageRankApp {
            adj: Arc::new(OwnerGrouped::build(&graph, &partition)),
            partition,
            rank: vec![0.0; n],
            residue: vec![1.0 - alpha; n],
            alpha,
            epsilon,
        }
    }

    /// Largest pending residue (convergence diagnostic).
    pub fn max_residue(&self) -> f64 {
        self.residue.iter().copied().fold(0.0, f64::max)
    }
}

/// Add the contribution `c` to one vertex's residue and report whether that
/// enqueues the vertex: whether the residue went from below ε to at least ε
/// (module doc). One load, one store, two compares and no branch — the only
/// place a residue grows.
#[inline]
fn deposit(residue: &mut f64, epsilon: f64, c: f64) -> bool {
    let old = *residue;
    let new = old + c;
    *residue = new;
    (old < epsilon) & (new >= epsilon)
}

/// Append `Relax(w)` to `keep`, in order, for every item whose `apply`
/// returns `(w, true)`.
///
/// Which contributions cross ε is as good as random, so the push is not a
/// branch: every item's task is stored at the cursor and only a crossing
/// advances it — the single-thread form of an aggregated worklist push.
/// That needs the slots to exist beforehand, hence a whole run at a time.
#[inline]
fn compact<T: Copy>(
    items: &[T],
    keep: &mut Vec<PrTask>,
    mut apply: impl FnMut(T) -> (VertexId, bool),
) {
    let base = keep.len();
    keep.resize(base + items.len(), PrTask::Relax(0));
    let slots = &mut keep[base..];
    let mut k = 0;
    for &item in items {
        let (w, enqueue) = apply(item);
        slots[k] = PrTask::Relax(w);
        k += enqueue as usize;
    }
    keep.truncate(base + k);
}

impl PageRankApp {
    /// What an arriving task does at its owner: the vertex it names and
    /// whether that vertex is enqueued. Per task and per run alike.
    #[inline]
    fn receive(&mut self, pe: usize, task: PrTask) -> (VertexId, bool) {
        match task {
            PrTask::Contrib(w, c) => {
                let w = PrTask::target(w);
                assert_owner!(self.partition, w, pe);
                let enqueue = deposit(&mut self.residue[w as usize], self.epsilon, c as f64);
                (w, enqueue)
            }
            PrTask::Relax(v) => (v, true),
        }
    }
}

impl Application for PageRankApp {
    type Task = PrTask;

    fn process(&mut self, pe: usize, task: PrTask, out: &mut Emitter<PrTask>) {
        let v = match task {
            PrTask::Relax(v) => v,
            PrTask::Contrib(..) => unreachable!("contributions are applied in on_receive"),
        };
        debug_assert_eq!(self.partition.owner(v), pe);
        let r = self.residue[v as usize];
        if r < self.epsilon {
            // Only a seed whose `1 − α` starts below ε.
            return;
        }
        self.residue[v as usize] = 0.0;
        self.rank[v as usize] += r;
        let deg = self.adj.degree(v);
        if deg == 0 {
            return;
        }
        let share = self.alpha * r / deg as f64;
        let contrib = share as f32;
        for (owner, segment) in self.adj.segments(v) {
            if owner == pe {
                // In `Csr::neighbors` order, so every residue sees the
                // same sequence of f64 additions as an ungrouped walk.
                compact(segment, &mut out.local, |w| {
                    assert_owner!(self.partition, w, pe);
                    (
                        w,
                        deposit(&mut self.residue[w as usize], self.epsilon, share),
                    )
                });
            } else {
                out.extend_remote(owner, segment.iter().map(|&w| PrTask::contrib(w, contrib)));
            }
        }
    }

    #[inline]
    #[atos_hot(no_index)]
    fn prefetch(&self, task: &PrTask, ahead: Lookahead) {
        // Only relaxations are popped; contributions are applied on arrival.
        let PrTask::Relax(v) = *task else { return };
        self.adj.prefetch(v, ahead);
        if ahead == Lookahead::Far {
            prefetch(&self.residue, v as usize);
            prefetch(&self.rank, v as usize);
        }
    }

    fn on_receive(&mut self, pe: usize, task: PrTask) -> Option<PrTask> {
        let (w, enqueue) = self.receive(pe, task);
        enqueue.then_some(PrTask::Relax(w))
    }

    /// The same rule as [`Application::on_receive`], a message at a time so
    /// that the kept tasks can be compacted instead of branched on. A
    /// wrapper that forwards only the per-task method (the repo benchmark's
    /// `Timed`) sees the same run: `prefetch_contract.rs` holds the two
    /// together.
    fn on_receive_run(&mut self, pe: usize, run: &[PrTask], keep: &mut Vec<PrTask>) {
        compact(run, keep, |task| self.receive(pe, task));
    }

    fn task_edges(&self, task: &PrTask) -> u64 {
        match task {
            PrTask::Relax(v) => self.adj.degree(*v) as u64,
            PrTask::Contrib(..) => 0,
        }
    }

    fn task_bytes(&self) -> u64 {
        8 // vertex id (u32) + contribution (f32)
    }

    fn converged(&self) -> bool {
        self.max_residue() < self.epsilon
    }
}

// For the frozen `benchmark/` only (`atos_core::sharded`); nothing calls it.
impl atos_core::ShardableApp for PageRankApp {
    fn fork(&self, _lo: usize, _hi: usize) -> Self {
        PageRankApp {
            adj: self.adj.clone(),
            partition: self.partition.clone(),
            rank: self.rank.clone(),
            residue: self.residue.clone(),
            alpha: self.alpha,
            epsilon: self.epsilon,
        }
    }

    fn join(&mut self, shard: Self, lo: usize, hi: usize) {
        for v in 0..self.rank.len() {
            let owner = self.partition.owner(v as VertexId);
            if (lo..hi).contains(&owner) {
                self.rank[v] = shard.rank[v];
                self.residue[v] = shard.residue[v];
            }
        }
    }
}

/// Result of one PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankRun {
    /// Runtime measurements.
    pub stats: RunStats,
    /// Final rank per vertex (unnormalized convention: sums to ≈ n).
    pub rank: Vec<f64>,
    /// Relaxations performed (workload measure).
    pub relaxations: u64,
}

/// Run asynchronous PageRank under `cfg` on `fabric`: build the runtime,
/// seed every vertex on its owner, run, assert convergence, collect.
///
/// # Panics
/// If the partition's part count is not the fabric's PE count, or if the
/// queues drain while some residue is still at or above `epsilon`.
pub fn run_pagerank(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    alpha: f64,
    epsilon: f64,
    fabric: Fabric,
    cfg: AtosConfig,
) -> PageRankRun {
    crate::assert_partition_fits(&partition, &fabric);
    let app = PageRankApp::new(graph, partition.clone(), alpha, epsilon);
    let mut rt = Runtime::new(app, fabric, cfg);
    for pe in 0..partition.n_parts() {
        let seeds: Vec<PrTask> = partition
            .vertices_of(pe)
            .into_iter()
            .map(PrTask::Relax)
            .collect();
        rt.seed(pe, seeds);
    }
    let stats = rt.run();
    let relaxations = stats.total_tasks();
    let app = rt.into_app();
    assert!(
        app.converged(),
        "queue drained with residue above epsilon: {}",
        app.max_residue()
    );
    PageRankRun {
        stats,
        rank: app.rank,
        relaxations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::{Preset, Scale};

    const ALPHA: f64 = 0.85;
    const EPS: f64 = 1e-6;

    #[test]
    fn a_task_is_the_eight_bytes_the_model_charges() {
        assert_eq!(std::mem::size_of::<PrTask>(), 8);
        // The hand-written Debug is the derive's, vertex uncomplemented.
        assert_eq!(format!("{:?}", PrTask::Relax(7)), "Relax(7)");
        assert_eq!(
            format!("{:?}", PrTask::contrib(0, 0.25)),
            "Contrib(0, 0.25)"
        );
        let last = PrTask::contrib(u32::MAX - 1, 1e-7);
        assert_eq!(format!("{last:?}"), "Contrib(4294967294, 1e-7)");
        assert_eq!(
            format!("{last:#?}"),
            "Contrib(\n    4294967294,\n    1e-7,\n)"
        );
        for w in [0, 1, 7, u32::MAX - 1] {
            let PrTask::Contrib(packed, c) = PrTask::contrib(w, 0.5) else {
                panic!("contrib built a Relax");
            };
            assert_eq!((PrTask::target(packed), c), (w, 0.5));
        }
        // Total outside its precondition: no panic edge in release builds.
        #[cfg(not(debug_assertions))]
        assert_eq!(
            format!("{:?}", PrTask::contrib(u32::MAX, 0.5)),
            "Contrib(4294967294, 0.5)"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "vertex ids stay below u32::MAX")]
    fn debug_builds_check_contribs_precondition() {
        PrTask::contrib(u32::MAX, 0.5);
    }

    #[test]
    fn new_names_the_parameter_it_rejects() {
        let g = Arc::new(Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]));
        let part = Arc::new(Partition::single(3));
        let nan = f64::NAN;
        for (alpha, epsilon, named) in [
            (-0.1, EPS, "alpha"),
            (1.0 + 1e-9, EPS, "alpha"),
            (nan, EPS, "alpha"),
            (f64::INFINITY, EPS, "alpha"),
            (ALPHA, 0.0, "epsilon"),
            (ALPHA, -EPS, "epsilon"),
            (ALPHA, nan, "epsilon"),
            (ALPHA, f64::INFINITY, "epsilon"),
        ] {
            let (g, part) = (g.clone(), part.clone());
            let panic = std::panic::catch_unwind(|| PageRankApp::new(g, part, alpha, epsilon))
                .err()
                .unwrap_or_else(|| panic!("alpha {alpha}, epsilon {epsilon} accepted"));
            let text = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                text.starts_with(&format!("PageRank {named} must be")),
                "{text}"
            );
        }
        // Both ends of alpha's range are legal, and so is a threshold above
        // the starting residue: nothing is folded, nothing is sent.
        for (alpha, epsilon, rank) in [(0.0, EPS, 1.0), (1.0, EPS, 0.0), (ALPHA, 1.0, 0.0)] {
            let run = run_pagerank(
                g.clone(),
                part.clone(),
                alpha,
                epsilon,
                Fabric::daisy(1),
                AtosConfig::standard_persistent(),
            );
            assert_eq!(run.rank, [rank; 3], "alpha {alpha}, epsilon {epsilon}");
        }
    }

    #[test]
    fn rank_mass_is_conserved() {
        // No sinks in the symmetrized graph, so Σrank → n.
        let p = Preset::by_name("osm_eur_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny).symmetrize());
        let part = Arc::new(Partition::block(g.n_vertices(), 4));
        let run = run_pagerank(
            g.clone(),
            part,
            ALPHA,
            1e-9,
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        );
        let total: f64 = run.rank.iter().sum();
        let n = g.n_vertices() as f64;
        assert!((total / n - 1.0).abs() < 1e-3, "mass {total} of {n}");
    }

    #[test]
    fn pagerank_has_more_workload_than_bfs() {
        // Section IV: "on {2,3,4}-GPU configurations, Atos's PageRank has
        // {10,13,14}x the workload of Atos's BFS" — direction, not factor.
        let p = Preset::by_name("hollywood_2009_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let part = Arc::new(Partition::bfs_grow(&g, 2, 2));
        let pr = run_pagerank(
            g.clone(),
            part.clone(),
            ALPHA,
            EPS,
            Fabric::daisy(2),
            AtosConfig::standard_persistent(),
        );
        let bfs = crate::bfs::run_bfs(
            g.clone(),
            part,
            p.bfs_source(&g),
            Fabric::daisy(2),
            AtosConfig::standard_persistent(),
        );
        assert!(pr.stats.total_edges() > 2 * bfs.stats.total_edges());
    }

    #[test]
    fn epsilon_trades_work_for_accuracy() {
        let p = Preset::by_name("soc-LiveJournal1_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let part = Arc::new(Partition::single(g.n_vertices()));
        let loose = run_pagerank(
            g.clone(),
            part.clone(),
            ALPHA,
            1e-3,
            Fabric::daisy(1),
            AtosConfig::standard_persistent(),
        );
        let tight = run_pagerank(
            g.clone(),
            part,
            ALPHA,
            1e-7,
            Fabric::daisy(1),
            AtosConfig::standard_persistent(),
        );
        assert!(tight.relaxations > loose.relaxations);
        assert!(tight.stats.elapsed_ns > loose.stats.elapsed_ns);
    }
}
