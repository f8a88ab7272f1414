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
//!
//! A relaxation's remote segment — the neighbours one other PE owns, 4.9 of
//! them on average on the IB workload — is Listing 5's `push_warp(neighbor,
//! pe)`: one cooperative write of the whole segment. Here it is one masked
//! vector load of the ids and masked stores of the finished tasks, straight
//! into the destination's tail chunk ([`Emitter::remote_spare`]), 16 ids at
//! a time. `PageRankApp::new` picks AVX-512F where the CPU reports it and
//! the plain `extend` otherwise, once; a segment that does not fit the tail
//! chunk takes the plain path, so both compilations leave the same chunks,
//! trains and run (DESIGN.md §4.10). The kernel writes [`PrTask`]'s words
//! directly, so its bit layout is checked at compile time.

#![expect(
    unsafe_code,
    reason = "the remote emit's AVX-512F kernel writes the lent slots"
)]

use std::fmt;
use std::mem;
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

/// The high half of every contribution of share `c`: its `f32` bits.
#[inline(always)]
fn share_word(c: f32) -> u64 {
    u64::from(c.to_bits()) << 32
}

/// [`PrTask`]'s words, which the vector emit writes directly: a
/// contribution is its complemented vertex in the low half and the share's
/// bits in the high half, and a relaxation is its vertex in the high half
/// over a zero low half (the niche that tells the variants apart). The
/// layout of a plain enum is the compiler's choice; these asserts make it
/// a fact of the build, which fails if the layout is ever another.
const _: () = {
    // SAFETY: `PrTask` is 8 bytes with no padding in either variant (the
    // niche fills `Relax`'s low half), so every byte of both values is
    // initialised; const evaluation would reject the transmute otherwise.
    let relax = unsafe { mem::transmute::<PrTask, u64>(PrTask::Relax(0x89AB_CDEF)) };
    assert!(relax == 0x89AB_CDEF << 32);
    // What `PrTask::contrib(0x0123_4567, -1.5)` builds (a `const fn` may
    // not call its `unwrap_or`).
    let packed = NonZeroU32::new(!0x0123_4567).unwrap();
    // SAFETY: as above.
    let contrib = unsafe { mem::transmute::<PrTask, u64>(PrTask::Contrib(packed, -1.5)) };
    assert!(contrib == !0x0123_4567u32 as u64 | ((-1.5f32).to_bits() as u64) << 32);
};

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
    /// The compilation of the remote emit this host runs.
    emit: Emit,
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
            emit: Emit::host().next().unwrap_or(Emit::Plain),
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

/// One compilation of the remote emit: `PrTask::contrib(w, c)` for every
/// `w` of a segment, appended to the run for the segment's owner. Every
/// compilation leaves the same tasks in the same chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Emit {
    /// Masked 512-bit loads and stores, 16 ids at a time.
    #[cfg(target_arch = "x86_64")]
    Avx512f,
    /// [`Emitter::extend_remote`] over an iterator, on every host.
    Plain,
}

impl Emit {
    /// The compilations this host runs, widest first: AVX-512F where the
    /// CPU reports it, then plain code, the only one off x86_64. A value other than `Plain` exists only where its features
    /// do, which is what makes [`Emit::remote`] sound.
    fn host() -> impl Iterator<Item = Emit> {
        #[cfg(target_arch = "x86_64")]
        let wide = std::is_x86_feature_detected!("avx512f").then_some(Emit::Avx512f);
        #[cfg(not(target_arch = "x86_64"))]
        let wide = None;
        wide.into_iter().chain([Emit::Plain])
    }

    /// Append `contrib(w, c)` for each `w` of `segment` to `dst`'s run.
    #[inline(always)]
    fn remote(self, out: &mut Emitter<PrTask>, dst: usize, segment: &[VertexId], c: f32) {
        // `PrTask::contrib`'s check, which the kernel does not call.
        debug_assert!(
            !segment.contains(&u32::MAX),
            "vertex ids stay below u32::MAX"
        );
        match self {
            // SAFETY: `Emit::host` hands out `Avx512f` only where the CPU
            // reports AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Emit::Avx512f => unsafe { x86::emit_avx512f(out, dst, segment, c) },
            Emit::Plain => emit_plain(out, dst, segment, c),
        }
    }
}

/// The remote emit as an iterator: what every compilation must equal, and
/// what the vector one falls back on when the segment does not fit the
/// tail chunk.
#[inline(always)]
fn emit_plain(out: &mut Emitter<PrTask>, dst: usize, segment: &[VertexId], c: f32) {
    out.extend_remote(dst, segment.iter().map(|&w| PrTask::contrib(w, c)));
}

/// The remote emit on the vector unit. A segment is written into the slots
/// [`Emitter::remote_spare`] lends, one block of ids per iteration: a
/// masked load of the ids, `!w` clamped to at least 1 (`contrib`'s
/// `unwrap_or(NonZeroU32::MIN)`), widened to 64-bit lanes and OR-ed with
/// the share's bits ([`share_word`]), then masked stores. A segment that
/// does not fit the tail chunk goes to [`emit_plain`], which spills exactly
/// where it would have.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use atos_core::Emitter;
    use atos_graph::csr::VertexId;
    use atos_macros::atos_hot;

    use super::{emit_plain, share_word, PrTask};

    /// 16 ids per iteration: one 512-bit load, two 512-bit stores.
    ///
    /// # Safety
    /// The host must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[atos_hot]
    pub(super) unsafe fn emit_avx512f(
        out: &mut Emitter<PrTask>,
        dst: usize,
        segment: &[VertexId],
        c: f32,
    ) {
        let len = segment.len();
        let Some(spare) = out.remote_spare(dst, len) else {
            return emit_plain(out, dst, segment, c);
        };
        let share = _mm512_set1_epi64(share_word(c) as i64);
        let (ones, one) = (_mm512_set1_epi32(-1), _mm512_set1_epi32(1));
        let mut at = spare.as_mut_ptr().cast::<i64>();
        for ids in segment.chunks(16) {
            let n = ids.len();
            let mask = ((1u32 << n) - 1) as u16;
            // SAFETY: the mask enables the `n` lanes `ids` holds; masked-off
            // lanes are not read and cannot fault.
            let w = unsafe { _mm512_maskz_loadu_epi32(mask, ids.as_ptr().cast()) };
            let packed = _mm512_max_epu32(_mm512_xor_si512(w, ones), one);
            let lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(packed));
            let hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(packed));
            // SAFETY: `at` is this block's first lent slot and `n` of the
            // slots from it are lent (8-byte tasks, one per 64-bit lane);
            // the masks enable exactly those lanes, and masked-off lanes
            // are not written and cannot fault.
            unsafe {
                _mm512_mask_storeu_epi64(at, mask as u8, _mm512_or_si512(lo, share));
                _mm512_mask_storeu_epi64(
                    at.wrapping_add(8),
                    (mask >> 8) as u8,
                    _mm512_or_si512(hi, share),
                );
            }
            at = at.wrapping_add(16);
        }
        // SAFETY: the loop wrote all `len` lent slots, and nothing touched
        // `out` since `remote_spare`.
        unsafe { out.commit_remote(dst, len) };
    }
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
                self.emit.remote(out, owner, segment, contrib);
            }
        }
    }

    #[inline]
    #[atos_hot]
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

// For the frozen `benchmark/` only (`atos_core::sharded`).
impl atos_core::ShardableApp for PageRankApp {}

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
    run_app(app, &partition, fabric, cfg)
}

/// [`run_pagerank`] on a built application.
fn run_app(
    app: PageRankApp,
    partition: &Partition,
    fabric: Fabric,
    cfg: AtosConfig,
) -> PageRankRun {
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

    /// The widest emit this host runs checks `contrib`'s precondition too,
    /// though the vector kernel never calls `contrib`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "vertex ids stay below u32::MAX")]
    fn debug_builds_check_the_emits_precondition() {
        let mut out = Emitter::new(0, 2);
        out.push(1, PrTask::Relax(0));
        let widest = Emit::host().next().unwrap_or(Emit::Plain);
        widest.remote(&mut out, 1, &[3, u32::MAX], 0.5);
    }

    /// A task's eight bytes as one word, by the layout the `const` block
    /// pins: comparing words compares bytes.
    fn word(task: PrTask) -> u64 {
        match task {
            PrTask::Relax(v) => u64::from(v) << 32,
            PrTask::Contrib(w, c) => u64::from(w.get()) | share_word(c),
        }
    }

    /// An emitter for PE 0 of 2 whose pool holds three chunks (classes 0,
    /// 1 and 2) filled with a task no emit writes, so a slot an emit
    /// counts but leaves unwritten reads as that task instead of as what
    /// the allocator happened to hand back.
    fn poisoned_emitter() -> Emitter<PrTask> {
        let mut out = Emitter::new(0, 2);
        let poison = PrTask::Relax(0xDEAD_BEEF);
        out.extend_remote(1, std::iter::repeat_n(poison, 64 + 128 + 256));
        out.reset_for(0);
        out
    }

    /// Every compilation of the remote emit this host runs against the
    /// plain one, on one emitter state at a time: segments of 0 to 40 ids
    /// (past two 16-id blocks) behind a tail chunk not yet drawn, full, with
    /// `n − 1`, `n` and `n + 1` slots free, and with most of a first- or a
    /// second-class chunk free. Ids include 0 and `u32::MAX − 1`, whose
    /// complement is the clamp's edge; shares include `-0.0` and a
    /// subnormal. Every chunk of the run must have the same length,
    /// capacity and task bytes.
    #[test]
    fn every_emit_this_host_runs_matches_the_plain_path() {
        let ids: Vec<VertexId> = (0..40u32)
            .map(|i| match i % 4 {
                0 => 0,
                1 => u32::MAX - 1,
                _ => i.wrapping_mul(2_654_435_761) % (u32::MAX - 1),
            })
            .collect();
        let shares = [-0.0, f32::from_bits(1), 0.15, f32::MAX];
        let mut ran = Vec::new();
        for emit in Emit::host() {
            for len in 0..=ids.len() {
                let segment = &ids[..len];
                let rooms = [
                    Some(0),
                    len.checked_sub(1),
                    Some(len),
                    Some(len + 1),
                    Some(63),
                ];
                // `None`: no chunk drawn. Otherwise the tasks pushed first.
                let fronts = rooms
                    .iter()
                    .filter_map(|&room| room.and_then(|r| 64usize.checked_sub(r)))
                    .map(Some)
                    .chain([None, Some(65)]);
                for front in fronts {
                    for c in shares {
                        let chunks = |emit: Emit| {
                            let mut out = poisoned_emitter();
                            for v in 0..front.unwrap_or(0) {
                                out.push(1, PrTask::Relax(v as u32));
                            }
                            emit.remote(&mut out, 1, segment, c);
                            let shape: Vec<(usize, usize, Vec<u64>)> = out
                                .run_chunks(1)
                                .map(|chunk| {
                                    let words = chunk.iter().map(|&t| word(t)).collect();
                                    (chunk.len(), chunk.capacity(), words)
                                })
                                .collect();
                            shape
                        };
                        let (got, want) = (chunks(emit), chunks(Emit::Plain));
                        let at = format!("{emit:?}: {len} ids after {front:?} tasks, share {c:e}");
                        let lens = |run: &[(usize, usize, Vec<u64>)]| -> Vec<(usize, usize)> {
                            run.iter().map(|&(len, cap, _)| (len, cap)).collect()
                        };
                        assert_eq!(
                            lens(&got),
                            lens(&want),
                            "{at}: chunks differ from the plain emit"
                        );
                        assert!(got == want, "{at}: tasks differ from the plain emit");
                    }
                }
            }
            ran.push(emit);
        }
        assert_eq!(ran.last(), Some(&Emit::Plain));
        println!("emit compilations checked against the plain path: {ran:?}");
    }

    /// Whole runs under every compilation of the remote emit this host
    /// runs: Tiny scale-free, dense and road graphs on `Partition::{block,
    /// random, bfs_grow}` over 4 PEs, NVLink persistent and IB aggregated,
    /// at ε = 1e-4 (a debug build pays for every relaxation). `RunStats`
    /// must be equal to the plain emit's by `Debug`, and `rank` bit for bit.
    #[test]
    fn whole_runs_are_the_same_under_every_emit() {
        for name in ["soc-LiveJournal1_s", "hollywood_2009_s", "road_usa_s"] {
            let g = Arc::new(Preset::by_name(name).unwrap().build(Scale::Tiny));
            let n = g.n_vertices();
            let parts = [
                ("block", Partition::block(n, 4)),
                ("random", Partition::random(n, 4, 7)),
                ("bfs_grow", Partition::bfs_grow(&g, 4, 7)),
            ];
            for (part_name, part) in parts {
                let part = Arc::new(part);
                let setups = [
                    (Fabric::daisy(4), AtosConfig::standard_persistent()),
                    (Fabric::ib_cluster(4), AtosConfig::ib_pagerank()),
                ];
                for (fabric, cfg) in setups {
                    let run = |emit: Emit| {
                        let mut app = PageRankApp::new(g.clone(), part.clone(), ALPHA, 1e-4);
                        app.emit = emit;
                        let run = run_app(app, &part, fabric.clone(), cfg);
                        let rank: Vec<u64> = run.rank.iter().map(|r| r.to_bits()).collect();
                        (format!("{:?}", run.stats), rank)
                    };
                    let want = run(Emit::Plain);
                    for emit in Emit::host().filter(|&emit| emit != Emit::Plain) {
                        let at = format!("{emit:?}: {name}, {part_name}, {}", fabric.name());
                        let got = run(emit);
                        assert_eq!(got.0, want.0, "{at}: RunStats differ from the plain emit");
                        assert!(got.1 == want.1, "{at}: rank differs from the plain emit");
                    }
                }
            }
        }
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
