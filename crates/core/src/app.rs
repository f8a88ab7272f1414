//! The application interface: tasks, their processing function, and their
//! cost/priority annotations.
//!
//! This is the Rust rendering of the paper's framework API (Listing 4):
//! the application provides `f1` (process a popped task — [`Application::
//! process`]) and `f2` (what to do on pop failure — [`Application::
//! on_idle`]); the runtime owns popping, pushing, and communication.

use atos_graph::Lookahead;

use crate::emitter::Emitter;

/// Owner-computes witness: debug-assert that vertex `$v`'s owner under
/// `$partition` is the executing PE `$pe`.
///
/// This is the canonical guard for authoritative writes in
/// [`Application::on_receive`]: a task arriving from a remote PE may
/// only mutate owner-indexed state at indices the receiving PE owns (the
/// paper's one-sided `atomicMin` lands in the *owner's* memory). It is
/// a runtime check in debug builds, which is what `cargo test` and
/// `tests/differential.rs` run; a write that skips it is caught there by
/// its effect on the answers or on the pinned message counts.
#[macro_export]
macro_rules! assert_owner {
    ($partition:expr, $v:expr, $pe:expr) => {
        debug_assert_eq!(
            ($partition).owner($v),
            $pe,
            "owner-computes violation: vertex not owned by this PE"
        )
    };
}

/// What a PE's idle handler did (the `f2` path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleOutcome {
    /// Nothing to add; the PE may go idle.
    Quiescent,
    /// New work was emitted; keep scheduling.
    Refilled,
}

/// An Atos application: defines the task type, how tasks are processed,
/// and the annotations (cost, priority, size) the runtime needs.
pub trait Application {
    /// The unit of work flowing through the distributed queues. `Copy`
    /// mirrors the paper's queues of plain vertex ids / id+payload tuples.
    type Task: Copy + Send + std::fmt::Debug;

    /// Process one popped task on PE `pe` (the paper's `f1`), emitting new
    /// tasks. Runs inside the simulated kernel; mutating real application
    /// state here is what makes runs checkable.
    ///
    /// Emit per task with `out.push(owner, task)`, or — when the tasks for
    /// one remote PE are known together, as with an owner-grouped
    /// adjacency — as a run, `out.extend_remote(owner, tasks)`: the
    /// runtime moves remote tasks per destination either way, and a run
    /// skips the per-task routing and is written into its chunks in bulk.
    fn process(&mut self, pe: usize, task: Self::Task, out: &mut Emitter<Self::Task>);

    /// Announcement that `task` is about to be processed in this step: the
    /// runtime executes a popped batch as a software pipeline and calls this
    /// a fixed number of positions before the task's [`Application::process`]
    /// — once with [`Lookahead::Far`], then, closer, with [`Lookahead::Near`]
    /// — so the application can hint the cache lines the task will start
    /// on (the paper's GPUs overlap those misses in hardware; a task loop
    /// on a CPU has to ask).
    ///
    /// `Far` may assume nothing is cached: touch what *locates* the task's
    /// data (a row's index entry) and the task's own state. `Near` may
    /// assume the `Far` lines have arrived: read the index entry and touch
    /// what it points at. Tasks near the head of a batch receive only
    /// `Near`, or no announcement at all, so neither may be relied on.
    ///
    /// It must be observably inert — `&self`, no interior mutation that
    /// `process`, `on_receive` or any answer can see: the schedule, every
    /// statistic and every result are identical with this body empty, which
    /// is the default (`crates/core/tests/prefetch_contract.rs`). Hints go
    /// through `atos_graph::prefetch::prefetch` and the structures'
    /// `prefetch` methods, which never panic: an override says so itself
    /// with `#[atos_hot(no_index)]` (`get`, never `[..]`; no `unwrap`, no
    /// allocation — `atos-lint` holds it to that).
    #[inline]
    fn prefetch(&self, _task: &Self::Task, _ahead: Lookahead) {}

    /// Apply a task arriving from a remote PE *before* it is enqueued:
    /// this is where one-sided remote updates (the paper's RDMA
    /// `atomicMin`) take effect. Return `Some(task)` to enqueue work at
    /// the destination, `None` to drop it (e.g. the remote atomic did not
    /// improve the value, or a PageRank contribution did not cross the
    /// threshold).
    fn on_receive(&mut self, pe: usize, task: Self::Task) -> Option<Self::Task>;

    /// Apply one message's tasks, in emission order, pushing what
    /// [`Application::on_receive`] would have returned onto `keep` in that
    /// order. This is what the runtime calls — a message is a contiguous
    /// range of the receive queue, as it is on the hardware. The default is
    /// the per-task loop, which monomorphizes with `on_receive` inlined;
    /// override it only where a run can do what the loop cannot. PageRank
    /// does: whether a contribution is kept is as good as random, so instead
    /// of branching per task it stores every candidate at a cursor into
    /// `keep` and advances the cursor only for the kept ones, which needs
    /// the run's length up front (DESIGN.md §4.10). An override must stay
    /// equal to the per-task loop: a wrapper that forwards only `on_receive`
    /// (the repo benchmark's `Timed`) gets this default, and its runs must
    /// not differ (`crates/core/tests/prefetch_contract.rs`).
    fn on_receive_run(&mut self, pe: usize, run: &[Self::Task], keep: &mut Vec<Self::Task>) {
        for &task in run {
            keep.extend(self.on_receive(pe, task));
        }
    }

    /// Pop-failure handler (the paper's `f2`, default noop). May emit new
    /// work (e.g. PageRank's rescan for unconverged vertices).
    fn on_idle(&mut self, _pe: usize, _out: &mut Emitter<Self::Task>) -> IdleOutcome {
        IdleOutcome::Quiescent
    }

    /// Priority bucket of a task (lower = sooner). Only consulted by
    /// priority-queue configurations.
    fn priority(&self, _task: &Self::Task) -> u32 {
        0
    }

    /// Edges (cost-model work units) this task will expand.
    fn task_edges(&self, task: &Self::Task) -> u64;

    /// Serialized size of one task on the wire, bytes.
    fn task_bytes(&self) -> u64 {
        8
    }

    /// Whether the computation's global state has converged (diagnostic;
    /// termination itself is queue emptiness).
    fn converged(&self) -> bool {
        true
    }
}
