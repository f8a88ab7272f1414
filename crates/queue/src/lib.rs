//! Lock-free concurrent queues reproducing Section III-A.2 of *Scalable
//! Irregular Parallelism with GPUs: Getting CPUs Out of the Way* (SC 2022).
//!
//! The paper's central data structure is a FIFO queue that lets hundreds of
//! thousands of GPU workers push and pop concurrently *without* kernel-level
//! synchronization. Its key ideas translate directly to host atomics:
//!
//! * **Counter-based publication** instead of per-item ready flags: all slots
//!   below a single `end` counter are valid, so consumers discover new work
//!   with one atomic load (a "broadcast") rather than polling one flag per
//!   item. [`counter::CounterQueue`] implements the paper's Listing 6
//!   protocol with `end`, `end_alloc`, `end_max`, and `end_count` counters.
//! * **`fetch_add` instead of compare-and-swap** for reservations, because
//!   CAS failure probability rises steeply with contention.
//!   [`cas::CasQueue`] is the paper's own CAS-based comparison point.
//! * **Group (warp/CTA) reservation**: a worker computes the total number of
//!   push/pop requests for all of its lanes first, and only the leader issues
//!   the atomic. On the host, a group push of `G` items is one reservation
//!   plus `G` plain writes.
//! * **Cache-line padding** of the counters so the atomics on `start`, `end`,
//!   `end_alloc`, `end_max`, and `end_count` never false-share.
//!
//! [`broker::BrokerQueue`] reimplements the flag-per-slot design of Kerbl et
//! al.'s broker queue, the paper's main published comparison.
//!
//! All queues here are *arena* queues: storage indices grow monotonically and
//! slots are never reused until [`reset`](counter::CounterQueue::reset). This
//! matches the paper's usage — its queue `init` takes `local_cap` /
//! `recv_cap` sized for the whole computation — and removes ABA and
//! wrap-around hazards from the concurrency argument.
//!
//! # Example
//!
//! ```
//! use atos_queue::counter::{CounterQueue, PopHandle};
//!
//! let q: CounterQueue<u32> = CounterQueue::with_capacity(1024);
//! q.push_group(&[1, 2, 3, 4]).unwrap();
//!
//! let mut h = PopHandle::new();
//! let mut out = Vec::new();
//! let got = q.pop_group(&mut h, 4, &mut out);
//! assert_eq!(got, 4);
//! assert_eq!(out, vec![1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

include!("hot.rs");

/// Run `f` where it cannot unwind: inside an out-of-line `extern "C"`
/// call, so a panic in it prints its message and aborts. The queues use it
/// for a `Vec`'s growth and the idle worker's yield and park, which fail
/// only on capacity overflow, allocation failure or a broken OS thread;
/// the same trampoline as `atos_sim::nounwind`, which this crate does not
/// depend on (DESIGN.md §7).
#[inline(always)]
pub(crate) fn nounwind<R>(f: impl FnOnce() -> R) -> R {
    #[inline(never)]
    extern "C" fn call<R, F: FnOnce() -> R>(f: F) -> R {
        f()
    }
    call(f)
}

pub mod bench_harness;
pub mod broker;
pub mod cas;
pub mod counter;
pub mod padded;
pub mod stats;
pub mod sync;

pub use stats::ContentionSnapshot;

/// Error returned when a push would exceed the queue's fixed arena capacity.
///
/// The Atos model sizes queues up front (`local_cap`, `recv_cap`) so overflow
/// indicates a mis-sized queue, not a transient condition: once reservations
/// pass the arena end the queue stays saturated until `reset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Arena capacity of the queue that rejected the push.
    pub capacity: usize,
}

impl core::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "queue arena capacity {} exhausted", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// Common interface over the three queue families so the Figure 1 benchmark
/// harness can drive them uniformly.
///
/// `G` is the group ("worker") size: how many items one reservation covers.
/// Implementations with native group support perform one atomic reservation
/// per group; per-item designs (the broker queue) loop.
pub trait ConcurrentQueue<T: Copy + Send>: Sync {
    /// Push `items` as one worker-group operation.
    fn push_group(&self, items: &[T]) -> Result<(), QueueFull>;

    /// Pop up to `max` items as one worker-group operation, appending to
    /// `out`. Returns the number of items obtained (0 = queue looked empty).
    fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize;

    /// Number of published-but-unclaimed items (approximate under
    /// concurrency; exact when quiescent).
    fn len(&self) -> usize;

    /// Whether the queue currently looks empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-worker pop state.
///
/// The counter queue's `fetch_add`-based pop reserves a *claim* of indices
/// that may momentarily run ahead of the published `end`; the claim is held
/// here and drained on later calls, which is exactly how a persistent-kernel
/// GPU worker re-polls the queue each scheduler loop. Designs without claims
/// ignore this state.
#[derive(Debug, Default, Clone)]
pub struct PopState {
    pub(crate) claim_lo: u64,
    pub(crate) claim_hi: u64,
    pub(crate) cursor: u64,
}

impl PopState {
    /// Fresh state with no outstanding claim.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop the outstanding claim.
    ///
    /// Only sound at termination: the caller must guarantee no further items
    /// will be published into the claimed range (i.e. the queue's publication
    /// frontier has reached its final value at or below the claim), otherwise
    /// items later published there would be stranded — claims are disjoint,
    /// so no other worker can ever consume them.
    pub fn abandon(&mut self) {
        self.claim_lo = self.cursor;
        self.claim_hi = self.cursor;
    }
}
