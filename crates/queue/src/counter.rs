//! The Atos counter-based concurrent queue (paper Listing 6).
//!
//! # Protocol
//!
//! Five monotone counters coordinate concurrent group pushes and pops over a
//! fixed arena of slots:
//!
//! * `end_alloc` — push reservation cursor. A group push of `n` items does
//!   one `fetch_add(n)`; the returned index is the group's private range.
//! * `end_max` — high-water mark of *completed* group writes
//!   (`fetch_max(idx + n)` after the slot writes).
//! * `end_count` — total number of items whose writes have completed
//!   (`fetch_add(n)` after updating `end_max`).
//! * `end` — publication frontier: every slot `< end` is fully written and
//!   safe to read. Advanced to `end_max` by whichever group observes
//!   `end_count == end_max`, i.e. the moment completed writes exactly tile
//!   the prefix `[0, end_max)`.
//! * `start` — pop reservation cursor (`fetch_add`, never CAS).
//!
//! Consumers learn about any amount of new work from a single `Acquire` load
//! of `end` — the "counter broadcast" the paper contrasts with per-item flag
//! polling (see [`crate::broker`]).
//!
//! # Why `end` only moves when `end_count == end_max`
//!
//! Completed group ranges are disjoint subranges of `[0, end_alloc)`. Their
//! total size (`end_count`) equals their maximum upper bound (`end_max`) if
//! and only if they exactly tile `[0, end_max)` with no unwritten hole, so
//! the check is both safe (never exposes an unwritten slot) and live (the
//! last writer of any quiescent prefix observes equality and publishes).
//!
//! One deliberate difference from the CUDA listing: the listing reads
//! `end_max` twice (once in the comparison, once inside `atomicMax`). Between
//! those reads another group touching a *higher* range can bump `end_max`
//! while a middle range is still unwritten, publishing a hole. We read
//! `end_max` once into a local and publish that snapshot, which the tiling
//! argument proves safe.
//!
//! # Pop claims
//!
//! Pops reserve with `fetch_add` on `start`, bounded by an optimistic read of
//! `end - start`. Because another pop can race in between, a reservation may
//! overshoot `end`; the overshot *claim* is retained in the caller's
//! [`PopState`] and drained on subsequent calls once publication catches up
//! (a persistent-kernel worker re-polls every scheduler iteration, so this is
//! the natural shape). Claims are disjoint by monotonicity of `fetch_add`, so
//! no slot is ever popped twice, and a claim is never abandoned while the
//! queue can still grow — the run loop only stops at global termination,
//! when `end` has reached its final value and unfilled claims provably refer
//! to indices that were never pushed.

use core::mem::MaybeUninit;

use crate::padded::Padded;
use crate::stats::{ContentionCounters, ContentionSnapshot};
use crate::sync::{AtomicU64, Ordering, UnsafeCell};
use crate::{ConcurrentQueue, PopState, QueueFull};

/// Re-export so `use atos_queue::counter::PopHandle` reads naturally in
/// examples; the state type is shared across queue families.
pub use crate::PopState as PopHandle;

/// MPMC FIFO arena queue with counter-based publication (paper Listing 6).
///
/// `T: Copy` mirrors the paper's queues of vertex ids; copies keep slot reads
/// free of drop obligations.
pub struct CounterQueue<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    start: Padded<AtomicU64>,
    end: Padded<AtomicU64>,
    end_alloc: Padded<AtomicU64>,
    end_max: Padded<AtomicU64>,
    end_count: Padded<AtomicU64>,
    counters: ContentionCounters,
}

// SAFETY: slots are plain memory; all cross-thread slot access is mediated by
// the counter protocol (writes happen in a privately reserved range before
// publication; reads happen in a privately claimed range after an Acquire
// load of `end` that synchronizes with the publishing `fetch_max`).
unsafe impl<T: Copy + Send> Sync for CounterQueue<T> {}
// SAFETY: the queue owns its `T: Send` slot values; moving it moves them.
unsafe impl<T: Copy + Send> Send for CounterQueue<T> {}

impl<T: Copy + Send> CounterQueue<T> {
    /// Create a queue with a fixed arena of `capacity` slots.
    ///
    /// Capacity bounds the *total* number of items pushed between
    /// [`reset`](Self::reset)s, exactly like the paper's `local_cap` /
    /// `recv_cap` init parameters.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            slots,
            start: Padded::new(AtomicU64::new(0)),
            end: Padded::new(AtomicU64::new(0)),
            end_alloc: Padded::new(AtomicU64::new(0)),
            end_max: Padded::new(AtomicU64::new(0)),
            end_count: Padded::new(AtomicU64::new(0)),
            counters: ContentionCounters::new(),
        }
    }

    /// Arena capacity (total pushes accepted before `reset`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot at `idx`, without the bounds check. A bounds panic inside
    /// the push/pop protocol would strand a published reservation for
    /// every other thread, so protocol code proves its indices instead
    /// (`panic-in-kernel` lint).
    ///
    /// # Safety
    ///
    /// `idx < self.slots.len() as u64`.
    #[inline]
    unsafe fn slot(&self, idx: u64) -> &UnsafeCell<MaybeUninit<T>> {
        debug_assert!(idx < self.slots.len() as u64);
        // SAFETY: caller proves `idx` is within the arena.
        unsafe { self.slots.get_unchecked(idx as usize) }
    }

    /// Push a group of items with a single reservation (the host analog of
    /// `push_warp`/`push_cta`: leader does one `atomicAdd`, lanes write).
    // atos-lint: hot(no-index)
    pub fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        if items.is_empty() {
            return Ok(());
        }
        let n = items.len() as u64;
        // Leader reservation. Monotone: a failed (overflowing) reservation is
        // not rolled back — rollback would let ranges be re-issued and break
        // the disjointness invariant. The queue saturates instead.
        let idx = self.end_alloc.fetch_add(n, Ordering::Relaxed);
        if idx + n > self.slots.len() as u64 {
            return Err(QueueFull {
                capacity: self.slots.len(),
            });
        }
        // Lane writes into the privately reserved range.
        for (i, &item) in items.iter().enumerate() {
            // SAFETY: `[idx, idx+n)` is exclusively ours (disjoint
            // reservations off the monotone `end_alloc`) and below capacity
            // (checked above); no reader sees the slot until this write is
            // sequenced before the AcqRel `fetch_max`/`fetch_add`
            // publication chain below and a popper Acquire-loads `end`
            // (checker-verified edge).
            let slot = unsafe { self.slot(idx + i as u64) };
            // SAFETY: `p` is the slot reserved above; the write initializes it.
            slot.with_mut(|p| unsafe { (*p).write(item) });
        }
        // Completion bookkeeping. The Release in these RMWs orders the slot
        // writes before publication; poppers Acquire `end`.
        self.end_max.fetch_max(idx + n, Ordering::AcqRel);
        let prev = self.end_count.fetch_add(n, Ordering::AcqRel);
        let m = self.end_max.load(Ordering::Acquire);
        if prev + n == m {
            self.end.fetch_max(m, Ordering::AcqRel);
        }
        // Observability only (off the counter-protocol cache lines): how
        // full did the queue get after this push. Compiled out under the
        // model checker — these loads carry no synchronization and would
        // only multiply the explored state space.
        #[cfg(not(atos_check))]
        {
            let e = self.end.load(Ordering::Relaxed);
            let s = self.start.load(Ordering::Relaxed);
            self.counters.raise_occupancy(e.saturating_sub(s));
        }
        Ok(())
    }

    /// Push one item (thread-sized worker).
    // atos-lint: hot(no-index)
    pub fn push(&self, item: T) -> Result<(), QueueFull> {
        self.push_group(core::slice::from_ref(&item))
    }

    /// Pop up to `max` items as one group reservation, appending to `out`.
    ///
    /// Returns how many items were produced. `0` means the queue *looked*
    /// empty (the scheduler's `f2` path); an outstanding claim in `state` may
    /// still fill on a later call once publication advances.
    // atos-lint: hot(no-index)
    pub fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let mut produced = 0usize;

        // Drain any previously claimed, now-published indices first.
        produced += self.drain_claim(state, max, out);
        if produced == max {
            return produced;
        }

        if state.cursor == state.claim_hi {
            // No outstanding claim: make a new reservation bounded by the
            // optimistic availability estimate (one `end` broadcast).
            let e = self.end.load(Ordering::Acquire);
            let s = self.start.load(Ordering::Relaxed);
            if e <= s {
                return produced;
            }
            let want = ((max - produced) as u64).min(e - s);
            let old = self.start.fetch_add(want, Ordering::Relaxed);
            if old + want > e {
                // Racing poppers moved `start` past our availability
                // estimate: part of this claim waits for publication.
                self.counters.add_reservation_conflict();
            }
            state.claim_lo = old;
            state.cursor = old;
            state.claim_hi = old + want;
            produced += self.drain_claim(state, max - produced, out);
        }
        produced
    }

    /// Pop a single item if one is available to this worker right now.
    pub fn pop(&self, state: &mut PopState) -> Option<T> {
        let mut buf = Vec::with_capacity(1);
        if self.pop_group(state, 1, &mut buf) == 1 {
            Some(buf[0])
        } else {
            None
        }
    }

    // atos-lint: hot(no-index)
    fn drain_claim(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        if state.cursor == state.claim_hi {
            return 0;
        }
        let e = self.end.load(Ordering::Acquire);
        let hi = state.claim_hi.min(e);
        let take = (hi.saturating_sub(state.cursor)).min(max as u64);
        for i in 0..take {
            // SAFETY: `cursor + i < end <= capacity` (`end` only advances
            // over successful, capacity-checked reservations), and the
            // Acquire load of `end` above synchronizes with the publisher's
            // AcqRel `fetch_max` on `end`, which in turn is ordered after
            // the AcqRel completion RMWs and the slot writes — so the slot
            // is fully written and visible. The claim range
            // `[claim_lo, claim_hi)` is exclusively ours by monotonicity of
            // `start.fetch_add` (checker-verified).
            let slot = unsafe { self.slot(state.cursor + i) };
            // SAFETY: the slot claimed above is published, so it is initialized.
            let v = slot.with(|p| unsafe { (*p).assume_init() });
            out.push(v);
        }
        state.cursor += take;
        take as usize
    }

    /// Number of published-but-unreserved items. Exact when quiescent.
    pub fn len(&self) -> usize {
        let e = self.end.load(Ordering::Acquire);
        let s = self.start.load(Ordering::Relaxed);
        e.saturating_sub(s) as usize
    }

    /// Whether the queue currently looks empty to a new popper.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publication frontier (diagnostics / tests).
    pub fn published(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    /// Reset the queue for a new epoch. Exclusive access makes this race-free.
    /// Contention counters are *not* reset: they are lifetime totals.
    pub fn reset(&mut self) {
        *self.start.get_mut() = 0;
        *self.end.get_mut() = 0;
        *self.end_alloc.get_mut() = 0;
        *self.end_max.get_mut() = 0;
        *self.end_count.get_mut() = 0;
    }

    /// Lifetime contention totals for this queue (reservation conflicts
    /// and occupancy high-water; `cas_retries` stays 0 — this family has
    /// no CAS loop, which is its whole point).
    pub fn contention(&self) -> ContentionSnapshot {
        self.counters.snapshot()
    }
}

impl<T: Copy + Send> ConcurrentQueue<T> for CounterQueue<T> {
    // atos-lint: hot(no-index)
    fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        CounterQueue::push_group(self, items)
    }
    // atos-lint: hot(no-index)
    fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        CounterQueue::pop_group(self, state, max, out)
    }
    fn len(&self) -> usize {
        CounterQueue::len(self)
    }
}

impl<T> core::fmt::Debug for CounterQueue<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CounterQueue")
            .field("capacity", &self.slots.len())
            .field("start", &self.start.load(Ordering::Relaxed))
            .field("end", &self.end.load(Ordering::Relaxed))
            .field("end_alloc", &self.end_alloc.load(Ordering::Relaxed))
            .field("end_max", &self.end_max.load(Ordering::Relaxed))
            .field("end_count", &self.end_count.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::AtomicUsize;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q = CounterQueue::with_capacity(16);
        q.push_group(&[1u32, 2, 3]).unwrap();
        let mut h = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut h, 2, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.pop(&mut h), Some(3));
        assert_eq!(q.pop(&mut h), None);
    }

    #[test]
    fn empty_pop_returns_zero() {
        let q: CounterQueue<u64> = CounterQueue::with_capacity(8);
        let mut h = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut h, 4, &mut out), 0);
        assert!(out.is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_reports_queue_full() {
        let q = CounterQueue::with_capacity(4);
        q.push_group(&[1u8, 2, 3]).unwrap();
        assert_eq!(q.push_group(&[4, 5]), Err(QueueFull { capacity: 4 }));
        // Queue stays usable for the already-published prefix.
        let mut h = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut h, 8, &mut out), 3);
    }

    #[test]
    fn saturated_queue_rejects_all_later_pushes() {
        let q = CounterQueue::with_capacity(2);
        q.push(7u32).unwrap();
        assert!(q.push_group(&[8, 9]).is_err());
        // A 1-item push would fit the remaining slot arithmetically, but the
        // failed reservation above already consumed index space (monotone
        // cursor, no rollback).
        assert!(q.push(10).is_err());
    }

    #[test]
    fn reset_recycles_arena() {
        let mut q = CounterQueue::with_capacity(2);
        q.push_group(&[1u8, 2]).unwrap();
        assert!(q.push(3).is_err());
        q.reset();
        q.push_group(&[4, 5]).unwrap();
        let mut h = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut h, 2, &mut out), 2);
        assert_eq!(out, vec![4, 5]);
    }

    #[test]
    fn pop_handle_drains_claim_across_calls() {
        let q = CounterQueue::with_capacity(64);
        q.push_group(&[1u32, 2, 3, 4, 5, 6]).unwrap();
        let mut h = PopState::new();
        let mut out = Vec::new();
        // Ask for more than we consume per call.
        assert_eq!(q.pop_group(&mut h, 4, &mut out), 4);
        assert_eq!(q.pop_group(&mut h, 4, &mut out), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn contention_counters_track_occupancy_and_conflicts() {
        let q = CounterQueue::with_capacity(64);
        q.push_group(&[1u32, 2, 3, 4, 5]).unwrap();
        let s = q.contention();
        assert_eq!(s.occupancy_hwm, 5);
        assert_eq!(s.cas_retries, 0, "counter queue has no CAS loop");
        assert_eq!(
            s.reservation_conflicts, 0,
            "single-threaded pops never overshoot"
        );
        let mut h = PopState::new();
        let mut out = Vec::new();
        q.pop_group(&mut h, 5, &mut out);
        q.push_group(&[6, 7]).unwrap();
        // High-water mark is sticky even though occupancy dropped.
        assert_eq!(q.contention().occupancy_hwm, 5);
    }

    #[test]
    fn concurrent_push_publishes_everything() {
        let threads = 8;
        let per = 1000;
        let q = Arc::new(CounterQueue::with_capacity(threads * per));
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per / 4 {
                        let base = (t * per + i * 4) as u64;
                        q.push_group(&[base, base + 1, base + 2, base + 3]).unwrap();
                    }
                });
            }
        });
        assert_eq!(q.published(), (threads * per) as u64);
        let mut h = PopState::new();
        let mut out = Vec::new();
        while q.pop_group(&mut h, 128, &mut out) > 0 {}
        assert_eq!(out.len(), threads * per);
        let set: HashSet<u64> = out.iter().copied().collect();
        assert_eq!(set.len(), threads * per, "duplicate or lost items");
    }

    #[test]
    fn concurrent_pop_yields_each_item_once() {
        let n = 20_000u64;
        let q = Arc::new(CounterQueue::with_capacity(n as usize));
        let chunk: Vec<u64> = (0..n).collect();
        for c in chunk.chunks(64) {
            q.push_group(c).unwrap();
        }
        let threads = 8;
        let total = Arc::new(AtomicUsize::new(0));
        let mut all: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let q = Arc::clone(&q);
                let total = Arc::clone(&total);
                handles.push(s.spawn(move || {
                    let mut h = PopState::new();
                    let mut mine = Vec::new();
                    loop {
                        let got = q.pop_group(&mut h, 33, &mut mine);
                        if got == 0 {
                            // Pre-filled queue: `end` is final, so a zero
                            // return means our claim can never fill again.
                            h.abandon();
                            break;
                        }
                        total.fetch_add(got, Ordering::Relaxed);
                    }
                    mine
                }));
            }
            for hnd in handles {
                all.push(hnd.join().unwrap());
            }
        });
        let mut seen: Vec<u64> = all.into_iter().flatten().collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..n).collect();
        assert_eq!(seen, expect, "every item popped exactly once");
    }

    #[test]
    fn concurrent_push_and_pop_conserves_items() {
        let producers = 4;
        let consumers = 4;
        let per = 5_000usize;
        let q = Arc::new(CounterQueue::with_capacity(producers * per));
        let mut harvested: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            for t in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per {
                        q.push((t * per + i) as u64).unwrap();
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..consumers {
                let q = Arc::clone(&q);
                handles.push(s.spawn(move || {
                    let mut h = PopState::new();
                    let mut mine: Vec<u64> = Vec::new();
                    let goal = (producers * per) as u64;
                    loop {
                        let got = q.pop_group(&mut h, 17, &mut mine);
                        if got == 0 {
                            // Only stop once every produced item has been
                            // *published* — claims can then never refill.
                            if q.published() == goal {
                                h.abandon();
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                    mine
                }));
            }
            for hnd in handles {
                harvested.push(hnd.join().unwrap());
            }
        });
        let mut seen: Vec<u64> = harvested.into_iter().flatten().collect();
        seen.sort_unstable();
        seen.dedup();
        // No duplicates (dedup is a no-op on unique data) and no losses
        // except items stranded in abandoned claims, which cannot happen
        // here because consumers only stop when the queue is fully drained.
        assert_eq!(seen.len(), producers * per);
    }

    #[test]
    fn publication_never_exposes_unwritten_slots() {
        // Writers push marked values; a reader continuously validates that
        // everything below `end` reads back as a written marker.
        let q = Arc::new(CounterQueue::with_capacity(100_000));
        let writers = 6;
        let per_writer = 10_000;
        std::thread::scope(|s| {
            for _ in 0..writers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let group = [0xDEAD_BEEFu64; 5];
                    for _ in 0..per_writer / 5 {
                        q.push_group(&group).unwrap();
                    }
                });
            }
            let qv = Arc::clone(&q);
            s.spawn(move || {
                let mut h = PopState::new();
                let mut out = Vec::new();
                let goal = writers * per_writer;
                let mut got = 0;
                while got < goal {
                    let n = qv.pop_group(&mut h, 64, &mut out);
                    got += n;
                    for &v in &out[out.len() - n..] {
                        assert_eq!(v, 0xDEAD_BEEF, "unpublished slot leaked");
                    }
                }
            });
        });
    }
}
