//! Compare-and-swap reservation queue — the paper's own baseline.
//!
//! Identical storage and publication protocol to [`crate::counter`] (so the
//! comparison isolates exactly one variable), but every cursor movement uses
//! a CAS retry loop instead of `fetch_add`. The paper: "our choice of an
//! `atomicAdd` synchronization primitive instead of `atomicCAS` enables
//! higher performance under high-contention concurrent popping, as CAS
//! failure probability increases significantly with increasing contention."
//!
//! Like the paper's CAS queue (footnote 1), this implementation still uses
//! the group-leader ("warp intrinsic") optimization: one CAS loop per group,
//! not per item, so the measured gap is add-vs-CAS, not grouping.

#![expect(
    unsafe_code,
    reason = "the ring slots are UnsafeCell<MaybeUninit<T>> written and read under the queue's claims"
)]

use core::mem::MaybeUninit;

use crate::padded::Padded;
use crate::stats::{ContentionCounters, ContentionSnapshot};
use crate::sync::{AtomicU64, Ordering, UnsafeCell};
use crate::{ConcurrentQueue, PopState, QueueFull};

/// MPMC FIFO arena queue with CAS-based reservations.
pub struct CasQueue<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    start: Padded<AtomicU64>,
    end: Padded<AtomicU64>,
    end_alloc: Padded<AtomicU64>,
    end_max: Padded<AtomicU64>,
    end_count: Padded<AtomicU64>,
    counters: ContentionCounters,
}

// SAFETY: same argument as CounterQueue — reservation ranges are exclusive,
// publication is Release/Acquire ordered through `end`.
unsafe impl<T: Copy + Send> Sync for CasQueue<T> {}
// SAFETY: the queue owns its `T: Send` slot values; moving it moves them.
unsafe impl<T: Copy + Send> Send for CasQueue<T> {}

impl<T: Copy + Send> CasQueue<T> {
    /// Create a queue with a fixed arena of `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            start: Padded::new(AtomicU64::new(0)),
            end: Padded::new(AtomicU64::new(0)),
            end_alloc: Padded::new(AtomicU64::new(0)),
            end_max: Padded::new(AtomicU64::new(0)),
            end_count: Padded::new(AtomicU64::new(0)),
            counters: ContentionCounters::new(),
        }
    }

    /// Arena capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot at `idx`, without the bounds check — a bounds panic inside
    /// the protocol would strand a published reservation (and fail the
    /// no-unwind proof, DESIGN.md §7), so protocol code proves its indices
    /// instead.
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

    /// Push a group of items; the leader reserves with a CAS retry loop.
    pub fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        hot!(push_group, {
            if items.is_empty() {
                return Ok(());
            }
            let n = items.len() as u64;
            // Failed compare-exchange iterations across all four loops below,
            // tallied locally and added once so the instrumentation does not
            // itself contend (Fig. 1 measures these loops).
            let mut retries = 0u64;
            // CAS reservation loop (the contended operation under study).
            let mut idx = self.end_alloc.load(Ordering::Relaxed);
            loop {
                if idx + n > self.slots.len() as u64 {
                    self.counters.add_cas_retries(retries);
                    return Err(QueueFull {
                        capacity: self.slots.len(),
                    });
                }
                match self.end_alloc.compare_exchange_weak(
                    idx,
                    idx + n,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(cur) => {
                        retries += 1;
                        idx = cur;
                    }
                }
            }
            for (i, &item) in items.iter().enumerate() {
                // SAFETY: `[idx, idx+n)` exclusively reserved (successful CAS on
                // the monotone `end_alloc`), below capacity (checked in the
                // reservation loop); published to readers only through the
                // AcqRel CAS chain on `end_max`/`end_count`/`end` below
                // (checker-verified edge).
                let slot = unsafe { self.slot(idx + i as u64) };
                // SAFETY: `p` is the slot reserved above; the write initializes it.
                slot.with_mut(|p| unsafe { (*p).write(item) });
            }
            // Publication protocol shared with CounterQueue; end_max/end_count
            // also via CAS loops to keep the design pure.
            let mut cur = self.end_max.load(Ordering::Relaxed);
            while cur < idx + n {
                match self.end_max.compare_exchange_weak(
                    cur,
                    idx + n,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(c) => {
                        retries += 1;
                        cur = c;
                    }
                }
            }
            let mut cnt = self.end_count.load(Ordering::Relaxed);
            loop {
                match self.end_count.compare_exchange_weak(
                    cnt,
                    cnt + n,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(c) => {
                        retries += 1;
                        cnt = c;
                    }
                }
            }
            let m = self.end_max.load(Ordering::Acquire);
            if cnt + n == m {
                let mut e = self.end.load(Ordering::Relaxed);
                while e < m {
                    match self
                        .end
                        .compare_exchange_weak(e, m, Ordering::AcqRel, Ordering::Relaxed)
                    {
                        Ok(_) => break,
                        Err(c) => {
                            retries += 1;
                            e = c;
                        }
                    }
                }
            }
            self.counters.add_cas_retries(retries);
            // Observability only; compiled out under the model checker (no
            // synchronization role, would only multiply the state space).
            #[cfg(not(atos_check))]
            {
                let e = self.end.load(Ordering::Relaxed);
                let s = self.start.load(Ordering::Relaxed);
                self.counters.raise_occupancy(e.saturating_sub(s));
            }
            Ok(())
        })
    }

    /// Push one item.
    pub fn push(&self, item: T) -> Result<(), QueueFull> {
        hot!(push, { self.push_group(core::slice::from_ref(&item)) })
    }

    /// Pop up to `max` items with one CAS-reserved group claim.
    ///
    /// CAS lets the claim be bounded *exactly* by the published `end` (no
    /// overshoot), so no claim state persists; `_state` is accepted for
    /// interface parity.
    pub fn pop_group(&self, _state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        hot!(pop_group, {
            if max == 0 {
                return 0;
            }
            let mut retries = 0u64;
            loop {
                let s = self.start.load(Ordering::Relaxed);
                let e = self.end.load(Ordering::Acquire);
                if e <= s {
                    self.counters.add_cas_retries(retries);
                    return 0;
                }
                let take = (max as u64).min(e - s);
                // The *success* ordering here is deliberately Relaxed: `start`
                // guards no data, only claim disjointness, which the CAS gives
                // under any ordering (each value of `start` is won by exactly
                // one popper). The happens-before edge that makes the slot
                // reads below safe is the Acquire load of `end` above, which
                // synchronizes with the publisher's AcqRel advance of `end` —
                // `start` needs no release chain of its own because arena slots
                // are never reused, so no information ever flows back from
                // poppers to pushers through `start`. Model-checked by the
                // `cas_pop_reservation_relaxed_is_sound` suite, which fails when
                // the `end` load is weakened instead (a seeded twin of
                // `scripts/verify.sh`).
                if self
                    .start
                    .compare_exchange_weak(s, s + take, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
                {
                    retries += 1;
                    continue;
                }
                for i in 0..take {
                    // SAFETY: `s + i < e <= capacity` (`end` only advances over
                    // successful, capacity-checked reservations), and the
                    // Acquire load of `end` above synchronizes with the
                    // publishing AcqRel CAS on `end`, ordering the slot writes
                    // before these reads; the range is exclusively claimed by
                    // the successful CAS on `start` (checker-verified edge).
                    let slot = unsafe { self.slot(s + i) };
                    // SAFETY: the slot claimed above is published, so it is initialized.
                    let v = slot.with(|p| unsafe { (*p).assume_init() });
                    if out.len() == out.capacity() {
                        crate::nounwind(|| out.push(v));
                    } else {
                        out.push(v);
                    }
                }
                self.counters.add_cas_retries(retries);
                return take as usize;
            }
        })
    }

    /// Pop one item.
    pub fn pop(&self) -> Option<T> {
        let mut buf = Vec::with_capacity(1);
        let mut st = PopState::new();
        if self.pop_group(&mut st, 1, &mut buf) == 1 {
            Some(buf[0])
        } else {
            None
        }
    }

    /// Published-but-unclaimed item count.
    pub fn len(&self) -> usize {
        let e = self.end.load(Ordering::Acquire);
        let s = self.start.load(Ordering::Relaxed);
        e.saturating_sub(s) as usize
    }

    /// Whether the queue currently looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publication frontier (diagnostics / tests).
    pub fn published(&self) -> u64 {
        self.end.load(Ordering::Acquire)
    }

    /// Reset for a new epoch (exclusive access). Contention counters are
    /// lifetime totals and are not reset.
    pub fn reset(&mut self) {
        *self.start.get_mut() = 0;
        *self.end.get_mut() = 0;
        *self.end_alloc.get_mut() = 0;
        *self.end_max.get_mut() = 0;
        *self.end_count.get_mut() = 0;
    }

    /// Lifetime contention totals: CAS retry iterations and occupancy
    /// high-water (no reservation conflicts — CAS claims never overshoot).
    pub fn contention(&self) -> ContentionSnapshot {
        self.counters.snapshot()
    }
}

impl<T: Copy + Send> ConcurrentQueue<T> for CasQueue<T> {
    fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        hot!(push_group, { CasQueue::push_group(self, items) })
    }
    fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        hot!(pop_group, { CasQueue::pop_group(self, state, max, out) })
    }
    fn len(&self) -> usize {
        CasQueue::len(self)
    }
}

impl<T> core::fmt::Debug for CasQueue<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CasQueue")
            .field("capacity", &self.slots.len())
            .field("start", &self.start.load(Ordering::Relaxed))
            .field("end", &self.end.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q = CasQueue::with_capacity(8);
        q.push_group(&[1u32, 2, 3]).unwrap();
        let mut st = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut st, 2, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_detected_without_corruption() {
        let q = CasQueue::with_capacity(2);
        q.push_group(&[1u8, 2]).unwrap();
        assert!(q.push(3).is_err());
        // CAS reservation is not consumed on failure: a smaller push that
        // fits can still proceed after poppers drain... (arena: it cannot,
        // but the cursor was not inflated by the failed attempt).
        let mut st = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut st, 4, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn pop_never_exceeds_published() {
        let q = CasQueue::with_capacity(16);
        q.push_group(&[9u32; 5]).unwrap();
        let mut st = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut st, 100, &mut out), 5);
        assert_eq!(q.pop_group(&mut st, 100, &mut out), 0);
    }

    #[test]
    fn contention_counters_under_contention() {
        // Single-threaded: occupancy tracked, no retries possible.
        let q = CasQueue::with_capacity(16);
        q.push_group(&[1u32, 2, 3]).unwrap();
        assert_eq!(q.contention().occupancy_hwm, 3);
        assert_eq!(q.contention().cas_retries, 0);

        // Heavy multi-thread pushing: retries are *possible* (not certain
        // on any single run), so assert only that counting never loses the
        // occupancy signal and stays self-consistent.
        let per = 2_000;
        let threads = 8;
        let q = Arc::new(CasQueue::with_capacity(per * threads));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per as u64 {
                        q.push(i).unwrap();
                    }
                });
            }
        });
        let snap = q.contention();
        assert_eq!(snap.occupancy_hwm, (per * threads) as u64);
    }

    #[test]
    fn concurrent_push_pop_conserves() {
        let producers = 4;
        let per = 5_000;
        let q = Arc::new(CasQueue::with_capacity(producers * per));
        let mut all: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|s| {
            for t in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for chunk in (0..per as u64).collect::<Vec<_>>().chunks(32) {
                        let items: Vec<u64> = chunk.iter().map(|i| (t * per) as u64 + i).collect();
                        q.push_group(&items).unwrap();
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..4 {
                let q = Arc::clone(&q);
                handles.push(s.spawn(move || {
                    let mut st = PopState::new();
                    let mut mine = Vec::new();
                    let goal = (producers * per) as u64;
                    loop {
                        let got = q.pop_group(&mut st, 19, &mut mine);
                        if got == 0 {
                            if q.published() == goal && q.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                    mine
                }));
            }
            for h in handles {
                all.push(h.join().unwrap());
            }
        });
        let mut seen: Vec<u64> = all.into_iter().flatten().collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..(producers * per) as u64).collect();
        assert_eq!(seen, expect);
    }
}
