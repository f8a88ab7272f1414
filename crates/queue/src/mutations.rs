// lint:skip-file — this module exists to carry deliberately seeded bugs.
//! Mutation twins: deliberately broken queue variants that validate the
//! model checker.
//!
//! Each twin reproduces the real protocol from [`crate::counter`] /
//! [`crate::cas`] with exactly one weakened step, marked `BUG (mutation N)`.
//! The `atos-check` mutation suite asserts that the checker reports a
//! failure (data race, uninitialized read, or assertion) with a
//! deterministic, replayable schedule for every twin, while the unmutated
//! queues pass the same drivers. Compiled only under `--cfg atos_check`;
//! never part of a production build.

use core::mem::MaybeUninit;

use crate::sync::{AtomicU64, Ordering, UnsafeCell};
use crate::{PopState, QueueFull};

/// Mutation 1: the counter queue with its publication chain
/// (`end_max`/`end_count`/`end`, the `AcqRel` RMWs in
/// `counter.rs`) weakened to `Relaxed`. Nothing releases the slot writes,
/// so a popper's slot read races with the pusher's slot write even though
/// it Acquire-loads `end`.
pub struct CounterQueueRelaxedPub<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    start: AtomicU64,
    end: AtomicU64,
    end_alloc: AtomicU64,
    end_max: AtomicU64,
    end_count: AtomicU64,
}

unsafe impl<T: Copy + Send> Sync for CounterQueueRelaxedPub<T> {}
unsafe impl<T: Copy + Send> Send for CounterQueueRelaxedPub<T> {}

impl<T: Copy + Send> CounterQueueRelaxedPub<T> {
    /// Fixed-arena constructor (mirrors `CounterQueue::with_capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            end_alloc: AtomicU64::new(0),
            end_max: AtomicU64::new(0),
            end_count: AtomicU64::new(0),
        }
    }

    /// `CounterQueue::push_group` with the publication orderings weakened.
    pub fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        if items.is_empty() {
            return Ok(());
        }
        let n = items.len() as u64;
        let idx = self.end_alloc.fetch_add(n, Ordering::Relaxed);
        if idx + n > self.slots.len() as u64 {
            return Err(QueueFull {
                capacity: self.slots.len(),
            });
        }
        for (i, &item) in items.iter().enumerate() {
            self.slots[(idx + i as u64) as usize].with_mut(|p| unsafe { (*p).write(item) });
        }
        // BUG (mutation 1): AcqRel weakened to Relaxed — no release edge
        // orders the slot writes before publication.
        self.end_max.fetch_max(idx + n, Ordering::Relaxed);
        let prev = self.end_count.fetch_add(n, Ordering::Relaxed);
        let m = self.end_max.load(Ordering::Relaxed);
        if prev + n == m {
            self.end.fetch_max(m, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Unmodified pop side (identical to `CounterQueue::pop_group`).
    pub fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        pop_group_counter_protocol(
            &self.slots,
            &self.start,
            &self.end,
            state,
            max,
            out,
        )
    }
}

/// Mutation 2: the counter queue with the CUDA listing's *double read* of
/// `end_max` restored. The correct code snapshots `end_max` once and
/// publishes that snapshot; re-reading it inside the publication lets a
/// racing group bump `end_max` over a still-unwritten middle range, so
/// `end` publishes a hole.
pub struct CounterQueueHolePub<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    start: AtomicU64,
    end: AtomicU64,
    end_alloc: AtomicU64,
    end_max: AtomicU64,
    end_count: AtomicU64,
}

unsafe impl<T: Copy + Send> Sync for CounterQueueHolePub<T> {}
unsafe impl<T: Copy + Send> Send for CounterQueueHolePub<T> {}

impl<T: Copy + Send> CounterQueueHolePub<T> {
    /// Fixed-arena constructor (mirrors `CounterQueue::with_capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            end_alloc: AtomicU64::new(0),
            end_max: AtomicU64::new(0),
            end_count: AtomicU64::new(0),
        }
    }

    /// `CounterQueue::push_group` with the `end_max` snapshot dropped.
    pub fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        if items.is_empty() {
            return Ok(());
        }
        let n = items.len() as u64;
        let idx = self.end_alloc.fetch_add(n, Ordering::Relaxed);
        if idx + n > self.slots.len() as u64 {
            return Err(QueueFull {
                capacity: self.slots.len(),
            });
        }
        for (i, &item) in items.iter().enumerate() {
            self.slots[(idx + i as u64) as usize].with_mut(|p| unsafe { (*p).write(item) });
        }
        self.end_max.fetch_max(idx + n, Ordering::AcqRel);
        let prev = self.end_count.fetch_add(n, Ordering::AcqRel);
        let m = self.end_max.load(Ordering::Acquire);
        if prev + n == m {
            // BUG (mutation 2): re-reads `end_max` instead of publishing the
            // snapshot `m` the equality check was made against (the CUDA
            // listing's two-read shape). A group writing a *higher* range
            // between the two reads makes this publish a hole over a
            // still-unwritten middle range.
            let m2 = self.end_max.load(Ordering::Acquire);
            self.end.fetch_max(m2, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Unmodified pop side (identical to `CounterQueue::pop_group`).
    pub fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        pop_group_counter_protocol(
            &self.slots,
            &self.start,
            &self.end,
            state,
            max,
            out,
        )
    }
}

/// Mutation 3: the CAS queue's pop with its `end` load weakened from
/// `Acquire` to `Relaxed` (`cas.rs` pop_group). This severs the one
/// happens-before edge that makes the slot reads safe; the checker reports
/// the write/read race even though the reservation CAS is untouched.
pub struct CasQueueRelaxedEnd<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    start: AtomicU64,
    end: AtomicU64,
    end_alloc: AtomicU64,
    end_max: AtomicU64,
    end_count: AtomicU64,
}

unsafe impl<T: Copy + Send> Sync for CasQueueRelaxedEnd<T> {}
unsafe impl<T: Copy + Send> Send for CasQueueRelaxedEnd<T> {}

impl<T: Copy + Send> CasQueueRelaxedEnd<T> {
    /// Fixed-arena constructor (mirrors `CasQueue::with_capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            end_alloc: AtomicU64::new(0),
            end_max: AtomicU64::new(0),
            end_count: AtomicU64::new(0),
        }
    }

    /// Unmodified push side (identical to `CasQueue::push_group`).
    pub fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        if items.is_empty() {
            return Ok(());
        }
        let n = items.len() as u64;
        let mut idx = self.end_alloc.load(Ordering::Relaxed);
        loop {
            if idx + n > self.slots.len() as u64 {
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
                Err(cur) => idx = cur,
            }
        }
        for (i, &item) in items.iter().enumerate() {
            self.slots[(idx + i as u64) as usize].with_mut(|p| unsafe { (*p).write(item) });
        }
        let mut cur = self.end_max.load(Ordering::Relaxed);
        while cur < idx + n {
            match self.end_max.compare_exchange_weak(
                cur,
                idx + n,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        let mut cnt = self.end_count.load(Ordering::Relaxed);
        let prev = loop {
            match self.end_count.compare_exchange_weak(
                cnt,
                cnt + n,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break cnt,
                Err(c) => cnt = c,
            }
        };
        let m = self.end_max.load(Ordering::Acquire);
        if prev + n == m {
            let mut e = self.end.load(Ordering::Relaxed);
            while e < m {
                match self
                    .end
                    .compare_exchange_weak(e, m, Ordering::AcqRel, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(c) => e = c,
                }
            }
        }
        Ok(())
    }

    /// `CasQueue::pop_group` with the `end` load weakened.
    pub fn pop_group(&self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        loop {
            let s = self.start.load(Ordering::Relaxed);
            // BUG (mutation 3): Acquire weakened to Relaxed — observing
            // `end > s` no longer brings the publisher's slot writes into
            // view.
            let e = self.end.load(Ordering::Relaxed);
            if e <= s {
                return 0;
            }
            let take = (max as u64).min(e - s);
            if self
                .start
                .compare_exchange_weak(s, s + take, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            for i in 0..take {
                let v = self.slots[(s + i) as usize].with(|p| unsafe { (*p).assume_init() });
                out.push(v);
            }
            return take as usize;
        }
    }
}

/// Mutation 4: the counter queue with the *pop-side* publication-frontier
/// loads weakened `Acquire`→`Relaxed`. This is the racing-pop twin: under
/// `run_host` with `workers_per_pe ≥ 2`, sibling workers pop one PE's
/// `recv` queue through their own `PopState`s while remote workers push
/// into it, and the only edge that makes a popper's slot reads safe is the
/// Acquire load of `end` synchronizing with the pusher's AcqRel
/// publication. Weakening that load means observing `end > start` no
/// longer brings the pusher's slot writes into view — the popper reads a
/// slot that was never released to it. (The name dates from the deleted
/// work stealing, which popped a victim's queue the same way.) Push side
/// is byte-for-byte the real protocol.
pub struct CounterQueueRelaxedSteal<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    start: AtomicU64,
    end: AtomicU64,
    end_alloc: AtomicU64,
    end_max: AtomicU64,
    end_count: AtomicU64,
}

unsafe impl<T: Copy + Send> Sync for CounterQueueRelaxedSteal<T> {}
unsafe impl<T: Copy + Send> Send for CounterQueueRelaxedSteal<T> {}

impl<T: Copy + Send> CounterQueueRelaxedSteal<T> {
    /// Fixed-arena constructor (mirrors `CounterQueue::with_capacity`).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            start: AtomicU64::new(0),
            end: AtomicU64::new(0),
            end_alloc: AtomicU64::new(0),
            end_max: AtomicU64::new(0),
            end_count: AtomicU64::new(0),
        }
    }

    /// Unmodified push side (identical to `CounterQueue::push_group`).
    pub fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        if items.is_empty() {
            return Ok(());
        }
        let n = items.len() as u64;
        let idx = self.end_alloc.fetch_add(n, Ordering::Relaxed);
        if idx + n > self.slots.len() as u64 {
            return Err(QueueFull {
                capacity: self.slots.len(),
            });
        }
        for (i, &item) in items.iter().enumerate() {
            self.slots[(idx + i as u64) as usize].with_mut(|p| unsafe { (*p).write(item) });
        }
        self.end_max.fetch_max(idx + n, Ordering::AcqRel);
        let prev = self.end_count.fetch_add(n, Ordering::AcqRel);
        let m = self.end_max.load(Ordering::Acquire);
        if prev + n == m {
            self.end.fetch_max(m, Ordering::AcqRel);
        }
        Ok(())
    }

    /// `CounterQueue::pop_group` with every `end` load weakened.
    pub fn pop_group(&self, state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        fn drain<T: Copy>(
            slots: &[UnsafeCell<MaybeUninit<T>>],
            end: &AtomicU64,
            state: &mut PopState,
            max: usize,
            out: &mut Vec<T>,
        ) -> usize {
            if state.cursor == state.claim_hi {
                return 0;
            }
            // BUG (mutation 4): Acquire weakened to Relaxed — the claim
            // bound is still numerically correct, but the load no longer
            // synchronizes with the pusher's AcqRel `fetch_max` on `end`,
            // so the slot reads below race with the slot writes.
            let e = end.load(Ordering::Relaxed);
            let hi = state.claim_hi.min(e);
            let take = (hi.saturating_sub(state.cursor)).min(max as u64);
            for i in 0..take {
                let v = slots[(state.cursor + i) as usize].with(|p| unsafe { (*p).assume_init() });
                out.push(v);
            }
            state.cursor += take;
            take as usize
        }

        if max == 0 {
            return 0;
        }
        let mut produced = drain(&self.slots, &self.end, state, max, out);
        if produced == max {
            return produced;
        }
        if state.cursor == state.claim_hi {
            // BUG (mutation 4): same weakening on the availability estimate.
            let e = self.end.load(Ordering::Relaxed);
            let s = self.start.load(Ordering::Relaxed);
            if e <= s {
                return produced;
            }
            let want = ((max - produced) as u64).min(e - s);
            let old = self.start.fetch_add(want, Ordering::Relaxed);
            state.claim_lo = old;
            state.cursor = old;
            state.claim_hi = old + want;
            produced += drain(&self.slots, &self.end, state, max - produced, out);
        }
        produced
    }
}

/// The real `CounterQueue::pop_group` body, shared by the twins whose bug
/// is on the push side so their pop path stays byte-for-byte faithful.
fn pop_group_counter_protocol<T: Copy>(
    slots: &[UnsafeCell<MaybeUninit<T>>],
    start: &AtomicU64,
    end: &AtomicU64,
    state: &mut PopState,
    max: usize,
    out: &mut Vec<T>,
) -> usize {
    fn drain<T: Copy>(
        slots: &[UnsafeCell<MaybeUninit<T>>],
        end: &AtomicU64,
        state: &mut PopState,
        max: usize,
        out: &mut Vec<T>,
    ) -> usize {
        if state.cursor == state.claim_hi {
            return 0;
        }
        let e = end.load(Ordering::Acquire);
        let hi = state.claim_hi.min(e);
        let take = (hi.saturating_sub(state.cursor)).min(max as u64);
        for i in 0..take {
            let v = slots[(state.cursor + i) as usize].with(|p| unsafe { (*p).assume_init() });
            out.push(v);
        }
        state.cursor += take;
        take as usize
    }

    if max == 0 {
        return 0;
    }
    let mut produced = drain(slots, end, state, max, out);
    if produced == max {
        return produced;
    }
    if state.cursor == state.claim_hi {
        let e = end.load(Ordering::Acquire);
        let s = start.load(Ordering::Relaxed);
        if e <= s {
            return produced;
        }
        let want = ((max - produced) as u64).min(e - s);
        let old = start.fetch_add(want, Ordering::Relaxed);
        state.claim_lo = old;
        state.cursor = old;
        state.claim_hi = old + want;
        produced += drain(slots, end, state, max - produced, out);
    }
    produced
}
