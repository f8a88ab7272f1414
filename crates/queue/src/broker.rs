//! Flag-per-slot ("broker") queue, the paper's published comparison point.
//!
//! Kerbl et al.'s broker queue (and Troendle et al.'s design) wrap every
//! queue item in a tuple with a ready flag. Pushing takes three steps: write
//! the item to the reserved slot, fence, set the flag to ready. Popping must
//! read a valid flag before consuming the slot.
//!
//! The paper's critique, which this implementation lets you measure on host
//! hardware (Figure 1):
//!
//! 1. the flag costs memory (a full word per item for alignment), and
//! 2. discovering `k` new items costs `k` flag loads spread over `k` cache
//!    lines, where the counter queue needs a single `end` broadcast.

#![expect(
    unsafe_code,
    reason = "the ring slots are UnsafeCell<MaybeUninit<T>> written and read under the queue's claims"
)]

use core::mem::MaybeUninit;

use crate::padded::Padded;
use crate::sync::{hint, AtomicU32, AtomicU64, Ordering, UnsafeCell};
use crate::{ConcurrentQueue, PopState, QueueFull};

const EMPTY: u32 = 0;
const READY: u32 = 1;

/// MPMC FIFO arena queue with a ready flag per slot.
pub struct BrokerQueue<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    flags: Box<[AtomicU32]>,
    head: Padded<AtomicU64>,
    tail: Padded<AtomicU64>,
}

// SAFETY: slot access is mediated by the per-slot flag: a slot is written
// only in its reserver's private range before the Release flag store, and
// read only after an Acquire flag load observes READY.
unsafe impl<T: Copy + Send> Sync for BrokerQueue<T> {}
// SAFETY: the queue owns its `T: Send` slot values; moving it moves them.
unsafe impl<T: Copy + Send> Send for BrokerQueue<T> {}

impl<T: Copy + Send> BrokerQueue<T> {
    /// Create a queue with a fixed arena of `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            flags: (0..capacity).map(|_| AtomicU32::new(EMPTY)).collect(),
            head: Padded::new(AtomicU64::new(0)),
            tail: Padded::new(AtomicU64::new(0)),
        }
    }

    /// Arena capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot at `idx`, without the bounds check — protocol code proves
    /// its indices instead of risking a mid-protocol panic (the no-unwind
    /// proof, DESIGN.md §7).
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

    /// The ready flag at `idx`, without the bounds check.
    ///
    /// # Safety
    ///
    /// `idx < self.flags.len() as u64` (flags and slots have equal length).
    #[inline]
    unsafe fn flag(&self, idx: u64) -> &AtomicU32 {
        debug_assert!(idx < self.flags.len() as u64);
        // SAFETY: caller proves `idx` is within the arena.
        unsafe { self.flags.get_unchecked(idx as usize) }
    }

    /// Push one item: reserve, write, fence, set flag (the three-step
    /// protocol the paper describes).
    pub fn push(&self, item: T) -> Result<(), QueueFull> {
        hot!(push, {
            let idx = self.tail.fetch_add(1, Ordering::Relaxed);
            if idx >= self.slots.len() as u64 {
                return Err(QueueFull {
                    capacity: self.slots.len(),
                });
            }
            // SAFETY: `idx < capacity` (checked above) and is exclusively ours
            // (monotone `tail.fetch_add`) until the Release flag store below
            // publishes it; a popper reads the slot only after an Acquire load
            // observes READY (checker-verified edge).
            let slot = unsafe { self.slot(idx) };
            // SAFETY: `p` is the slot reserved above; the write initializes it.
            slot.with_mut(|p| unsafe { (*p).write(item) });
            // SAFETY: same bound as above; flags and slots have equal length.
            let flag = unsafe { self.flag(idx) };
            flag.store(READY, Ordering::Release);
            Ok(())
        })
    }

    /// Pop one item if its slot's flag is ready.
    ///
    /// Reserves an index and polls the flag a bounded number of times (a
    /// producer that has reserved the slot is mid-write and will set it
    /// imminently). Returns `None` without reserving when the queue looks
    /// empty.
    pub fn pop(&self) -> Option<T> {
        hot!(pop, {
            loop {
                let h = self.head.load(Ordering::Relaxed);
                let t = self.tail.load(Ordering::Acquire);
                if h >= t.min(self.slots.len() as u64) {
                    return None;
                }
                // Claim the slot; CAS here (not fetch_add) so an empty-looking
                // queue is never over-reserved — the broker design has no claim
                // carry-over mechanism.
                if self
                    .head
                    .compare_exchange_weak(h, h + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // SAFETY: `h < min(tail, capacity)` was checked above and the
                // head CAS gave us the exclusive claim on exactly this index.
                let flag = unsafe { self.flag(h) };
                // The producer reserved before we saw tail > h, so READY arrives
                // after a bounded number of its instructions.
                while flag.load(Ordering::Acquire) != READY {
                    hint::spin_loop();
                }
                // SAFETY: same bound as the flag above; the Acquire flag load
                // observed the producer's Release READY store, so the slot write
                // happens-before this read; the head CAS gave us the exclusive
                // claim (checker-verified edge).
                let slot = unsafe { self.slot(h) };
                // SAFETY: the slot claimed above is published, so it is initialized.
                let v = slot.with(|p| unsafe { (*p).assume_init() });
                return Some(v);
            }
        })
    }

    /// Number of reserved-but-unclaimed items (flags may still be in flight).
    pub fn len(&self) -> usize {
        let t = self
            .tail
            .load(Ordering::Acquire)
            .min(self.slots.len() as u64);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    /// Whether the queue currently looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reset for a new epoch (exclusive access).
    pub fn reset(&mut self) {
        *self.head.get_mut() = 0;
        *self.tail.get_mut() = 0;
        for f in self.flags.iter() {
            f.store(EMPTY, Ordering::Relaxed);
        }
    }
}

impl<T: Copy + Send> ConcurrentQueue<T> for BrokerQueue<T> {
    fn push_group(&self, items: &[T]) -> Result<(), QueueFull> {
        // No native group API: the broker design pays per-item flag traffic.
        for &it in items {
            self.push(it)?;
        }
        Ok(())
    }

    fn pop_group(&self, _state: &mut PopState, max: usize, out: &mut Vec<T>) -> usize {
        let mut got = 0;
        while got < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    fn len(&self) -> usize {
        BrokerQueue::len(self)
    }
}

impl<T> core::fmt::Debug for BrokerQueue<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BrokerQueue")
            .field("capacity", &self.slots.len())
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let q = BrokerQueue::with_capacity(8);
        q.push(1u32).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_detected() {
        let q = BrokerQueue::with_capacity(1);
        q.push(1u8).unwrap();
        assert!(q.push(2).is_err());
    }

    #[test]
    fn reset_recycles() {
        let mut q = BrokerQueue::with_capacity(1);
        q.push(1u8).unwrap();
        assert_eq!(q.pop(), Some(1));
        q.reset();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn concurrent_push_pop_conserves() {
        let producers = 4;
        let per = 5_000;
        let q = Arc::new(BrokerQueue::with_capacity(producers * per));
        let mut all: Vec<Vec<u64>> = Vec::new();
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
            for _ in 0..4 {
                let q = Arc::clone(&q);
                handles.push(s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        match q.pop() {
                            Some(v) => mine.push(v),
                            None => {
                                let t = q.tail.load(Ordering::Relaxed);
                                if t >= (producers * per) as u64 && q.is_empty() {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
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
