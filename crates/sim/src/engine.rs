//! Virtual clock and binary-heap event queue.
//!
//! A minimal, allocation-free (in steady state) discrete-event core:
//! events are any payload type `E`; the runtime (in `atos-core`) owns the
//! dispatch loop so this crate never needs trait objects or actor
//! plumbing. Determinism is guaranteed by a `(time, sequence)` total
//! order: events scheduled at equal times fire in scheduling order, so a
//! run is a pure function of its inputs and seeds.
//!
//! ## Why a heap is enough
//!
//! Messages travel in receive lanes, not as engine events (DESIGN.md
//! §4.7), so the pending set is bounded by the PEs, not the traffic: each
//! PE has at most one step, one aggregator poll and one doorbell per lane
//! head pending — `n_pes · (n_pes + 2)` events, which the golden tests
//! assert on every row. The benchmark's workloads peak at 4–16 pending
//! events, where one `BinaryHeap` is O(log 16) per operation and
//! `peek_time` is O(1). The three-level timing wheel that used to stand
//! here, sized for the 16 k-deep pending sets of per-message events, is
//! retired (DESIGN.md §11).
//!
//! Nothing here consults wall clocks, hashers, or thread identity.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use atos_macros::atos_hot;

/// Virtual time in nanoseconds.
pub type Time = u64;

/// A pending event, ordered by its `(time, seq)` key alone.
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Discrete-event engine: a clock plus a deterministic pending-event
/// heap.
///
/// ```
/// use atos_sim::Engine;
/// let mut e = Engine::new();
/// e.schedule_at(20, "later");
/// e.schedule_at(10, "sooner");
/// assert_eq!(e.pop(), Some((10, "sooner")));
/// assert_eq!(e.now(), 10);
/// assert_eq!(e.pop(), Some((20, "later")));
/// ```
pub struct Engine<E> {
    now: Time,
    /// Sequence number of the event popped last (with `now`, its key).
    now_seq: u64,
    seq: u64,
    processed: u64,
    max_pending: usize,
    /// Pending events; `BinaryHeap` is a max-heap, so keys are reversed.
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Fresh engine at time zero.
    pub fn new() -> Self {
        Engine {
            now: 0,
            now_seq: 0,
            seq: 0,
            processed: 0,
            max_pending: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current virtual time (the timestamp of the last event popped).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sequence number of the last event popped: with [`Engine::now`], the
    /// `(time, seq)` key every still-pending event sorts after.
    pub fn popped_seq(&self) -> u64 {
        self.now_seq
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// `at` earlier than `now` is clamped to `now`: an event can never fire
    /// in the past (this arises naturally when a handler computes an arrival
    /// time from stale link state).
    #[inline]
    #[atos_hot]
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let seq = self.reserve_seqs(1);
        self.schedule_at_seq(at, seq, event);
    }

    /// Take the next `n` sequence numbers without scheduling anything and
    /// return the first. An event filed later under one of them with
    /// [`Engine::schedule_at_seq`] ties with same-time events exactly as if
    /// it had been scheduled now — which lets a caller hold an event back
    /// (or never file it at all) without disturbing the `(time, seq)` order
    /// of everything else.
    #[inline]
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedule `event` at `at` (clamped to `now`) under a sequence number
    /// taken earlier with [`Engine::reserve_seqs`]. Each reserved number
    /// may be used at most once.
    #[inline]
    #[atos_hot]
    pub fn schedule_at_seq(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "sequence number was never reserved");
        let at = at.max(self.now);
        self.heap.push(Reverse(Scheduled { at, seq, event }));
        self.max_pending = self.max_pending.max(self.heap.len());
    }

    /// Schedule `event` after a `delay` relative to now.
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[inline]
    #[atos_hot]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(s) = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "time went backwards");
        self.now = s.at;
        self.now_seq = s.seq;
        self.processed += 1;
        Some((s.at, s.event))
    }

    /// Pop the next event only if its timestamp is strictly before
    /// `horizon`; otherwise leave the queue untouched and return `None`.
    ///
    /// This is the window interface of the runtime's conservative-lookahead
    /// loop: it drains exactly the safe window `[now, horizon)` and stops
    /// without disturbing later events.
    #[inline]
    #[atos_hot]
    pub fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(t) if t < horizon => self.pop(),
            _ => None,
        }
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Total events processed so far (diagnostics and runaway guards).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of simultaneously pending events — how deep the
    /// pending set ever got. Observability metric: bounds the simulator's
    /// memory footprint and exposes scheduling burstiness.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }
}

impl<E> core::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(30, "c");
        e.schedule_at(10, "a");
        e.schedule_at(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut e = Engine::new();
        for i in 0..100 {
            e.schedule_at(5, i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e = Engine::new();
        e.schedule_at(10, ());
        e.pop();
        assert_eq!(e.now(), 10);
        // Scheduling "in the past" clamps to now.
        e.schedule_at(3, ());
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, 10);
        assert_eq!(e.now(), 10);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut e = Engine::new();
        e.schedule_at(100, 1);
        e.pop();
        e.schedule_after(7, 2);
        assert_eq!(e.peek_time(), Some(107));
        assert_eq!(e.pop(), Some((107, 2)));
    }

    #[test]
    fn bookkeeping_counters() {
        let mut e = Engine::new();
        assert_eq!(e.pending(), 0);
        e.schedule_at(1, ());
        e.schedule_at(2, ());
        assert_eq!(e.pending(), 2);
        e.pop();
        assert_eq!(e.processed(), 1);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn max_pending_tracks_high_water() {
        let mut e = Engine::new();
        assert_eq!(e.max_pending(), 0);
        e.schedule_at(1, ());
        e.schedule_at(2, ());
        e.schedule_at(3, ());
        e.pop();
        e.pop();
        e.schedule_at(4, ());
        // Peak was 3 simultaneous events; current pending is 2.
        assert_eq!(e.pending(), 2);
        assert_eq!(e.max_pending(), 3);
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        // Handlers scheduling new events at the current time must run after
        // already-queued same-time events, in scheduling order.
        let mut e = Engine::new();
        e.schedule_at(10, 0u32);
        e.schedule_at(10, 1);
        let (_, first) = e.pop().unwrap();
        assert_eq!(first, 0);
        e.schedule_at(10, 2);
        let rest: Vec<u32> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn a_reserved_sequence_number_keeps_its_place_in_line() {
        let mut e = Engine::new();
        e.schedule_at(10, "first");
        let held = e.reserve_seqs(2);
        e.schedule_at(10, "third");
        // Filed later — even after a pop — the held event still ties with
        // its neighbours as if it had been scheduled when reserved. The
        // second reserved number is simply never used.
        assert_eq!(e.pop(), Some((10, "first")));
        assert_eq!(e.popped_seq(), 0);
        e.schedule_at_seq(10, held, "second");
        assert_eq!(e.pop(), Some((10, "second")));
        assert_eq!(e.popped_seq(), held);
        assert_eq!(e.pop(), Some((10, "third")));
        assert_eq!(e.popped_seq(), held + 2);
        assert_eq!(e.pending(), 0);
    }
}
