//! The communication aggregator (Section III-A.3, Figure 3).
//!
//! On InfiniBand, fine-grained one-sided messages waste bandwidth and NIC
//! message rate, so Atos interposes an aggregator that "runs transparently
//! alongside application code": workers push messages into per-destination
//! accumulation buffers and return immediately; a persistent aggregator
//! worker monitors accumulation and writes a bundle to the remote GPU's
//! distributed queue when either
//!
//! * the bundle reaches `BATCH_SIZE` bytes (1 MiB in the paper — the knee
//!   of the Figure 4 latency/bandwidth trade-off), or
//! * the aggregator has polled `WAIT_TIME` times since the bundle opened
//!   (the eager-mode escape hatch for latency-bound phases).
//!
//! This module is pure policy; the runtime owns the clock, the sends and
//! the tasks. A bundle is a *count* ([`Bundle`]): a worker writes a task
//! into its emitter run once, the run leaves as a train, and the aggregator
//! only decides where the stream of runs is cut into messages.
//!
//! Tasks are counted in *runs*: a dispatch asks [`Bundle::run_len`] how
//! many of a destination's tasks fit before the next trigger and counts
//! them with one [`Bundle::note`]. Issue times are monotone in the task
//! index ([`IssueClock`]), so that count has a closed form.

use atos_macros::atos_hot;
use atos_sim::Time;

use crate::config::AGGREGATOR_POLL_NS;

/// When the remote tasks of one dispatch are issued: the `i`-th of `total`
/// leaves at `start + busy·i/total` — spread over the step's busy window
/// (in-kernel communication), or all at once (`busy == 0`: an idle
/// dispatch, a kernel-boundary framework).
#[derive(Debug, Clone, Copy)]
pub struct IssueClock {
    start: Time,
    busy: Time,
    total: u64,
}

impl IssueClock {
    /// `total` issues spread evenly over `busy` ns from `start`.
    pub fn spread(start: Time, busy: Time, total: usize) -> Self {
        let total = total.max(1) as u64;
        IssueClock { start, busy, total }
    }

    /// Issue time of the `i`-th task (monotone in `i`).
    #[inline]
    pub fn at(&self, i: u64) -> Time {
        self.start + self.busy * i / self.total
    }

    /// Smallest index issued at or after `deadline`, `None` if none ever
    /// is: `⌊busy·j/total⌋ ≥ need ⟺ busy·j ≥ need·total`, in 128 bits.
    fn first_at_or_after(&self, deadline: u128) -> Option<u64> {
        let need = u64::try_from(deadline.saturating_sub(self.start as u128)).ok()?;
        match (need, self.busy) {
            (0, _) => Some(0),
            (_, 0) => None,
            _ => {
                u64::try_from((need as u128 * self.total as u128).div_ceil(self.busy as u128)).ok()
            }
        }
    }
}

/// One `(src, dst)` pair's open bundle as the flush policy sees it, and all
/// the runtime keeps per pair: the tasks stay in the emitter runs they were
/// written into ([`crate::comm`]), and a flush sends a car that counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bundle {
    tasks: usize,
    bytes: u64,
    opened_at: Option<Time>,
}

impl Bundle {
    /// Count a run of `n` tasks of `task_bytes` each; `now`, the issue time
    /// of its first task, opens the bundle if it was empty.
    #[inline]
    #[atos_hot]
    pub fn note(&mut self, n: usize, task_bytes: u64, now: Time) {
        if self.tasks == 0 && n > 0 {
            self.opened_at = Some(now);
        }
        self.tasks += n;
        self.bytes += n as u64 * task_bytes;
    }

    /// Close the bundle — returns `(tasks, payload_bytes)` and resets.
    #[inline]
    #[atos_hot]
    pub fn close(&mut self) -> (usize, u64) {
        let closed = std::mem::take(self);
        (closed.tasks, closed.bytes)
    }

    /// How many of a dispatch's next `remaining` tasks — the first issued
    /// as index `i` of `clock` — to count before the flush policy fires,
    /// and whether it fires on the last of them (flush at that task's issue
    /// time). Noting one by one and asking [`Bundle::should_flush`] after
    /// each stops at the same task, given what every dispatch guarantees:
    /// only the bundle's own PE issues into it, in time order, so no task is
    /// issued before the bundle it joins opened.
    pub fn run_len(
        &self,
        clock: &IssueClock,
        i: u64,
        remaining: usize,
        task_bytes: u64,
        batch_bytes: u64,
        wait_time: u32,
    ) -> (usize, bool) {
        // Size: the first k ≥ 1 with bytes + k·task_bytes ≥ batch_bytes.
        let short = batch_bytes.saturating_sub(self.bytes);
        let by_size = match (short, task_bytes) {
            (0, _) => 1,
            (_, 0) => u64::MAX,
            _ => short.div_ceil(task_bytes),
        };
        // Age: the first index from `i` on issued at or past the deadline
        // of the bundle this run opens or joins.
        let age_limit = wait_time as u64 * AGGREGATOR_POLL_NS;
        let opened = self.opened_at.unwrap_or_else(|| clock.at(i));
        let by_age = match clock.first_at_or_after(opened as u128 + age_limit as u128) {
            Some(j) => j.saturating_sub(i).saturating_add(1),
            None => u64::MAX,
        };
        match by_size.min(by_age) {
            k if k <= remaining as u64 => (k as usize, true),
            _ => (remaining, false),
        }
    }

    /// Accumulated payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Time the oldest unsent item was enqueued.
    pub fn opened_at(&self) -> Option<Time> {
        self.opened_at
    }

    /// Whether the flush policy triggers at time `now`.
    ///
    /// `WAIT_TIME` counts aggregator polls ("After WAIT_TIME visits, the
    /// data is sent out, whether it meets the maximum message size or
    /// not"), so the age limit is `wait_time × AGGREGATOR_POLL_NS`.
    pub fn should_flush(&self, now: Time, batch_bytes: u64, wait_time: u32) -> bool {
        if self.tasks == 0 {
            return false;
        }
        if self.bytes >= batch_bytes {
            return true;
        }
        let age_limit = wait_time as u64 * AGGREGATOR_POLL_NS;
        match self.opened_at {
            Some(t0) => now.saturating_sub(t0) >= age_limit,
            None => false,
        }
    }

    /// Earliest time the age trigger can fire (for scheduling the next
    /// aggregator poll); `None` when empty.
    pub fn age_deadline(&self, wait_time: u32) -> Option<Time> {
        self.opened_at
            .map(|t0| t0 + wait_time as u64 * AGGREGATOR_POLL_NS)
    }
}

/// A [`Bundle`] together with the tasks it counts. The runtime does not use
/// it; filled one task at a time it is what the policy is specified against
/// (`tests/aggregator_runs.rs`). Derefs to its record for `run_len`,
/// `should_flush`, `age_deadline`, `bytes` and `opened_at`.
#[derive(Debug)]
pub struct AggBuffer<T> {
    /// Destination PE.
    pub dst: usize,
    bundle: Bundle,
    items: Vec<T>,
}

impl<T> std::ops::Deref for AggBuffer<T> {
    type Target = Bundle;

    fn deref(&self) -> &Bundle {
        &self.bundle
    }
}

impl<T: Copy> AggBuffer<T> {
    /// Empty buffer for destination `dst`.
    pub fn new(dst: usize) -> Self {
        AggBuffer {
            dst,
            bundle: Bundle::default(),
            items: Vec::new(),
        }
    }

    /// Append one task of `task_bytes` at time `now`.
    #[inline]
    pub fn push(&mut self, task: T, task_bytes: u64, now: Time) {
        self.push_slice(std::slice::from_ref(&task), task_bytes, now);
    }

    /// Append a run of tasks of `task_bytes` each; `now`, the issue time of
    /// its first task, opens the bundle if the buffer was empty.
    #[inline]
    pub fn push_slice(&mut self, tasks: &[T], task_bytes: u64, now: Time) {
        self.bundle.note(tasks.len(), task_bytes, now);
        self.items.extend_from_slice(tasks);
    }

    /// Accumulated task count.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Take the bundle — returns `(tasks, payload_bytes)` and resets —
    /// installing `replacement` (empty, maybe recycled) as the new storage.
    pub fn flush_with(&mut self, replacement: Vec<T>) -> (Vec<T>, u64) {
        debug_assert!(replacement.is_empty(), "replacement must be empty");
        let (_, bytes) = self.bundle.close();
        (std::mem::replace(&mut self.items, replacement), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_trigger() {
        let mut b = AggBuffer::new(1);
        for i in 0..100u32 {
            b.push(i, 8, 10);
        }
        assert_eq!(b.bytes(), 800);
        assert!(b.should_flush(10, 800, 1000));
        assert!(!b.should_flush(10, 801, 1000));
    }

    #[test]
    fn age_trigger() {
        let mut b = AggBuffer::new(0);
        b.push(7u32, 8, 1_000);
        let wait = 4u32;
        let deadline = 1_000 + wait as u64 * AGGREGATOR_POLL_NS;
        assert_eq!(b.age_deadline(wait), Some(deadline));
        assert!(!b.should_flush(deadline - 1, u64::MAX, wait));
        assert!(b.should_flush(deadline, u64::MAX, wait));
    }

    #[test]
    fn flush_resets_and_reopens() {
        let mut b = AggBuffer::new(2);
        b.push(1u8, 4, 50);
        b.push(2, 4, 60);
        let (items, bytes) = b.flush_with(Vec::new());
        assert_eq!(items, vec![1, 2]);
        assert_eq!(bytes, 8);
        assert!(b.is_empty());
        assert_eq!(b.opened_at(), None);
        // Reopening stamps a fresh age.
        b.push(3, 4, 900);
        assert_eq!(b.opened_at(), Some(900));
    }

    #[test]
    fn empty_buffer_never_flushes() {
        let b: AggBuffer<u8> = AggBuffer::new(0);
        assert!(!b.should_flush(1 << 40, 0, 0));
        assert_eq!(b.age_deadline(4), None);
    }

    #[test]
    fn eager_mode_is_low_wait_time() {
        // "Programmers can thus utilize an eager mode that minimizes
        // latency by setting the wait time to be very low."
        let mut b = AggBuffer::new(0);
        b.push(1u8, 8, 0);
        assert!(b.should_flush(AGGREGATOR_POLL_NS, u64::MAX, 1));
        assert!(!b.should_flush(AGGREGATOR_POLL_NS, u64::MAX, 1000));
    }

    #[test]
    fn push_is_the_one_element_run() {
        let (mut a, mut b) = (AggBuffer::new(0), AggBuffer::new(0));
        for t in 0..100u32 {
            a.push(t, 8, 10 + t as u64);
            b.push_slice(&[t], 8, 10 + t as u64);
        }
        assert_eq!((a.len(), *a), (b.len(), *b));
        // An empty run neither opens a bundle nor re-stamps an open one.
        b.push_slice(&[], 8, 99);
        assert_eq!(b.opened_at(), Some(10));
        let mut c: AggBuffer<u32> = AggBuffer::new(0);
        c.push_slice(&[], 8, 99);
        assert_eq!(*c, Bundle::default());
    }

    #[test]
    fn a_bundle_counts_what_a_buffer_holds() {
        let (mut buf, mut bundle) = (AggBuffer::new(3), Bundle::default());
        for (n, now) in [(3usize, 40u64), (0, 50), (5, 60)] {
            buf.push_slice(&vec![7u16; n], 2, now);
            bundle.note(n, 2, now);
            assert_eq!(*buf, bundle);
        }
        assert_eq!((bundle.bytes(), bundle.opened_at()), (16, Some(40)));
        let (items, bytes) = buf.flush_with(Vec::new());
        assert_eq!((items.len(), bytes), bundle.close());
        assert_eq!(bundle, Bundle::default());
        assert_eq!(*buf, bundle);
    }
}
