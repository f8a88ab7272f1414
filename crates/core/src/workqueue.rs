//! Per-PE logical work queues: standard FIFO and the priority variant.
//!
//! These model the *scheduling semantics* of the paper's distributed
//! standard and priority queues inside the simulator.
//! (The real lock-free data structure with the counter-publication
//! protocol lives in the `atos-queue` crate and is benchmarked in
//! Figure 1; here the simulator serializes each PE's events, so a plain
//! deque with the same ordering semantics is sufficient and exact.)

use std::collections::{BTreeMap, VecDeque};

use atos_sim::{nounwind, nounwind_when};

/// Scheduling discipline for one PE's local queue.
#[derive(Debug)]
pub enum WorkQueue<T> {
    /// FIFO.
    Standard(VecDeque<T>),
    /// Priority buckets with an eligibility threshold (delta-stepping
    /// style): pops serve the lowest bucket `< threshold`; when all
    /// eligible buckets drain but work remains, the threshold advances by
    /// `delta`.
    Priority {
        /// Priority → FIFO bucket.
        buckets: BTreeMap<u32, VecDeque<T>>,
        /// Current eligibility threshold.
        threshold: u32,
        /// Threshold increment.
        delta: u32,
        /// Total queued tasks.
        len: usize,
    },
}

impl<T> WorkQueue<T> {
    /// New FIFO queue.
    pub fn standard() -> Self {
        WorkQueue::Standard(VecDeque::new())
    }

    /// New priority queue with initial `threshold` and increment `delta`.
    pub fn priority(threshold: u32, delta: u32) -> Self {
        WorkQueue::Priority {
            buckets: BTreeMap::new(),
            threshold,
            delta: delta.max(1),
            len: 0,
        }
    }

    /// Queued task count.
    pub fn len(&self) -> usize {
        match self {
            WorkQueue::Standard(q) => q.len(),
            WorkQueue::Priority { len, .. } => *len,
        }
    }

    /// Whether no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a task with the given priority (ignored by FIFO).
    #[inline(always)]
    pub fn push(&mut self, task: T, priority: u32) {
        match self {
            WorkQueue::Standard(q) => nounwind_when(q.len() == q.capacity(), || q.push_back(task)),
            WorkQueue::Priority { buckets, len, .. } => {
                match buckets.get_mut(&priority) {
                    Some(q) => nounwind_when(q.len() == q.capacity(), || q.push_back(task)),
                    None => nounwind(|| buckets.entry(priority).or_default().push_back(task)),
                }
                *len += 1;
            }
        }
    }

    /// Pop up to `max` tasks according to the discipline, appending to
    /// `out`; returns the number popped.
    ///
    /// Priority: drains eligible buckets lowest-first; if work exists only
    /// above the threshold, the threshold advances (this is the point
    /// where a discrete-kernel run "closes an iteration" and admits the
    /// next depth range).
    #[inline]
    pub fn pop_batch(&mut self, max: usize, out: &mut Vec<T>) -> usize {
        match self {
            WorkQueue::Standard(q) => {
                let take = max.min(q.len());
                for _ in 0..take {
                    let Some(t) = q.pop_front() else { break };
                    nounwind_when(out.len() == out.capacity(), || out.push(t));
                }
                take
            }
            WorkQueue::Priority {
                buckets,
                threshold,
                delta,
                len,
            } => {
                let mut got = 0;
                while got < max && *len > 0 {
                    // Lowest non-empty bucket.
                    let Some(mut bucket) = buckets.first_entry() else {
                        break;
                    };
                    let prio = *bucket.key();
                    if prio >= *threshold {
                        if got > 0 {
                            // Eligible work was served this round; let the
                            // caller finish it before raising the
                            // threshold (speculation control).
                            break;
                        }
                        // Advance threshold just enough to admit the
                        // lowest waiting bucket. Saturate: a bucket at
                        // u32::MAX must not wrap the threshold (which
                        // would spin this loop forever in release builds).
                        while prio >= *threshold {
                            *threshold = threshold.saturating_add(*delta);
                            if *threshold == u32::MAX {
                                break;
                            }
                        }
                    }
                    let tasks = bucket.get_mut();
                    while got < max {
                        let Some(t) = tasks.pop_front() else { break };
                        nounwind_when(out.len() == out.capacity(), || out.push(t));
                        got += 1;
                        *len -= 1;
                    }
                    if tasks.is_empty() {
                        nounwind(|| bucket.remove());
                    }
                }
                got
            }
        }
    }

    /// Current threshold (priority queues; `None` for FIFO).
    pub fn threshold(&self) -> Option<u32> {
        match self {
            WorkQueue::Standard(_) => None,
            WorkQueue::Priority { threshold, .. } => Some(*threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = WorkQueue::standard();
        q.push(1, 9);
        q.push(2, 0);
        q.push(3, 5);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(2, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn priority_serves_lowest_bucket_first() {
        let mut q = WorkQueue::priority(1, 1);
        q.push("d2", 2);
        q.push("d0", 0);
        q.push("d1", 1);
        q.push("d0b", 0);
        let mut out = Vec::new();
        q.pop_batch(10, &mut out);
        assert_eq!(out, vec!["d0", "d0b"]);
        out.clear();
        q.pop_batch(10, &mut out);
        assert_eq!(out, vec!["d1"]);
        out.clear();
        q.pop_batch(10, &mut out);
        assert_eq!(out, vec!["d2"]);
    }

    #[test]
    fn threshold_advances_only_when_needed() {
        let mut q = WorkQueue::priority(1, 1);
        q.push((), 5);
        assert_eq!(q.threshold(), Some(1));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(1, &mut out), 1);
        // Threshold jumped to admit bucket 5.
        assert_eq!(q.threshold(), Some(6));
    }

    #[test]
    fn eligible_work_is_not_mixed_with_higher_buckets() {
        let mut q = WorkQueue::priority(1, 1);
        q.push("lo", 0);
        q.push("hi", 7);
        let mut out = Vec::new();
        // One big pop takes the eligible task, then stops at the threshold
        // rather than speculatively admitting bucket 7.
        assert_eq!(q.pop_batch(10, &mut out), 1);
        assert_eq!(out, vec!["lo"]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_pops_zero() {
        let mut q: WorkQueue<u8> = WorkQueue::priority(1, 2);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(4, &mut out), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn max_priority_does_not_wrap_threshold() {
        // A task at the maximum priority must still be served, and the
        // threshold advance must saturate instead of wrapping (which
        // would loop forever in release builds).
        let mut q = WorkQueue::priority(1, 3);
        q.push("max", u32::MAX);
        q.push("lo", 7);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(1, &mut out), 1);
        assert_eq!(out, vec!["lo"]);
        out.clear();
        assert_eq!(q.pop_batch(1, &mut out), 1);
        assert_eq!(out, vec!["max"]);
        assert!(q.is_empty());
    }

    #[test]
    fn delta_zero_is_clamped() {
        let mut q = WorkQueue::priority(0, 0);
        q.push(1u8, 3);
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(1, &mut out), 1, "must not loop forever");
    }

    #[test]
    fn priority_len_tracks_pushes_and_pops() {
        let mut q = WorkQueue::priority(1, 1);
        for i in 0..20u32 {
            q.push(i, i % 4);
        }
        assert_eq!(q.len(), 20);
        let mut out = Vec::new();
        let mut total = 0;
        while q.pop_batch(3, &mut out) > 0 {
            total = out.len();
        }
        assert_eq!(total, 20);
        assert!(q.is_empty());
    }
}
