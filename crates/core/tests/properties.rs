//! Property-based tests for the runtime's scheduling data structures.

use proptest::prelude::*;

use atos_core::aggregator::AggBuffer;
use atos_core::config::AGGREGATOR_POLL_NS;
use atos_core::workqueue::WorkQueue;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both disciplines conserve tasks: everything pushed is popped
    /// exactly once, in some order.
    #[test]
    fn workqueues_conserve(
        tasks in proptest::collection::vec((0u32..1000, 0u32..16), 0..300),
        batch in 1usize..32,
    ) {
        for mut q in [WorkQueue::standard(), WorkQueue::priority(1, 1)] {
            for &(id, prio) in &tasks {
                q.push(id, prio);
            }
            prop_assert_eq!(q.len(), tasks.len());
            let mut out = Vec::new();
            while q.pop_batch(batch, &mut out) > 0 {}
            prop_assert!(q.is_empty());
            let mut got = out.clone();
            got.sort_unstable();
            let mut want: Vec<u32> = tasks.iter().map(|&(id, _)| id).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Priority pops are nondecreasing in priority when the queue is
    /// loaded up front (delta-stepping order).
    #[test]
    fn priority_order_nondecreasing(
        tasks in proptest::collection::vec((0u32..100, 0u32..12), 1..200),
        threshold in 0u32..4,
        delta in 1u32..4,
    ) {
        let mut q = WorkQueue::priority(threshold, delta);
        for &(id, prio) in &tasks {
            // Encode the priority in the task so we can check the order.
            q.push(prio * 1000 + id, prio);
        }
        let mut out = Vec::new();
        while q.pop_batch(7, &mut out) > 0 {}
        let prios: Vec<u32> = out.iter().map(|t| t / 1000).collect();
        prop_assert!(prios.windows(2).all(|w| w[0] <= w[1]), "{prios:?}");
    }

    /// The aggregator conserves items and bytes across any push/flush
    /// interleaving, and `should_flush` is exact at the byte threshold.
    #[test]
    fn aggregator_conserves(
        pushes in proptest::collection::vec(1u64..64, 1..100),
        batch in 1u64..4096,
    ) {
        let mut buf = AggBuffer::new(0);
        let mut now = 0u64;
        let mut pushed_items = 0u64;
        let mut flushed_items = 0u64;
        let mut pending_bytes = 0u64;
        for (i, &bytes) in pushes.iter().enumerate() {
            buf.push(i as u64, bytes, now);
            pushed_items += 1;
            pending_bytes += bytes;
            prop_assert_eq!(buf.bytes(), pending_bytes);
            prop_assert_eq!(buf.should_flush(now, batch, u32::MAX), pending_bytes >= batch);
            if buf.should_flush(now, batch, u32::MAX) {
                let (items, b) = buf.flush_with(Vec::new());
                prop_assert_eq!(b, pending_bytes);
                flushed_items += items.len() as u64;
                pending_bytes = 0;
            }
            now += 10;
        }
        let (items, b) = buf.flush_with(Vec::new());
        prop_assert_eq!(b, pending_bytes);
        flushed_items += items.len() as u64;
        prop_assert_eq!(flushed_items, pushed_items);
    }

    /// The age deadline is exactly first-push time + WAIT_TIME polls.
    #[test]
    fn aggregator_age_deadline(t0 in 0u64..1_000_000, wait in 0u32..100) {
        let mut buf = AggBuffer::new(1);
        prop_assert_eq!(buf.age_deadline(wait), None);
        buf.push(1u32, 8, t0);
        let deadline = t0 + wait as u64 * AGGREGATOR_POLL_NS;
        prop_assert_eq!(buf.age_deadline(wait), Some(deadline));
        prop_assert!(!buf.should_flush(deadline.saturating_sub(1), u64::MAX, wait) || wait == 0);
        prop_assert!(buf.should_flush(deadline, u64::MAX, wait));
    }
}
