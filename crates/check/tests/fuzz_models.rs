//! Schedule-fuzzing suites: randomized (but seeded, hence deterministic)
//! schedule exploration at sizes the exhaustive DFS can't reach —
//! including a full push/recv round trip through the host backend
//! (`run_host`), which runs real worker threads on the shadow runtime.
#![cfg(atos_check)]

use atos_check::thread;
use atos_core::{run_host, HostApplication, HostConfig};
use atos_queue::broker::BrokerQueue;
use atos_queue::cas::CasQueue;
use atos_queue::counter::CounterQueue;
use atos_queue::PopState;

/// Counter queue: 2 pushers × 2-item groups against a greedy popper, 200
/// random schedules.
#[test]
fn fuzz_counter_queue() {
    atos_check::fuzz_schedules(0xC0FFEE, 200, || {
        let q = CounterQueue::with_capacity(8);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64, 2]).unwrap());
            s.spawn(|| q.push_group(&[3u64, 4]).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 4, &mut popped);
            h.abandon();
        });
        let mut h = PopState::new();
        q.pop_group(&mut h, 4, &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 2, 3, 4], "conservation under fuzz");
    })
    .assert_passed();
}

/// CAS queue: same driver shape, exercising all four CAS retry loops under
/// contention.
#[test]
fn fuzz_cas_queue() {
    atos_check::fuzz_schedules(0xCA5CA5, 200, || {
        let q = CasQueue::with_capacity(8);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64, 2]).unwrap());
            s.spawn(|| q.push_group(&[3u64, 4]).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 4, &mut popped);
        });
        let mut h = PopState::new();
        q.pop_group(&mut h, 4, &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 2, 3, 4], "conservation under fuzz");
    })
    .assert_passed();
}

/// Broker queue: racing pushers against a spinning popper.
#[test]
fn fuzz_broker_queue() {
    atos_check::fuzz_schedules(0xB60CE6, 200, || {
        let q = BrokerQueue::with_capacity(4);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push(1u64).unwrap());
            s.spawn(|| q.push(2u64).unwrap());
            while popped.len() < 2 {
                if let Some(v) = q.pop() {
                    popped.push(v);
                } else {
                    thread::yield_now();
                }
            }
        });
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 2], "conservation under fuzz");
    })
    .assert_passed();
}

/// The host backend end to end on the shadow runtime: 2 PEs × 1 worker
/// relay a token through local and remote (one-sided recv-queue) pushes
/// until quiescence. Each fuzzed schedule runs the full backend — scoped
/// worker threads, pop/process/push loops, and the outstanding-counter
/// termination protocol.
#[test]
#[allow(
    clippy::disallowed_types,
    reason = "the test's own visit count, outside the model"
)]
fn fuzz_distributed_queues_push_recv() {
    use std::sync::atomic::{AtomicU64, Ordering};
    struct Relay {
        visits: AtomicU64,
    }
    impl HostApplication for Relay {
        type Task = u32;
        fn process(&self, pe: usize, ttl: u32, push: &mut dyn FnMut(usize, u32)) {
            self.visits.fetch_add(1, Ordering::Relaxed);
            if ttl > 0 {
                // Alternate local and one-sided remote pushes so both
                // queue families see traffic in every schedule.
                let dst = if ttl.is_multiple_of(2) {
                    pe
                } else {
                    (pe + 1) % 2
                };
                push(dst, ttl - 1);
            }
        }
    }
    atos_check::fuzz_schedules(0xA706, 60, || {
        let app = Relay {
            visits: AtomicU64::new(0),
        };
        let cfg = HostConfig {
            n_pes: 2,
            workers_per_pe: 1,
            fetch: 1,
            queue_capacity: 64,
        };
        let stats = run_host(&app, cfg, vec![vec![3u32], vec![]]);
        assert_eq!(app.visits.load(Ordering::Relaxed), 4, "ttl 3 → 4 visits");
        assert_eq!(stats.remote_pushes, 2, "ttl 3 and 1 cross PEs");
        assert_eq!(stats.tasks_per_pe.iter().sum::<u64>(), 4);
    })
    .assert_passed();
}
