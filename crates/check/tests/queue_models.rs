//! Exhaustive model-check suites for the queue substrate.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg atos_check"`,
//! which builds `atos-queue` against the shadow sync facade so every
//! atomic, slot access, and thread operation routes through the model
//! scheduler. Each test explores *all* interleavings within the stated
//! preemption bound and asserts linearizability and publication safety at
//! small bounds (2–4 threads, 2–4 ops), per the loom/CHESS small-scope
//! hypothesis.
//!
//! These drivers are also the falsifiability proof: `scripts/verify.sh`'s
//! twin stage weakens one ordering of the real `counter.rs` or `cas.rs` in
//! a copy of the tree and requires the named driver here to fail with the
//! failure kind it expects and a schedule that replays to that kind.
#![cfg(atos_check)]

use atos_check::{thread, CheckOutcome, Model};
use atos_queue::broker::BrokerQueue;
use atos_queue::cas::CasQueue;
use atos_queue::counter::CounterQueue;
use atos_queue::PopState;

/// Explore every interleaving of `body` within `preemptions` preemptions
/// and return how many executions that took. A failure panics with the
/// checker's report and whether replaying its schedule reproduced the same
/// failure kind (`replay reproduced DataRace`), the line a seeded twin must
/// print.
fn explore(preemptions: usize, body: fn()) -> usize {
    let mut m = Model::new();
    m.preemption_bound = Some(preemptions);
    m.max_iterations = 2_000_000;
    match m.check(body) {
        CheckOutcome::Passed { executions } => executions,
        CheckOutcome::Failed(f) => {
            let replayed = atos_check::replay(&f.schedule, body);
            let verdict = match replayed.failure() {
                Some(r) if r.kind == f.kind => format!("replay reproduced {:?}", f.kind),
                Some(r) => format!("replay changed the kind to {:?}", r.kind),
                None => "replay did not reproduce it".to_string(),
            };
            panic!("model check failed — {f}\n  {verdict}");
        }
    }
}

/// Two concurrent group pushes: every interleaving publishes both groups,
/// keeps each group contiguous and in order, and loses nothing.
#[test]
fn counter_push_group_linearizable() {
    explore(2, || {
        let q = CounterQueue::with_capacity(4);
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64, 2]).unwrap());
            s.spawn(|| q.push(3u64).unwrap());
        });
        assert_eq!(q.published(), 3, "both groups published after join");
        let mut h = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut h, 4, &mut out), 3);
        // The 2-item group occupies contiguous slots in push order.
        let i1 = out.iter().position(|&v| v == 1).expect("1 present");
        assert_eq!(out.get(i1 + 1), Some(&2), "group stays contiguous: {out:?}");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3], "no loss, no duplication: {out:?}");
    });
}

/// A pusher racing a popper: the popper only ever observes fully written
/// data (publication safety — any torn/unpublished read would be reported
/// as a race or uninitialized read), and nothing is lost or duplicated.
#[test]
fn counter_push_pop_publication_safe() {
    let executions = explore(2, || {
        let q = CounterQueue::with_capacity(4);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[7u64, 8]).unwrap());
            // Main thread pops concurrently with the push.
            let mut h = PopState::new();
            q.pop_group(&mut h, 2, &mut popped);
            h.abandon();
        });
        // FIFO: a concurrent popper sees a prefix of the group.
        assert!(
            popped.is_empty() || popped == [7] || popped == [7, 8],
            "popped a non-prefix: {popped:?}"
        );
        let mut h = PopState::new();
        q.pop_group(&mut h, 2, &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![7, 8], "conservation after quiescence");
    });
    // Guard against a silently-inert cfg making this suite vacuous: the
    // pusher/popper race must branch into many explored interleavings.
    assert!(
        executions > 10,
        "suspiciously few interleavings: {executions}"
    );
}

/// Two pushers racing one popper: the popper never observes anything but
/// pushed values, and the drained queue conserves items.
#[test]
fn counter_two_pushers_one_popper() {
    explore(2, || {
        let q = CounterQueue::with_capacity(4);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push(1u64).unwrap());
            s.spawn(|| q.push(2u64).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 2, &mut popped);
            h.abandon();
        });
        for &v in &popped {
            assert!(v == 1 || v == 2, "unpushed value {v}");
        }
        let mut h = PopState::new();
        q.pop_group(&mut h, 2, &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 2]);
    });
}

/// Three single-item pushers racing one popper. With three groups one
/// can publish while a second holds a reserved, unwritten range below a
/// third's completed one, so `end` may only ever move to the `end_max` the
/// publisher compared: re-reading `end_max` for the publication (the CUDA
/// listing's double read) exposes the unwritten slot to the popper. The
/// hole takes three preemptions to reach.
#[test]
fn counter_three_pushers_one_popper() {
    explore(3, || {
        let q = CounterQueue::with_capacity(3);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push(1u64).unwrap());
            s.spawn(|| q.push(2u64).unwrap());
            s.spawn(|| q.push(3u64).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 3, &mut popped);
            h.abandon();
        });
        for &v in &popped {
            assert!((1..=3).contains(&v), "unpushed value {v}");
        }
        let mut h = PopState::new();
        q.pop_group(&mut h, 3, &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 2, 3]);
    });
}

/// Two sibling pops: `run_host` with `workers_per_pe ≥ 2` has workers pop
/// groups from one PE's queue, each through its own `PopState`. On a
/// pre-filled queue every interleaving gives them disjoint claims, and
/// enough combined demand drains it (a claim overshooting the final `end`
/// is unfillable and abandoned, the host backend's termination argument).
#[test]
fn counter_sibling_pops_claim_disjoint() {
    explore(2, || {
        let q = CounterQueue::with_capacity(4);
        q.push_group(&[1u64, 2, 3]).unwrap();
        let mut mine = Vec::new();
        let mut theirs = Vec::new();
        thread::scope(|s| {
            let t = s.spawn(|| {
                let mut h = PopState::new();
                let mut out = Vec::new();
                q.pop_group(&mut h, 2, &mut out);
                h.abandon();
                out
            });
            let mut h = PopState::new();
            q.pop_group(&mut h, 2, &mut mine);
            h.abandon();
            theirs = t.join().unwrap();
        });
        let mut all: Vec<u64> = mine.iter().chain(theirs.iter()).copied().collect();
        all.sort_unstable();
        let mut uniq = all.clone();
        uniq.dedup();
        assert_eq!(all, uniq, "sibling pops claimed the same item");
        assert_eq!(all, vec![1, 2, 3], "combined demand drains the queue");
    });
}

/// Two sibling pops racing a remote pusher, as on a PE's `recv` queue:
/// whatever either harvests mid-race, after quiescence the union is exactly
/// the pushed set.
#[test]
fn counter_sibling_pops_and_a_pusher_conserve_items() {
    let executions = explore(2, || {
        let q = CounterQueue::with_capacity(4);
        let mut mine = Vec::new();
        let mut theirs = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[7u64, 8]).unwrap());
            let t = s.spawn(|| {
                let mut h = PopState::new();
                let mut out = Vec::new();
                q.pop_group(&mut h, 1, &mut out);
                h.abandon();
                out
            });
            let mut h = PopState::new();
            q.pop_group(&mut h, 1, &mut mine);
            h.abandon();
            theirs = t.join().unwrap();
        });
        for &v in mine.iter().chain(theirs.iter()) {
            assert!(v == 7 || v == 8, "popped an unpushed value {v}");
        }
        // Quiesced: one fresh handle drains whatever the racers left.
        let mut h = PopState::new();
        let mut rest = Vec::new();
        q.pop_group(&mut h, 2, &mut rest);
        let mut all: Vec<u64> = mine.iter().chain(&theirs).chain(&rest).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![7, 8], "conservation across both pops");
    });
    // The three-way race must branch into many explored interleavings.
    assert!(
        executions > 10,
        "suspiciously few interleavings: {executions}"
    );
}

/// CAS queue: concurrent group pushes linearize exactly like the counter
/// queue (same protocol, CAS reservations).
#[test]
fn cas_push_group_linearizable() {
    explore(2, || {
        let q = CasQueue::with_capacity(4);
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64, 2]).unwrap());
            s.spawn(|| q.push(3u64).unwrap());
        });
        assert_eq!(q.published(), 3);
        let mut h = PopState::new();
        let mut out = Vec::new();
        assert_eq!(q.pop_group(&mut h, 4, &mut out), 3);
        let i1 = out.iter().position(|&v| v == 1).expect("1 present");
        assert_eq!(out.get(i1 + 1), Some(&2), "group stays contiguous: {out:?}");
        let mut sorted = out;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
    });
}

/// The audited edge from `cas.rs::pop_group`: the reservation CAS on
/// `start` succeeds with *Relaxed* ordering, and that is sound — the
/// Acquire load of `end` supplies the happens-before edge for the slot
/// reads. This suite proves it by exhausting every interleaving of a
/// pusher against a popper; weakening the `end` load instead fails it
/// (`scripts/verify.sh`'s seeded twins).
#[test]
fn cas_pop_reservation_relaxed_is_sound() {
    explore(2, || {
        let q = CasQueue::with_capacity(4);
        let mut popped = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[7u64, 8]).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 2, &mut popped);
        });
        assert!(
            popped.is_empty() || popped == [7] || popped == [7, 8],
            "popped a non-prefix: {popped:?}"
        );
        let mut h = PopState::new();
        q.pop_group(&mut h, 2, &mut popped);
        popped.sort_unstable();
        assert_eq!(popped, vec![7, 8]);
    });
}

/// CAS queue: two racing poppers claim disjoint ranges (each item popped
/// exactly once) even though the winning CAS is Relaxed.
#[test]
fn cas_racing_poppers_claim_disjoint() {
    explore(2, || {
        let q = CasQueue::with_capacity(4);
        q.push_group(&[1u64, 2]).unwrap();
        let mut mine = Vec::new();
        let mut theirs = Vec::new();
        thread::scope(|s| {
            let t = s.spawn(|| {
                let mut out = Vec::new();
                let mut h = PopState::new();
                q.pop_group(&mut h, 1, &mut out);
                out
            });
            let mut h = PopState::new();
            q.pop_group(&mut h, 1, &mut mine);
            theirs = t.join().unwrap();
        });
        let mut all: Vec<u64> = mine.iter().chain(theirs.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2], "each item popped exactly once");
    });
}

/// Broker queue: concurrent pushes assign distinct slots and the Release
/// flag store publishes each slot write.
#[test]
fn broker_push_publication_safe() {
    explore(2, || {
        let q = BrokerQueue::with_capacity(2);
        thread::scope(|s| {
            s.spawn(|| q.push(5u64).unwrap());
            s.spawn(|| q.push(6u64).unwrap());
        });
        let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![5, 6]);
        assert_eq!(q.pop(), None);
    });
}

/// Broker queue: a popper racing the pusher spins on the ready flag and
/// never reads an unpublished slot.
#[test]
fn broker_racing_pop_waits_for_flag() {
    explore(2, || {
        let q = BrokerQueue::with_capacity(1);
        let mut got = None;
        thread::scope(|s| {
            s.spawn(|| q.push(9u64).unwrap());
            // Spin until the item is visible; yield lets the pusher run.
            loop {
                if let Some(v) = q.pop() {
                    got = Some(v);
                    break;
                }
                thread::yield_now();
            }
        });
        assert_eq!(got, Some(9));
    });
}
