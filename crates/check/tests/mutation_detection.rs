//! Mutation tests: the checker must catch the deliberately seeded
//! protocol bugs (see `atos_queue::mutations`), each with a deterministic,
//! replayable schedule — while the unmutated queues pass the identical
//! drivers in `queue_models.rs`. This is the falsifiability proof for the
//! whole subsystem: a checker that cannot reject broken orderings says
//! nothing by accepting the real ones.
#![cfg(atos_check)]

use atos_check::{thread, Failure, FailureKind, Model};
use atos_queue::mutations::{
    CasQueueRelaxedEnd, CounterQueueHolePub, CounterQueueRelaxedPopEnd, CounterQueueRelaxedPub,
};
use atos_queue::PopState;

/// Assert the failure replays: re-running the body pinned to the reported
/// schedule must reproduce the same failure kind deterministically.
fn assert_replays(f: &Failure, body: impl Fn() + Send + Sync + 'static) {
    let replayed = atos_check::replay(&f.schedule, body);
    let rf = replayed
        .failure()
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {f}", f.schedule));
    assert_eq!(rf.kind, f.kind, "replay changed the failure kind");
}

/// Mutation 1 — `counter.rs` publication RMWs weakened AcqRel→Relaxed.
/// A popper that Acquire-loads `end` still races with the pusher's slot
/// write, because nothing on the push side releases it.
#[test]
fn mutation_relaxed_publication_is_caught() {
    let body = || {
        let q = CounterQueueRelaxedPub::with_capacity(2);
        let mut out = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64]).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 1, &mut out);
            h.abandon();
        });
    };
    let mut m = Model::new();
    m.preemption_bound = Some(2);
    let out = m.check(body);
    let f = out
        .failure()
        .expect("checker must catch the relaxed publication")
        .clone();
    assert_eq!(f.kind, FailureKind::DataRace, "{f}");
    assert!(!f.schedule.is_empty(), "failure must carry a schedule");
    assert_replays(&f, body);
}

/// Mutation 2 — the CUDA listing's double read of `end_max` restored.
/// Needs three pushers (one publishing, one reserved-but-unwritten middle
/// range, one completed higher range) plus a concurrent popper; the
/// popper then reads the unwritten hole slot.
#[test]
fn mutation_hole_publication_is_caught() {
    let body = || {
        let q = CounterQueueHolePub::with_capacity(3);
        let mut out = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64]).unwrap());
            s.spawn(|| q.push_group(&[2u64]).unwrap());
            s.spawn(|| q.push_group(&[3u64]).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 3, &mut out);
            h.abandon();
        });
    };
    let mut m = Model::new();
    // The hole needs 3 preemptions (switch away from the publisher between
    // its two end_max reads, from the middle pusher after its reservation,
    // and from the popper-to-be); bound exactly there to keep DFS small.
    m.preemption_bound = Some(3);
    m.max_iterations = 5_000_000;
    let out = m.check(body);
    let f = out
        .failure()
        .expect("checker must catch the hole publication")
        .clone();
    assert!(
        matches!(f.kind, FailureKind::UninitRead | FailureKind::DataRace),
        "expected an uninitialized hole read, got: {f}"
    );
    assert!(!f.schedule.is_empty(), "failure must carry a schedule");
    assert_replays(&f, body);
}

/// Mutation 3 — `cas.rs` pop's `end` load weakened Acquire→Relaxed.
/// Observing `end > start` no longer synchronizes with the publisher, so
/// the slot read races with the slot write.
#[test]
fn mutation_relaxed_end_load_is_caught() {
    let body = || {
        let q = CasQueueRelaxedEnd::with_capacity(2);
        let mut out = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64]).unwrap());
            q.pop_group(1, &mut out);
        });
    };
    let mut m = Model::new();
    m.preemption_bound = Some(2);
    let out = m.check(body);
    let f = out
        .failure()
        .expect("checker must catch the relaxed end load")
        .clone();
    assert_eq!(f.kind, FailureKind::DataRace, "{f}");
    assert!(!f.schedule.is_empty(), "failure must carry a schedule");
    assert_replays(&f, body);
}

/// Mutation 4 — `counter.rs` pop's `end` load weakened Acquire→Relaxed
/// (`CounterQueueRelaxedPopEnd`). A popper that observes `end > start` with
/// a Relaxed load claims the slot without synchronizing with the pusher's
/// publication, so its slot read races with the slot write. The real queue
/// passes the same race in `queue_models.rs`'s
/// `counter_push_pop_publication_safe`.
#[test]
fn mutation_relaxed_pop_end_load_is_caught() {
    let body = || {
        let q = CounterQueueRelaxedPopEnd::with_capacity(2);
        let mut out = Vec::new();
        thread::scope(|s| {
            s.spawn(|| q.push_group(&[1u64]).unwrap());
            let mut h = PopState::new();
            q.pop_group(&mut h, 1, &mut out);
            h.abandon();
        });
    };
    let mut m = Model::new();
    m.preemption_bound = Some(2);
    let out = m.check(body);
    let f = out
        .failure()
        .expect("checker must catch the relaxed pop-side end load")
        .clone();
    assert_eq!(f.kind, FailureKind::DataRace, "{f}");
    assert!(!f.schedule.is_empty(), "failure must carry a schedule");
    assert_replays(&f, body);
}
