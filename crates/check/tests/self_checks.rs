//! Engine self-checks: tiny protocols with known verdicts. If any of
//! these flip, the checker itself — not the queues — is broken.

#![expect(
    unsafe_code,
    reason = "drives the shadow UnsafeCell the race detector watches"
)]

use std::sync::Arc;

use atos_check::sync::{fence, AtomicU64, Ordering, UnsafeCell};
use atos_check::{CheckOutcome, FailureKind, Model};

fn unbounded() -> Model {
    let mut m = Model::new();
    m.preemption_bound = None;
    m
}

/// Release store / acquire load message passing is race-free.
#[test]
fn release_acquire_publication_passes() {
    let out = unbounded().check(|| {
        let flag = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(UnsafeCell::new(0u64));
        let (f2, c2) = (Arc::clone(&flag), Arc::clone(&cell));
        let t = atos_check::thread::spawn(move || {
            c2.with_mut(|p| {
                // SAFETY: only this thread writes; published by the
                // release store below.
                unsafe { *p = 7 }
            });
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            // SAFETY: the acquire load saw the release store, so the
            // write above happens-before this read.
            assert_eq!(cell.with(|p| unsafe { *p }), 7);
        }
        t.join().unwrap();
    });
    assert!(matches!(out, CheckOutcome::Passed { executions } if executions > 1));
}

/// The same protocol with a relaxed store is a data race, found with a
/// replayable schedule that reproduces the identical failure.
#[test]
fn relaxed_publication_races_and_replays() {
    let body = || {
        let flag = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(UnsafeCell::new(0u64));
        let (f2, c2) = (Arc::clone(&flag), Arc::clone(&cell));
        let t = atos_check::thread::spawn(move || {
            c2.with_mut(|p| {
                // SAFETY: exercised under the model checker only.
                unsafe { *p = 7 }
            });
            f2.store(1, Ordering::Relaxed); // BUG: no release edge
        });
        if flag.load(Ordering::Relaxed) == 1 {
            // SAFETY: exercised under the model checker only.
            let _ = cell.with(|p| unsafe { *p });
        }
        t.join().unwrap();
    };
    let out = unbounded().check(body);
    let failure = out.failure().expect("race must be found").clone();
    assert_eq!(failure.kind, FailureKind::DataRace);
    assert!(failure.message.contains("races with"), "{failure}");

    let replayed = atos_check::replay(&failure.schedule, body);
    let rf = replayed.failure().expect("replay must reproduce");
    assert_eq!(rf.kind, FailureKind::DataRace);
    assert_eq!(rf.message, failure.message);
}

/// Relaxed accesses bracketed by release/acquire *fences* synchronize.
#[test]
fn fence_publication_passes() {
    unbounded()
        .check(|| {
            let flag = Arc::new(AtomicU64::new(0));
            let cell = Arc::new(UnsafeCell::new(0u64));
            let (f2, c2) = (Arc::clone(&flag), Arc::clone(&cell));
            let t = atos_check::thread::spawn(move || {
                c2.with_mut(|p| {
                    // SAFETY: published by the release fence + store below.
                    unsafe { *p = 7 }
                });
                fence(Ordering::Release);
                f2.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) == 1 {
                fence(Ordering::Acquire);
                // SAFETY: acquire fence after observing the flag.
                assert_eq!(cell.with(|p| unsafe { *p }), 7);
            }
            t.join().unwrap();
        })
        .assert_passed();
}

/// A relaxed load may observe a stale value — the classic lost-update
/// assertion fails on some interleaving and the checker finds it.
#[test]
fn load_store_increment_loses_updates() {
    let out = unbounded().check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = atos_check::thread::spawn(move || {
            let v = n2.load(Ordering::Relaxed);
            n2.store(v + 1, Ordering::Relaxed);
        });
        let v = n.load(Ordering::Relaxed);
        n.store(v + 1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
    });
    let failure = out.failure().expect("lost update must be found");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("lost update"), "{failure}");
}

/// `fetch_add` increments never lose updates.
#[test]
fn fetch_add_increment_passes() {
    unbounded()
        .check(|| {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = Arc::clone(&n);
            let t = atos_check::thread::spawn(move || {
                n2.fetch_add(1, Ordering::Relaxed);
            });
            n.fetch_add(1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(n.load(Ordering::Relaxed), 2);
        })
        .assert_passed();
}

/// Thread join is a synchronization edge: reading the child's plain write
/// after join is race-free.
#[test]
fn join_synchronizes() {
    atos_check::check(|| {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = atos_check::thread::spawn(move || {
            c2.with_mut(|p| {
                // SAFETY: parent reads only after join.
                unsafe { *p = 9 }
            });
        });
        t.join().unwrap();
        // SAFETY: join happens-before this read.
        assert_eq!(cell.with(|p| unsafe { *p }), 9);
    });
}

/// Reading a slot no write initialized is reported as a publication
/// failure (not executed as UB).
#[test]
fn uninitialized_read_detected() {
    let out = unbounded().check(|| {
        let cell = UnsafeCell::new(0u64);
        // SAFETY: never executed — the checker reports before the closure.
        let _ = cell.with(|p| unsafe { *p });
    });
    let failure = out.failure().expect("uninit read must be found");
    assert_eq!(failure.kind, FailureKind::UninitRead);
}

/// A spin loop nobody will ever satisfy is reported as a livelock, not an
/// infinite exploration.
#[test]
fn stuck_spin_is_livelock() {
    let mut m = unbounded();
    m.max_steps = 300;
    let out = m.check(|| {
        let flag = AtomicU64::new(0);
        while flag.load(Ordering::Acquire) == 0 {
            atos_check::sync::spin_loop();
        }
    });
    assert_eq!(
        out.failure().expect("must livelock").kind,
        FailureKind::Livelock
    );
}

/// A broker-style spin *with* a writer terminates: yielding lets the
/// writer run, and the stale-read bound forces the spinner to eventually
/// observe the newest store.
#[test]
fn satisfiable_spin_terminates() {
    unbounded()
        .check(|| {
            let flag = Arc::new(AtomicU64::new(0));
            let f2 = Arc::clone(&flag);
            let t = atos_check::thread::spawn(move || {
                f2.store(1, Ordering::Release);
            });
            while flag.load(Ordering::Acquire) == 0 {
                atos_check::sync::spin_loop();
            }
            t.join().unwrap();
        })
        .assert_passed();
}

/// Scoped threads borrow stack data and join implicitly at scope exit.
#[test]
fn scoped_threads_synchronize() {
    atos_check::check(|| {
        let cell = UnsafeCell::new(0u64);
        let total = AtomicU64::new(0);
        atos_check::thread::scope(|s| {
            s.spawn(|| {
                cell.with_mut(|p| {
                    // SAFETY: published by scope join.
                    unsafe { *p = 3 }
                });
                total.fetch_add(1, Ordering::AcqRel);
            });
            s.spawn(|| {
                total.fetch_add(1, Ordering::AcqRel);
            });
        });
        // SAFETY: scope exit joined both threads.
        assert_eq!(cell.with(|p| unsafe { *p }), 3);
        assert_eq!(total.load(Ordering::Relaxed), 2);
    });
}

/// Two preemption budget finds the store-buffer-style bug that needs one
/// preemption, while budget 0 cannot (sanity check that bounding works).
#[test]
fn preemption_bound_gates_exploration() {
    let body = || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = atos_check::thread::spawn(move || {
            let v = n2.load(Ordering::Relaxed);
            n2.store(v + 1, Ordering::Relaxed);
        });
        let v = n.load(Ordering::Relaxed);
        n.store(v + 1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
    };
    let mut strict = Model::new();
    strict.preemption_bound = Some(2);
    assert!(strict.check(body).failure().is_some());
}

/// Fuzz mode finds an easy race and reports a replayable schedule.
#[test]
fn fuzz_finds_easy_race() {
    let body = || {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let c2 = Arc::clone(&cell);
        let t = atos_check::thread::spawn(move || {
            c2.with_mut(|p| {
                // SAFETY: exercised under the model checker only.
                unsafe { *p = 1 }
            });
        });
        cell.with_mut(|p| {
            // SAFETY: exercised under the model checker only.
            unsafe { *p = 2 }
        });
        t.join().unwrap();
    };
    let out = atos_check::fuzz_schedules(0xA705, 64, body);
    let failure = out.failure().expect("fuzz must find the write-write race");
    assert_eq!(failure.kind, FailureKind::DataRace);
    let replayed = atos_check::replay(&failure.schedule, body);
    assert_eq!(
        replayed.failure().expect("replay reproduces").kind,
        FailureKind::DataRace
    );
}

/// Deterministic exploration: the same model explores the same number of
/// executions every time.
#[test]
fn exploration_is_deterministic() {
    let body = || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = atos_check::thread::spawn(move || {
            n2.fetch_add(1, Ordering::AcqRel);
        });
        n.fetch_add(2, Ordering::AcqRel);
        t.join().unwrap();
    };
    let count = |_: ()| match unbounded().check(body) {
        CheckOutcome::Passed { executions } => executions,
        CheckOutcome::Failed(f) => panic!("unexpected failure: {f}"),
    };
    let a = count(());
    let b = count(());
    assert_eq!(a, b);
    assert!(a >= 2, "must explore both orders, got {a}");
}

/// Regression: a test-body panic (an abort event) while a spawned thread
/// exists that was never scheduled must still terminate exploration and
/// report the failure — not hang trying to schedule the orphan.
#[test]
fn abort_with_never_scheduled_thread_terminates() {
    let out = Model::new().check(|| {
        let a = Arc::new(AtomicU64::new(0));
        let a2 = Arc::clone(&a);
        let _t = atos_check::thread::spawn(move || {
            a2.store(1, Ordering::Relaxed);
        });
        panic!("boom before the child ever runs");
    });
    assert!(out.failure().is_some());
}
