//! Model-check suite for the work-stealing protocol.
//!
//! The runtime's cross-PE steal path (`atos_core::runtime`, `--load-balance
//! steal`) has a stealer pop a *group* from a victim PE's queue through the
//! exact same `pop_group`/`PopState` machinery the owner uses — there is no
//! separate steal cursor. Its safety therefore reduces to three properties
//! of [`CounterQueue`] under two racing pop handles:
//!
//! 1. **Disjoint claims** — owner-pop and stealer-pop-group never yield the
//!    same item (monotone `fetch_add` on `start`).
//! 2. **Conservation** — across owner, stealer, and a racing victim-side
//!    pusher, nothing is lost or duplicated once the queue quiesces.
//! 3. **Prefix safety** — a stealer racing publication only ever observes a
//!    prefix of fully published items, never an unwritten slot.
//!
//! Compiled only under `RUSTFLAGS="--cfg atos_check"`. The suite also
//! carries the falsifiability twin: `CounterQueueRelaxedSteal` (mutation 4,
//! pop-side `end` load weakened Acquire→Relaxed) must be *caught* with a
//! deterministic, replayable schedule, proving these passes are not vacuous.
#![cfg(atos_check)]

use atos_check::{thread, CheckOutcome, Failure, FailureKind, Model};
use atos_queue::counter::CounterQueue;
use atos_queue::mutations::CounterQueueRelaxedSteal;
use atos_queue::PopState;

fn bounded(preemptions: usize) -> Model {
    let mut m = Model::new();
    m.preemption_bound = Some(preemptions);
    m.max_iterations = 2_000_000;
    m
}

/// Property 1: owner and stealer pop groups concurrently from a pre-filled
/// victim queue. Every interleaving yields disjoint claims — no item is
/// executed by both PEs — and with enough combined demand the queue drains
/// completely (any claim overshooting the final `end` is provably
/// unfillable and abandoned, exactly the runtime's termination argument).
#[test]
fn steal_owner_and_stealer_claims_disjoint() {
    bounded(2)
        .check(|| {
            let q = CounterQueue::with_capacity(4);
            q.push_group(&[1u64, 2, 3]).unwrap();
            let mut owner = Vec::new();
            let mut stolen = Vec::new();
            thread::scope(|s| {
                let t = s.spawn(|| {
                    let mut h = PopState::new();
                    let mut out = Vec::new();
                    q.pop_group(&mut h, 2, &mut out);
                    h.abandon();
                    out
                });
                let mut h = PopState::new();
                q.pop_group(&mut h, 2, &mut owner);
                h.abandon();
                stolen = t.join().unwrap();
            });
            let mut all: Vec<u64> = owner.iter().chain(stolen.iter()).copied().collect();
            all.sort_unstable();
            let mut uniq = all.clone();
            uniq.dedup();
            assert_eq!(all, uniq, "owner and stealer claimed the same item");
            assert_eq!(all, vec![1, 2, 3], "combined demand drains the queue");
        })
        .assert_passed();
}

/// Property 2: a victim-side pusher races the owner pop *and* a stealer
/// pop-group. Whatever either popper harvests mid-race, after quiescence
/// the union is exactly the pushed set — steals move work, they never
/// duplicate or lose it.
#[test]
fn steal_racing_pusher_conserves_items() {
    let out = bounded(2).check(|| {
        let q = CounterQueue::with_capacity(4);
        let mut owner = Vec::new();
        let mut stolen = Vec::new();
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
            q.pop_group(&mut h, 1, &mut owner);
            h.abandon();
            stolen = t.join().unwrap();
        });
        for &v in owner.iter().chain(stolen.iter()) {
            assert!(v == 7 || v == 8, "popped an unpushed value {v}");
        }
        // Quiesced: one fresh handle drains whatever the racers left.
        let mut h = PopState::new();
        let mut rest = Vec::new();
        q.pop_group(&mut h, 2, &mut rest);
        let mut all: Vec<u64> = owner
            .iter()
            .chain(stolen.iter())
            .chain(rest.iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![7, 8], "conservation across owner + stealer");
    });
    // Guard against a silently-inert cfg making the suite vacuous: the
    // three-way race must branch into many explored interleavings.
    match out {
        CheckOutcome::Passed { executions } => {
            assert!(executions > 10, "suspiciously few interleavings: {executions}")
        }
        CheckOutcome::Failed(f) => panic!("{f}"),
    }
}

/// Property 3: a stealer racing publication observes only a prefix of the
/// pushed group — the Acquire load of `end` is the one edge that makes the
/// stolen slot reads safe, and the checker verifies it on every
/// interleaving (weakening it is mutation 4, caught below).
#[test]
fn steal_pop_is_prefix_safe_under_publication() {
    bounded(2)
        .check(|| {
            let q = CounterQueue::with_capacity(4);
            let mut stolen = Vec::new();
            thread::scope(|s| {
                s.spawn(|| q.push_group(&[5u64, 6]).unwrap());
                // The "stealer": pops from a queue it does not own while
                // the owner-side push is mid-flight.
                let mut h = PopState::new();
                q.pop_group(&mut h, 2, &mut stolen);
                h.abandon();
            });
            assert!(
                stolen.is_empty() || stolen == [5] || stolen == [5, 6],
                "stole a non-prefix: {stolen:?}"
            );
        })
        .assert_passed();
}

/// Assert the failure replays: re-running the body pinned to the reported
/// schedule must reproduce the same failure kind deterministically.
fn assert_replays(f: &Failure, body: impl Fn() + Send + Sync + 'static) {
    let replayed = atos_check::replay(&f.schedule, body);
    let rf = replayed
        .failure()
        .unwrap_or_else(|| panic!("schedule {:?} did not reproduce: {f}", f.schedule));
    assert_eq!(rf.kind, f.kind, "replay changed the failure kind");
}

/// Mutation 4 — the steal-side `end` load weakened Acquire→Relaxed
/// (`atos_queue::mutations::CounterQueueRelaxedSteal`). A stealer that
/// observes `end > start` with a Relaxed load claims the slot without
/// synchronizing with the victim-side pusher's publication, so its slot
/// read races with the slot write. The checker must report the race with
/// a deterministic, replayable schedule; the identical driver on the real
/// queue is `steal_pop_is_prefix_safe_under_publication` above, which
/// passes.
#[test]
fn mutation_relaxed_steal_cursor_is_caught() {
    let body = || {
        let q = CounterQueueRelaxedSteal::with_capacity(2);
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
        .expect("checker must catch the relaxed steal-cursor load")
        .clone();
    assert_eq!(f.kind, FailureKind::DataRace, "{f}");
    assert!(!f.schedule.is_empty(), "failure must carry a schedule");
    assert_replays(&f, body);
}
