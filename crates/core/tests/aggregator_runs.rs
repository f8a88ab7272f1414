//! The aggregator's run fill against the per-task loop it replaced.
//!
//! `Runtime::dispatch_remote` used to push every remote task into its
//! accumulation buffer one by one and ask the flush policy after each. It
//! now asks `AggBuffer::run_len` how far the next trigger is and appends
//! that many with one `push_slice`. The old loop is kept here as the
//! oracle: both must flush the same bundles at the same times and leave
//! the same residue — that is what keeps every virtual time unchanged.

use atos_core::aggregator::{AggBuffer, IssueClock};
use atos_sim::Time;
use proptest::prelude::*;

/// One flushed bundle: `(dst, flush time, tasks, bytes, by_size)`.
type Flushed = (usize, Time, Vec<u32>, u64, bool);
/// What stays behind in a buffer: `(len, bytes, opened_at)`.
type Residual = (usize, u64, Option<Time>);

/// One dispatch's worth of aggregation inputs.
#[derive(Debug, Clone)]
struct Dispatch {
    now: Time,
    busy: Time,
    /// Tasks emitted per destination.
    lens: Vec<usize>,
    task_bytes: u64,
    batch_bytes: u64,
    wait_time: u32,
    in_kernel_comm: bool,
    /// `(opened_at, tasks)` already buffered per destination by an
    /// earlier step (`tasks == 0`: buffer empty).
    pre: (Time, usize),
}

impl Dispatch {
    fn clock(&self) -> IssueClock {
        match self.in_kernel_comm {
            true => IssueClock::spread(self.now, self.busy, self.lens.iter().sum()),
            false => IssueClock::spread(self.now + self.busy, 0, 1),
        }
    }

    fn buffers(&self) -> Vec<AggBuffer<u32>> {
        let (opened_at, n) = self.pre;
        (0..self.lens.len())
            .map(|dst| {
                let mut b = AggBuffer::new(dst);
                for t in 0..n as u32 {
                    b.push(u32::MAX - t, self.task_bytes, opened_at);
                }
                b
            })
            .collect()
    }

    /// Walk the destinations as `Runtime::dispatch_remote` does, handing
    /// each one's tasks to `deliver` with the shared issue index.
    fn run(
        &self,
        mut deliver: impl FnMut(&mut AggBuffer<u32>, &[u32], &mut u64, &mut Vec<Flushed>),
    ) -> (Vec<Flushed>, Vec<Residual>) {
        let mut bufs = self.buffers();
        let mut flushed = Vec::new();
        let (mut i, mut next) = (0u64, 0u32);
        for (buf, &len) in bufs.iter_mut().zip(&self.lens) {
            let tasks: Vec<u32> = (next..next + len as u32).collect();
            next += len as u32;
            deliver(buf, &tasks, &mut i, &mut flushed);
        }
        let residual = bufs.iter().map(|b| (b.len(), b.bytes(), b.opened_at())).collect();
        (flushed, residual)
    }

    /// The loop the run fill replaced, kept as its oracle: push one task,
    /// ask the policy, flush.
    fn per_task(&self) -> (Vec<Flushed>, Vec<Residual>) {
        let clock = self.clock();
        self.run(|buf, tasks, i, flushed| {
            for &t in tasks {
                let at = clock.at(*i);
                *i += 1;
                buf.push(t, self.task_bytes, at);
                if buf.should_flush(at, self.batch_bytes, self.wait_time) {
                    let by_size = buf.bytes() >= self.batch_bytes;
                    let (bundle, bytes) = buf.flush_with(Vec::new());
                    flushed.push((buf.dst, at, bundle, bytes, by_size));
                }
            }
        })
    }

    /// The runtime's loop: append up to the next trigger, flush, repeat.
    fn run_filled(&self) -> (Vec<Flushed>, Vec<Residual>) {
        let clock = self.clock();
        let (tb, batch, wait) = (self.task_bytes, self.batch_bytes, self.wait_time);
        self.run(|buf, mut rest, i, flushed| {
            while !rest.is_empty() {
                let (k, fires) = buf.run_len(&clock, *i, rest.len(), tb, batch, wait);
                buf.push_slice(&rest[..k], tb, clock.at(*i));
                rest = &rest[k..];
                *i += k as u64;
                if fires {
                    let by_size = buf.bytes() >= batch;
                    let (bundle, bytes) = buf.flush_with(Vec::new());
                    flushed.push((buf.dst, clock.at(*i - 1), bundle, bytes, by_size));
                }
            }
        })
    }

    /// Both loops agree; returns what they produced.
    fn check(&self) -> (Vec<Flushed>, Vec<Residual>) {
        let want = self.per_task();
        assert_eq!(self.run_filled(), want, "{self:?}");
        want
    }
}

/// A plain dispatch the corner cases below vary: 40 tasks to each of
/// two destinations, issued 100 ns apart from t = 0.
fn base() -> Dispatch {
    Dispatch {
        now: 0,
        busy: 8_000,
        lens: vec![40, 40],
        task_bytes: 8,
        batch_bytes: 1 << 20,
        wait_time: 32,
        in_kernel_comm: true,
        pre: (0, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_fill_matches_the_per_task_loop(
        times in (0u64..1_000_000, 0u64..200_000),
        lens in proptest::collection::vec(0usize..300, 1..5),
        sizes in (0u64..24, 0u64..4096),
        wait_time in 0u32..40,
        in_kernel_comm in any::<bool>(),
        pre in (0u64..1_200_000, 0usize..50),
    ) {
        Dispatch {
            now: times.0,
            busy: times.1,
            lens,
            task_bytes: sizes.0,
            batch_bytes: sizes.1,
            wait_time,
            in_kernel_comm,
            pre,
        }
        .check();
    }
}

#[test]
fn corner_idle_dispatch_has_no_busy_window() {
    // `on_idle` dispatches with busy == 0: every task is issued at
    // `now`, so the age trigger is "now or never".
    let (flushed, residual) = Dispatch { busy: 0, ..base() }.check();
    assert!(flushed.is_empty());
    assert_eq!(residual, [(40, 320, Some(0)), (40, 320, Some(0))]);
    // ...and "now" when the bundle an earlier step opened is due.
    let due = Dispatch { now: 50_000, busy: 0, pre: (2_000, 3), ..base() };
    let (flushed, _) = due.check();
    assert_eq!(flushed.iter().map(|f| f.2.len()).collect::<Vec<_>>(), [4, 4]);
}

#[test]
fn corner_kernel_boundary_communication() {
    // Groute-/Galois-like tuning: everything leaves at `now + busy`.
    let d = Dispatch { in_kernel_comm: false, batch_bytes: 80, ..base() };
    let (flushed, residual) = d.check();
    assert_eq!(flushed.len(), 8);
    assert!(flushed.iter().all(|f| f.1 == 8_000 && f.2.len() == 10 && f.4));
    assert_eq!(residual, [(0, 0, None), (0, 0, None)]);
}

#[test]
fn corner_zero_wait_time_flushes_every_task() {
    let (flushed, _) = Dispatch { wait_time: 0, ..base() }.check();
    assert_eq!(flushed.len(), 80);
    assert!(flushed.iter().all(|f| f.2.len() == 1 && !f.4));
}

#[test]
fn corner_batch_no_larger_than_a_task() {
    for batch_bytes in [0, 1, 8] {
        let (flushed, _) = Dispatch { batch_bytes, ..base() }.check();
        assert_eq!(flushed.len(), 80);
        assert!(flushed.iter().all(|f| f.2.len() == 1 && f.4));
    }
}

#[test]
fn corner_zero_byte_tasks_never_fill_a_batch() {
    let d = Dispatch { task_bytes: 0, batch_bytes: 1, wait_time: 10, ..base() };
    let (flushed, _) = d.check();
    // Age only: 15 µs = 150 issue slots, never reached in 80.
    assert!(flushed.is_empty());
    // A zero batch is "full" even when empty.
    let (flushed, _) = Dispatch { task_bytes: 0, batch_bytes: 0, ..base() }.check();
    assert_eq!(flushed.len(), 80);
}

#[test]
fn corner_single_task_dispatch() {
    let one = Dispatch { lens: vec![0, 1], ..base() };
    let (flushed, residual) = one.check();
    assert!(flushed.is_empty());
    assert_eq!(residual, [(0, 0, None), (1, 8, Some(0))]);
    let (flushed, _) = Dispatch { batch_bytes: 8, ..one }.check();
    assert_eq!(flushed, [(1, 0, vec![0], 8, true)]);
}

#[test]
fn corner_age_deadline_lands_exactly_on_an_issue_time() {
    // Issue times are 0, 100, 200, ...; one poll is 1500 ns, so the
    // bundle opened by task 0 comes due exactly at task 15's issue.
    let (flushed, _) = Dispatch { wait_time: 1, ..base() }.check();
    assert_eq!((flushed[0].1, flushed[0].2.len()), (1_500, 16));
    // One ns later and task 15 is still early.
    let late = Dispatch { wait_time: 1, pre: (1, 1), ..base() };
    let (flushed, _) = late.check();
    assert_eq!((flushed[0].1, flushed[0].2.len()), (1_600, 18));
}

#[test]
fn corner_bundle_opened_after_this_dispatch_began() {
    // A thief dispatching for its victim can run behind the clock
    // that opened the buffer: ages saturate at zero.
    let d = Dispatch { now: 1_000, wait_time: 2, pre: (5_000, 2), ..base() };
    let (flushed, residual) = d.check();
    // Destination 0's tasks (issued 1000..=4900) all predate the
    // opening; destination 1's reach the 8000 ns deadline at its 31st.
    assert_eq!(residual[0], (42, 336, Some(5_000)));
    assert_eq!((flushed[0].0, flushed[0].1, flushed[0].2.len()), (1, 8_000, 33));
    // With no wait at all even a task from "the past" flushes.
    let (flushed, _) = Dispatch { wait_time: 0, ..d }.check();
    assert_eq!(flushed[0].2.len(), 3);
}
