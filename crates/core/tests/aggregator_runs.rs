//! The aggregator's run fill against the per-task loop it replaced.
//!
//! `Runtime::dispatch_remote` used to push every remote task into its
//! accumulation buffer one by one and ask the flush policy after each.
//! Then it asked `AggBuffer::run_len` how far the next trigger is and
//! appended that many with one `push_slice`; now it keeps no buffer at all
//! and counts the run into a `Bundle` with one `note`. The first loop is
//! kept here as the oracle: all three must flush the same bundles at the
//! same times and leave the same residue — that is what keeps every virtual
//! time unchanged. The second half of the file holds whole runs to what
//! they were while bundles were copies.

use atos_core::aggregator::{AggBuffer, Bundle, IssueClock};
use atos_core::{Application, AtosConfig, CommMode, Emitter, RunStats, Runtime};
use atos_sim::{Fabric, Time};
use proptest::prelude::*;

/// One flushed bundle: `(dst, flush time, tasks, bytes, by_size)`.
type Flushed = (usize, Time, Vec<u32>, u64, bool);
/// A bundle as the runtime knows it: `(dst, flush time, task count, bytes,
/// by_size)`.
type Cut = (usize, Time, usize, u64, bool);
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
    /// earlier step (`tasks == 0`: buffer empty). An earlier step of the
    /// same PE, so `opened_at` is not after `now`.
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
        let residual = bufs
            .iter()
            .map(|b| (b.len(), b.bytes(), b.opened_at()))
            .collect();
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

    /// The run fill on a buffer: append up to the next trigger, flush,
    /// repeat.
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

    /// The runtime's loop, on the record that is all it keeps: count up to
    /// the next trigger, close, repeat. A bundle is `(dst, flush time,
    /// tasks, bytes, by_size)`: where the stream of tasks is cut, and when.
    fn counted(&self) -> (Vec<Cut>, Vec<Residual>) {
        let clock = self.clock();
        let (tb, batch, wait) = (self.task_bytes, self.batch_bytes, self.wait_time);
        let mut cuts = Vec::new();
        let mut i = 0u64;
        let residual = (self.lens.iter().enumerate())
            .map(|(dst, &len)| {
                let mut bundle = Bundle::default();
                bundle.note(self.pre.1, tb, self.pre.0);
                let mut rest = len;
                while rest > 0 {
                    let (k, fires) = bundle.run_len(&clock, i, rest, tb, batch, wait);
                    bundle.note(k, tb, clock.at(i));
                    rest -= k;
                    i += k as u64;
                    if fires {
                        let by_size = bundle.bytes() >= batch;
                        let (tasks, bytes) = bundle.close();
                        cuts.push((dst, clock.at(i - 1), tasks, bytes, by_size));
                    }
                }
                let opened_at = bundle.opened_at();
                let (tasks, bytes) = bundle.close();
                (tasks, bytes, opened_at)
            })
            .collect();
        (cuts, residual)
    }

    /// All three loops agree; returns what they produced.
    fn check(&self) -> (Vec<Flushed>, Vec<Residual>) {
        let want = self.per_task();
        assert_eq!(self.run_filled(), want, "{self:?}");
        let cuts = want
            .0
            .iter()
            .map(|f| (f.0, f.1, f.2.len(), f.3, f.4))
            .collect();
        assert_eq!(self.counted(), (cuts, want.1.clone()), "{self:?}");
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
        // How long before `now` the buffered tasks opened their bundle.
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
            pre: (times.0.saturating_sub(pre.0), pre.1),
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
    let due = Dispatch {
        now: 50_000,
        busy: 0,
        pre: (2_000, 3),
        ..base()
    };
    let (flushed, _) = due.check();
    assert_eq!(
        flushed.iter().map(|f| f.2.len()).collect::<Vec<_>>(),
        [4, 4]
    );
}

#[test]
fn corner_kernel_boundary_communication() {
    // Groute-/Galois-like tuning: everything leaves at `now + busy`.
    let d = Dispatch {
        in_kernel_comm: false,
        batch_bytes: 80,
        ..base()
    };
    let (flushed, residual) = d.check();
    assert_eq!(flushed.len(), 8);
    assert!(flushed
        .iter()
        .all(|f| f.1 == 8_000 && f.2.len() == 10 && f.4));
    assert_eq!(residual, [(0, 0, None), (0, 0, None)]);
}

#[test]
fn corner_zero_wait_time_flushes_every_task() {
    let (flushed, _) = Dispatch {
        wait_time: 0,
        ..base()
    }
    .check();
    assert_eq!(flushed.len(), 80);
    assert!(flushed.iter().all(|f| f.2.len() == 1 && !f.4));
}

#[test]
fn corner_batch_no_larger_than_a_task() {
    for batch_bytes in [0, 1, 8] {
        let (flushed, _) = Dispatch {
            batch_bytes,
            ..base()
        }
        .check();
        assert_eq!(flushed.len(), 80);
        assert!(flushed.iter().all(|f| f.2.len() == 1 && f.4));
    }
}

#[test]
fn corner_zero_byte_tasks_never_fill_a_batch() {
    let d = Dispatch {
        task_bytes: 0,
        batch_bytes: 1,
        wait_time: 10,
        ..base()
    };
    let (flushed, _) = d.check();
    // Age only: 15 µs = 150 issue slots, never reached in 80.
    assert!(flushed.is_empty());
    // A zero batch is "full" even when empty.
    let (flushed, _) = Dispatch {
        task_bytes: 0,
        batch_bytes: 0,
        ..base()
    }
    .check();
    assert_eq!(flushed.len(), 80);
}

#[test]
fn corner_single_task_dispatch() {
    let one = Dispatch {
        lens: vec![0, 1],
        ..base()
    };
    let (flushed, residual) = one.check();
    assert!(flushed.is_empty());
    assert_eq!(residual, [(0, 0, None), (1, 8, Some(0))]);
    let (flushed, _) = Dispatch {
        batch_bytes: 8,
        ..one
    }
    .check();
    assert_eq!(flushed, [(1, 0, vec![0], 8, true)]);
}

#[test]
fn corner_age_deadline_lands_exactly_on_an_issue_time() {
    // Issue times are 0, 100, 200, ...; one poll is 1500 ns, so the
    // bundle opened by task 0 comes due exactly at task 15's issue.
    let (flushed, _) = Dispatch {
        wait_time: 1,
        ..base()
    }
    .check();
    assert_eq!((flushed[0].1, flushed[0].2.len()), (1_500, 16));
    // One ns later and task 15 is still early.
    let late = Dispatch {
        wait_time: 1,
        pre: (1, 1),
        ..base()
    };
    let (flushed, _) = late.check();
    assert_eq!((flushed[0].1, flushed[0].2.len()), (1_600, 18));
}

// ---------------------------------------------------------------------------
// Whole runs: a bundle that spans steps, a step that spans bundles.
// ---------------------------------------------------------------------------

const LEAF: u32 = u32::MAX;

/// Chains of steps on PEs 0 and 1: a link `(ttl, id)` sends `fan` leaves to every
/// other PE and re-emits itself locally until `ttl` runs out, so each step
/// leaves one run per destination. Every PE folds the leaves it receives,
/// in order, into a hash.
struct Spray {
    n_pes: usize,
    fan: u32,
    received: Vec<u64>,
}

impl Application for Spray {
    type Task = (u32, u32);

    fn process(&mut self, pe: usize, (ttl, id): (u32, u32), out: &mut Emitter<(u32, u32)>) {
        if ttl == LEAF {
            return;
        }
        for i in 0..self.fan * (self.n_pes as u32 - 1) {
            let dst = (pe + 1 + i as usize % (self.n_pes - 1)) % self.n_pes;
            out.push(dst, (LEAF, id.wrapping_mul(1_000_003).wrapping_add(i)));
        }
        if ttl > 0 {
            out.push_local((ttl - 1, id + 1));
        }
    }

    fn on_receive(&mut self, pe: usize, task: (u32, u32)) -> Option<(u32, u32)> {
        let h = &mut self.received[pe];
        *h = (*h ^ task.1 as u64).wrapping_mul(0x0000_0100_0000_01B3);
        Some(task)
    }

    fn task_edges(&self, _t: &(u32, u32)) -> u64 {
        1
    }
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `RunStats` field by field, as `(name, Debug text)`. The pattern names
/// every field — no `..` — so a new field does not compile until the rows
/// below pin it.
#[rustfmt::skip]
fn fields(stats: &RunStats) -> Vec<(&'static str, String)> {
    macro_rules! by_name {
        ($($field:ident),*) => {{
            let RunStats { $($field),* } = stats;
            vec![$((stringify!($field), format!("{:?}", $field))),*]
        }};
    }
    by_name!(
        elapsed_ns, tasks_per_pe, edges_per_pe, busy_ns_per_pe, steps_per_pe, messages,
        payload_bytes, wire_bytes, remote_tasks, agg_flushes, agg_flushes_size, agg_flushes_age,
        agg_flushed_tasks, agg_flushed_bytes, queue_hwm_per_pe, ev_steps, ev_arrivals,
        ev_agg_polls, coalesced_arrivals, agg_poll_coalesced, agg_poll_idle, peak_pending_events,
        sim_events, burstiness, comm_peak_bytes, lb_steals, lb_stolen_tasks
    )
}

/// Run `chains` chains of `ttl + 1` links on PE 0 and half as many on PE 1
/// of a 4-PE InfiniBand cluster, so every lane-to-lane interleaving at a
/// receiver is the schedule's; returns the stats and `fnv(every PE's
/// delivered-task hash)`, after printing both as a golden row.
fn spray(fan: u32, chains: u32, ttl: u32, comm: CommMode) -> (RunStats, u64) {
    let app = Spray {
        n_pes: 4,
        fan,
        received: vec![0; 4],
    };
    let cfg = AtosConfig {
        comm,
        ..AtosConfig::ib_pagerank()
    };
    let mut rt = Runtime::new(app, Fabric::ib_cluster(4), cfg);
    rt.seed(0, (0..chains).map(|c| (ttl, c * 1_000)));
    rt.seed(1, (0..chains / 2).map(|c| (ttl, 500 + c * 1_000)));
    let stats = rt.run();
    let order = fnv(rt.app().received.iter().flat_map(|h| h.to_le_bytes()));
    let pins: Vec<String> = fields(&stats)
        .iter()
        .map(|(f, v)| format!("({f:?}, {v:?})"))
        .collect();
    println!("    &[{}],\n    {order},", pins.join(", "));
    (stats, order)
}

/// Assert a golden row: every field of `stats`, then the delivery order.
fn assert_row(stats: &RunStats, order: u64, (pins, want_order): (&[(&str, &str)], u64)) {
    let want: Vec<(&str, String)> = pins.iter().map(|&(f, v)| (f, v.to_string())).collect();
    assert_eq!(fields(stats), want);
    assert_eq!(order, want_order);
}

#[test]
fn a_bundle_spanning_steps_runs_as_it_did_when_bundles_were_copies() {
    // 1 MiB batches never fill, and 8 polls (12 µs) outlast some twenty
    // half-microsecond steps: every bundle is the age trigger's — most cut by
    // a later dispatch, the last by the poll — over many steps' runs.
    let comm = CommMode::Aggregated {
        batch_bytes: 1 << 20,
        wait_time: 8,
    };
    let (s, order) = spray(3, 6, 400, comm);
    assert_eq!(
        (s.agg_flushes_size, s.remote_tasks),
        (0, 9 * 401 * 9),
        "{s:?}"
    );
    // A chain's links run in successive steps, so each source emitted
    // at least 401 runs per destination: three and more to a bundle.
    assert!(s.agg_flushes * 3 <= 2 * 3 * 401, "{s:?}");
    assert_row(&s, order, SPANNING_STEPS);
}

#[test]
fn a_step_cut_into_bundles_runs_as_it_did_when_bundles_were_copies() {
    // 128-byte batches against 50 eight-byte tasks per link and
    // destination: the size trigger cuts even a one-link run three times,
    // and the remainder rides into the next step's run.
    let comm = CommMode::Aggregated {
        batch_bytes: 128,
        wait_time: 32,
    };
    let (s, order) = spray(50, 6, 12, comm);
    assert_eq!(s.remote_tasks, 9 * 13 * 150, "{s:?}");
    assert!(
        s.agg_flushes_size >= 3 * 3 * 9 * 13 && s.agg_flushes_age > 0,
        "{s:?}"
    );
    assert_row(&s, order, CUT_WITHIN_A_STEP);
}

/// A golden row: every `RunStats` field, then `fnv` of the delivery order.
type Row = (&'static [(&'static str, &'static str)], u64);

/// Captured on the parent commit fe33613, whose aggregator copied every
/// task into a per-pair buffer and sent each bundle as a train of its own
/// (`cargo test -p atos-core --test aggregator_runs -- --nocapture` prints
/// the rows). The fields were one hash of `RunStats`' `Debug` text until
/// they were pinned by name; rendered back as that text, they hash to its
/// last constants, 7028180558991062497 and 12754310916618590963.
#[rustfmt::skip]
const SPANNING_STEPS: Row = (
    &[
        ("elapsed_ns", "211904"), ("tasks_per_pe", "[6015, 8421, 10827, 10827]"),
        ("edges_per_pe", "[6015, 8421, 10827, 10827]"),
        ("busy_ns_per_pe", "[196377, 207024, 32481, 32481]"),
        ("steps_per_pe", "[403, 402, 29, 28]"), ("messages", "102"), ("payload_bytes", "259848"),
        ("wire_bytes", "525816"), ("remote_tasks", "32481"), ("agg_flushes", "102"),
        ("agg_flushes_size", "0"), ("agg_flushes_age", "102"), ("agg_flushed_tasks", "32481"),
        ("agg_flushed_bytes", "259848"), ("queue_hwm_per_pe", "[231, 453, 677, 663]"),
        ("ev_steps", "901"), ("ev_arrivals", "37"), ("ev_agg_polls", "84"),
        ("coalesced_arrivals", "0"), ("agg_poll_coalesced", "800"), ("agg_poll_idle", "32"),
        ("peak_pending_events", "6"), ("sim_events", "1022"),
        ("burstiness", "Some(0.7659866372737212)"), ("comm_peak_bytes", "104448"),
        ("lb_steals", "0"), ("lb_stolen_tasks", "0"),
    ],
    11955051332651252563,
);
#[rustfmt::skip]
const CUT_WITHIN_A_STEP: Row = (
    &[
        ("elapsed_ns", "60919"), ("tasks_per_pe", "[2028, 3939, 5850, 5850]"),
        ("edges_per_pe", "[2028, 3939, 5850, 5850]"),
        ("busy_ns_per_pe", "[11538, 16500, 18432, 18432]"), ("steps_per_pe", "[24, 18, 6, 6]"),
        ("messages", "1098"), ("payload_bytes", "140400"), ("wire_bytes", "346680"),
        ("remote_tasks", "17550"), ("agg_flushes", "1098"), ("agg_flushes_size", "1092"),
        ("agg_flushes_age", "6"), ("agg_flushed_tasks", "17550"), ("agg_flushed_bytes", "140400"),
        ("queue_hwm_per_pe", "[166, 768, 2688, 2688]"), ("ev_steps", "66"), ("ev_arrivals", "10"),
        ("ev_agg_polls", "8"), ("coalesced_arrivals", "0"), ("agg_poll_coalesced", "24"),
        ("agg_poll_idle", "2"), ("peak_pending_events", "6"), ("sim_events", "84"),
        ("burstiness", "Some(2.001121892789719)"), ("comm_peak_bytes", "176128"),
        ("lb_steals", "0"), ("lb_stolen_tasks", "0"),
    ],
    9117714385370042282,
);
