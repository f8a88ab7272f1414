//! Property-based tests for the simulator substrates.

use proptest::prelude::*;

use atos_sim::engine::Engine;
use atos_sim::packet::PacketModel;
use atos_sim::{ControlPath, Fabric, GpuCostModel, PeId};

const MODELS: [PacketModel; 4] = [
    PacketModel::NvLink,
    PacketModel::PcieGen3,
    PacketModel::Infiniband,
    PacketModel::Ideal,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Framing never shrinks a payload, and efficiency stays in (0, 1].
    #[test]
    fn wire_bytes_dominate_payload(payload in 1u64..10_000_000) {
        for m in MODELS {
            let wire = m.wire_bytes(payload);
            prop_assert!(wire >= payload, "{m:?}");
            let eff = m.efficiency(payload);
            prop_assert!(eff > 0.0 && eff <= 1.0, "{m:?}: {eff}");
        }
    }

    /// Wire bytes are monotone in payload.
    #[test]
    fn wire_bytes_monotone(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for m in MODELS {
            prop_assert!(m.wire_bytes(lo) <= m.wire_bytes(hi), "{m:?}");
        }
    }

    /// The engine pops any schedule in nondecreasing time order, stably.
    #[test]
    fn engine_orders_any_schedule(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut e = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(t, i);
        }
        let mut last = (0u64, 0usize);
        let mut count = 0;
        while let Some((t, i)) = e.pop() {
            if count > 0 {
                prop_assert!(t > last.0 || (t == last.0 && i > last.1),
                    "stable time order violated");
            }
            last = (t, i);
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// A contended transfer is never faster than the same transfer on an
    /// idle fabric.
    #[test]
    fn transfer_at_least_estimate(
        payloads in proptest::collection::vec(1u64..500_000, 1..20),
    ) {
        let mut f = Fabric::ib_cluster(3);
        let cp = ControlPath::gpu_direct();
        let mut clock = 0u64;
        for &p in &payloads {
            let est = Fabric::ib_cluster(3).transfer(0, PeId(0), PeId(1), p, cp);
            let arrive = f.transfer(clock, PeId(0), PeId(1), p, cp);
            prop_assert!(arrive >= clock + est, "arrival before physics allows");
            clock += 17; // issue closely spaced to force contention
        }
    }

    /// Arrival times on one link are monotone in issue order.
    #[test]
    fn link_arrivals_monotone(payloads in proptest::collection::vec(1u64..100_000, 2..30)) {
        let mut f = Fabric::daisy(2);
        let cp = ControlPath::gpu_direct();
        let mut prev = 0u64;
        for (i, &p) in payloads.iter().enumerate() {
            let arrive = f.transfer(i as u64, PeId(0), PeId(1), p, cp);
            prop_assert!(arrive >= prev);
            prev = arrive;
        }
    }

    /// Cost model: time is monotone in tasks and edges, and saturated
    /// throughput never exceeds the span-bounded estimate.
    #[test]
    fn cost_model_monotone(tasks in 1usize..10_000, edges in 0u64..1_000_000, span in 0u64..5_000) {
        let m = GpuCostModel::v100();
        let span = span.min(edges);
        let t = m.step_ns(tasks, edges, span, false);
        prop_assert!(t >= m.step_ns(tasks, edges, span, true));
        prop_assert!(m.step_ns(tasks + 1, edges + 10, span, false) >= 1);
        prop_assert!(m.step_ns(tasks, edges + 100, span, false) >= t);
    }
}

// ---------------------------------------------------------------------------
// Engine equivalence oracle: a linear scan over every pending event defines
// the semantics; the engine must pop the exact same `(time, event)` sequence
// for any schedule.
// ---------------------------------------------------------------------------

/// The engine's contract, spelled as plainly as possible: pending events are
/// `(at.max(now), seq, id)` triples and each pop takes the minimum. `last`
/// is the `(time, seq)` key of the last pop.
#[derive(Default)]
struct Model {
    last: (u64, u64),
    next_seq: u64,
    pending: Vec<(u64, u64, usize)>,
}

impl Model {
    fn reserve_seqs(&mut self, n: u64) -> u64 {
        self.next_seq += n;
        self.next_seq - n
    }
    fn schedule_at_seq(&mut self, at: u64, seq: u64, id: usize) {
        self.pending.push((at.max(self.last.0), seq, id));
    }
    fn schedule_at(&mut self, at: u64, id: usize) {
        let seq = self.reserve_seqs(1);
        self.schedule_at_seq(at, seq, id);
    }
    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().min().map(|e| e.0)
    }
    fn pop(&mut self) -> Option<(u64, usize)> {
        let (i, _) = self.pending.iter().enumerate().min_by_key(|&(_, e)| *e)?;
        let (at, seq, id) = self.pending.swap_remove(i);
        self.last = (at, seq);
        Some((at, id))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Identical pop sequences over schedules spanning nanoseconds to
    /// seconds.
    #[test]
    fn engine_matches_model_on_random_schedules(
        times in proptest::collection::vec(0u64..1 << 32, 1..400),
    ) {
        let mut engine = Engine::new();
        let mut model = Model::default();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(t, i);
            model.schedule_at(t, i);
        }
        loop {
            let (a, b) = (engine.pop(), model.pop());
            prop_assert_eq!(a, b);
            prop_assert_eq!(engine.now(), model.last.0);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(engine.pending(), 0);
    }

    /// Equal-time bursts: tiny time domain maximizes ties, so ordering is
    /// dominated by the sequence-number tie-break.
    #[test]
    fn engine_matches_model_on_equal_time_bursts(
        times in proptest::collection::vec(0u64..8, 1..250),
    ) {
        let mut engine = Engine::new();
        let mut model = Model::default();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(t, i);
            model.schedule_at(t, i);
        }
        while let Some(got) = engine.pop() {
            prop_assert_eq!(Some(got), model.pop());
        }
        prop_assert_eq!(model.pop(), None);
    }

    /// Pop-interleaved scheduling: handlers scheduling relative to the
    /// advancing clock (including past times, which clamp) must stay in
    /// lockstep with the model.
    #[test]
    fn engine_matches_model_with_interleaved_pops(
        ops in proptest::collection::vec((0u64..1 << 24, 0u32..3), 1..200),
    ) {
        let mut engine = Engine::new();
        let mut model = Model::default();
        let mut id = 0usize;
        for &(delta, n) in ops.iter() {
            for _ in 0..=n {
                engine.schedule_after(delta, id);
                model.schedule_at(model.last.0 + delta, id);
                id += 1;
            }
            // A past time clamps to now in both.
            engine.schedule_at(delta / 2, id);
            model.schedule_at(delta / 2, id);
            id += 1;
            prop_assert_eq!(engine.pop(), model.pop());
            prop_assert_eq!(engine.now(), model.last.0);
            prop_assert_eq!(engine.peek_time(), model.peek_time());
        }
        while let Some(got) = engine.pop() {
            prop_assert_eq!(Some(got), model.pop());
        }
        prop_assert_eq!(model.pop(), None);
        prop_assert_eq!(engine.processed(), id as u64, "every filed event popped once");
    }

    /// Held-back events: any mix of plain `schedule_at`, sequence numbers
    /// reserved and filed later (after other events were scheduled and
    /// popped), and reservations never filed at all pops identically from
    /// the engine and the model — and in the order of the sequence numbers,
    /// not of the `schedule_at_seq` calls.
    #[test]
    fn engine_matches_model_with_reserved_sequence_numbers(
        ops in proptest::collection::vec((0u32..4, 0u64..1 << 24, 1u64..4), 1..250),
    ) {
        let mut engine = Engine::new();
        let mut model = Model::default();
        // Reserved and not yet filed: `(delay at reservation, seq)`.
        let mut held: Vec<(u64, u64)> = Vec::new();
        let mut id = 0usize;
        for &(op, delta, n) in ops.iter() {
            match op {
                0 => {
                    engine.schedule_after(delta, id);
                    model.schedule_at(model.last.0 + delta, id);
                    id += 1;
                }
                1 => {
                    let first = engine.reserve_seqs(n);
                    prop_assert_eq!(first, model.reserve_seqs(n));
                    // The last of the block is never filed.
                    held.extend((first..first + n - 1).map(|seq| (delta, seq)));
                }
                2 => {
                    // File the most recent reservation first: filing order
                    // must not matter.
                    if let Some((d, seq)) = held.pop() {
                        let at = engine.now() + d;
                        engine.schedule_at_seq(at, seq, id);
                        model.schedule_at_seq(at, seq, id);
                        id += 1;
                    }
                }
                _ => {
                    prop_assert_eq!(engine.pop(), model.pop());
                    prop_assert_eq!(engine.popped_seq(), model.last.1);
                    prop_assert_eq!(engine.peek_time(), model.peek_time());
                }
            }
        }
        let mut last = (0, 0);
        while let Some((t, ev)) = engine.pop() {
            prop_assert_eq!(Some((t, ev)), model.pop());
            prop_assert_eq!(engine.popped_seq(), model.last.1);
            prop_assert!((t, engine.popped_seq()) > last || last == (0, 0), "(time, seq) order");
            last = (t, engine.popped_seq());
        }
        prop_assert_eq!(model.pop(), None);
        prop_assert_eq!(engine.processed(), id as u64, "every filed event popped once");
    }

    /// Draining the engine window-by-window through `pop_before` yields
    /// exactly the model's pop sequence, including when new events are
    /// scheduled at the window boundary — the access pattern of the
    /// runtime's window loop.
    #[test]
    fn windowed_pop_before_matches_model(
        times in proptest::collection::vec(0u64..1 << 24, 1..300),
        lookahead in 1u64..50_000,
        boundary_extra in 0u64..3,
    ) {
        let mut engine = Engine::new();
        let mut model = Model::default();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(t, i);
            model.schedule_at(t, i);
        }
        let mut id = times.len();
        let mut budget = 16u32; // bound the boundary-insert replenishment
        loop {
            let t_min = engine.peek_time();
            prop_assert_eq!(t_min, model.peek_time());
            let Some(t_min) = t_min else { break };
            let horizon = t_min.saturating_add(lookahead);
            loop {
                let expect = if model.peek_time().is_some_and(|t| t < horizon) {
                    model.pop()
                } else {
                    None
                };
                let got = engine.pop_before(horizon);
                prop_assert_eq!(got, expect);
                prop_assert_eq!(engine.now(), model.last.0);
                if got.is_none() {
                    break;
                }
            }
            // Window-barrier inserts: doorbells filed at the barrier land at
            // or after the horizon.
            if budget > 0 {
                budget -= 1;
                for j in 0..boundary_extra {
                    let t = horizon.saturating_add(j * 977);
                    engine.schedule_at(t, id);
                    model.schedule_at(t, id);
                    id += 1;
                }
            }
        }
        prop_assert_eq!(engine.pending(), 0);
        prop_assert_eq!(model.pending.len(), 0);
    }
}
