//! Sharded conservative-parallel decomposition of the event engine.
//!
//! The simulator's scaling unlock: partition PEs across `K` per-shard
//! timing wheels (the PR 5 wheel, unchanged) and synchronize them with
//! *conservative lookahead* — no shard may execute an event unless it is
//! provably unaffected by any event another shard has yet to execute.
//! The minimum cross-shard link latency is the natural lookahead: a
//! message issued at time `t` cannot arrive before `t + L`, so every
//! shard may safely run the window `[T_min, T_min + L)` where `T_min` is
//! the global minimum next-event time. Windows are separated by a
//! barrier at which staged cross-shard events are exchanged and merged in
//! a deterministic order (see [`ExchangeKey`]).
//!
//! Two pieces live here:
//!
//! * [`ExchangeKey`] and [`imbalance_permille`] — the window-barrier
//!   protocol's pure kernels, shared by the runtime in `atos-core`.
//! * [`ShardedEngine`] — a *sequential oracle* for the deterministic
//!   cross-shard seq-assignment rule: events are dealt round-robin across
//!   `K` wheels and popped by the globally minimal `(time, global_seq)`
//!   key. The property suite (`crates/sim/tests/properties.rs`) runs it in
//!   lockstep against the heap reference and the single wheel for
//!   `K ∈ {1, 2, 4, 8}`, pinning that sharding is unobservable in the
//!   event order.

use crate::engine::{Engine, Time};

/// Deterministic ordering key for events exchanged between shards at a
/// window barrier.
///
/// `t_key` is the destination-side delivery key fixed at egress time
/// (see `Fabric::transfer_egress`), `src` the emitting PE, and `counter`
/// that PE's monotone emission counter. The triple is unique per staged
/// message and — crucially — independent of how PEs are partitioned into
/// shards, so sorting a destination shard's incoming records by this key
/// yields exactly the destination-restricted subsequence of the global
/// sequential merge order for any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExchangeKey {
    /// Earliest possible destination-side delivery time, fixed at egress.
    pub t_key: Time,
    /// Emitting PE index.
    pub src: u32,
    /// Per-source-PE monotone emission counter (window-order tiebreak).
    pub counter: u64,
}

/// Per-window load-imbalance ratio over the shards' event counts, in
/// permille: `max * 1000 / mean`, i.e. `1000` means perfectly balanced
/// and `k * 1000` means one shard did all the work. `None` when no shard
/// executed an event (an exchange-only window).
///
/// Pure kernel of the shard telemetry layer: computed from virtual-time
/// event counts only, so the recorded distribution is deterministic for
/// a given workload and shard count.
pub fn imbalance_permille(shard_events: impl IntoIterator<Item = u64>) -> Option<u64> {
    let mut max = 0u64;
    let mut total = 0u64;
    let mut k = 0u64;
    for e in shard_events {
        max = max.max(e);
        total += e;
        k += 1;
    }
    if total == 0 {
        return None;
    }
    // max / (total / k) = max * k / total, in permille, rounded.
    Some((max.saturating_mul(k).saturating_mul(1000) + total / 2) / total)
}

/// Sequential oracle for the deterministic cross-shard merge rule.
///
/// Holds `K` independent timing wheels; `schedule_*` deals events
/// round-robin by a global sequence number, and `pop` returns the
/// globally minimal `(time, global_seq)` head among the wheels. Because
/// each wheel receives events in increasing global-sequence order, its
/// internal `(time, wheel_seq)` order coincides with `(time, global_seq)`
/// order, so the merged pop sequence is byte-identical to a single
/// engine's for every `K` — the invariant the parallel runtime relies on
/// and the property suite pins.
pub struct ShardedEngine<E> {
    wheels: Vec<Engine<(u64, E)>>,
    gseq: u64,
    now: Time,
    len: usize,
    processed: u64,
    max_pending: usize,
}

impl<E> ShardedEngine<E> {
    /// Fresh sharded engine with `shards >= 1` wheels, at time zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedEngine {
            wheels: (0..shards).map(|_| Engine::new()).collect(),
            gseq: 0,
            now: 0,
            len: 0,
            processed: 0,
            max_pending: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.wheels.len()
    }

    /// Current virtual time (timestamp of the last event popped).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at` (clamped to `now`, like
    /// [`Engine::schedule_at`]).
    pub fn schedule_at(&mut self, at: Time, event: E) {
        // Clamp against the *global* clock: the target wheel's own clock
        // lags it (each wheel only advances when popped from).
        let at = at.max(self.now);
        let w = (self.gseq % self.wheels.len() as u64) as usize;
        self.wheels[w].schedule_at(at, (self.gseq, event));
        self.gseq += 1;
        self.len += 1;
        if self.len > self.max_pending {
            self.max_pending = self.len;
        }
    }

    /// Schedule `event` after `delay` relative to now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Pop the globally next event: minimal `(time, global_seq)` over all
    /// wheel heads.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let mut best: Option<(Time, u64, usize)> = None;
        for (w, wheel) in self.wheels.iter().enumerate() {
            if let Some((t, &(g, _))) = wheel.peek() {
                let better = match best {
                    None => true,
                    Some((bt, bg, _)) => (t, g) < (bt, bg),
                };
                if better {
                    best = Some((t, g, w));
                }
            }
        }
        let (_, _, w) = best?;
        let (t, (_, event)) = self.wheels[w].pop()?;
        self.now = t;
        self.len -= 1;
        self.processed += 1;
        Some((t, event))
    }

    /// Timestamp of the globally next pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.wheels.iter().filter_map(|w| w.peek_time()).min()
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Whether no events remain anywhere.
    pub fn is_idle(&self) -> bool {
        self.len == 0
    }

    /// Total events processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of total simultaneously pending events.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }
}

impl<E> core::fmt::Debug for ShardedEngine<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.wheels.len())
            .field("now", &self.now)
            .field("pending", &self.len)
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_order_matches_single_engine() {
        for k in [1usize, 2, 3, 4, 8] {
            let mut single = Engine::new();
            let mut sharded = ShardedEngine::new(k);
            // Equal times exercise the (time, seq) tiebreak across wheels.
            let times = [50u64, 10, 10, 700, 10, 50, 3_000_000, 50, 0, 10];
            for (i, &t) in times.iter().enumerate() {
                single.schedule_at(t, i);
                sharded.schedule_at(t, i);
            }
            while let Some(expect) = single.pop() {
                assert_eq!(sharded.pop(), Some(expect), "k={k}");
                assert_eq!(sharded.now(), single.now(), "k={k}");
            }
            assert_eq!(sharded.pop(), None);
            assert!(sharded.is_idle());
        }
    }

    #[test]
    fn clamps_against_global_clock() {
        let mut s = ShardedEngine::new(4);
        s.schedule_at(100, "a");
        assert_eq!(s.pop(), Some((100, "a")));
        // A wheel that never popped still files this at the global now.
        s.schedule_at(5, "late");
        assert_eq!(s.pop(), Some((100, "late")));
    }

    #[test]
    fn imbalance_permille_ratios() {
        // Balanced: every shard equal.
        assert_eq!(imbalance_permille([10, 10, 10, 10]), Some(1000));
        // One shard does all the work of 4: ratio 4.0.
        assert_eq!(imbalance_permille([40, 0, 0, 0]), Some(4000));
        // max=30, mean=20 -> 1.5.
        assert_eq!(imbalance_permille([30, 10]), Some(1500));
        // Exchange-only window.
        assert_eq!(imbalance_permille([0, 0]), None);
        assert_eq!(imbalance_permille([]), None);
    }

    #[test]
    fn exchange_key_orders_by_time_then_source_then_counter() {
        let k = |t, s, c| ExchangeKey { t_key: t, src: s, counter: c };
        let mut v = [k(5, 1, 0), k(5, 0, 1), k(4, 9, 9), k(5, 0, 0)];
        v.sort();
        assert_eq!(v, [k(4, 9, 9), k(5, 0, 0), k(5, 0, 1), k(5, 1, 0)]);
    }
}
