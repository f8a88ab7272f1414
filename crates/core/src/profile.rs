//! Shard-aware profiling: per-shard window telemetry, an always-on
//! bounded flight recorder, and the run-level [`ShardProfile`] snapshot
//! the bench tooling (`atos-profile`) consumes.
//!
//! The sharded runtime (`Runtime::run_sharded`) is a window-barrier
//! protocol: understanding *why* a shard count underperforms requires
//! per-shard, per-window visibility — how long each thread sat in the
//! barrier, how far each safe horizon advanced, how many events each
//! shard executed per window, and how much cross-shard traffic moved at
//! each exchange. This module holds that telemetry:
//!
//! * [`WindowRecord`] — one window's measurements for one shard.
//! * [`FlightRecorder`] — a bounded ring of the last
//!   [`FLIGHT_CAPACITY`] window records, always on, zero steady-state
//!   allocation (the push path is pinned by `tests/alloc_count.rs` and
//!   `atos-lint`'s hot scope). Dumped to stderr when a sharded run
//!   panics, or to JSON via the bench binaries' `--flight-dump`.
//! * [`ShardTelemetry`] / [`FlightLog`] — the live accumulation side,
//!   shared with the worker threads during a run.
//! * [`ShardProfile`] — the finished, owned snapshot: per-shard
//!   histograms ([`atos_trace::Histogram`]), the per-window imbalance
//!   distribution, and derived diagnostics (barrier-overhead fraction,
//!   scaling headroom) exported into a [`MetricsRegistry`].
//!
//! **Determinism contract:** everything here is observation-only. The
//! barrier-wait numbers are *wall-clock* (the one legitimately
//! nondeterministic measurement — they exist to diagnose host behavior)
//! and flow only into histograms, flight records, and metrics keys that
//! the golden tests explicitly skip. Virtual-time results, `RunStats`,
//! and trace events never depend on anything recorded here.

use std::sync::{Arc, Mutex, Once, Weak};

use atos_sim::Time;
use atos_trace::{Histogram, MetricsRegistry};

/// Window records retained per shard in the flight recorder ring.
pub const FLIGHT_CAPACITY: usize = 64;

/// One execution window's measurements for one shard.
///
/// `published` counts the messages this shard staged during the
/// *previous* window (they cross the board at this window's opening
/// exchange); `drained` counts the rows merged into this shard at that
/// same exchange; `events` counts events this shard executed inside the
/// window; `barrier_wait_ns` is the owning thread's wall-clock wait
/// across both barriers of the iteration (attributed to every shard the
/// thread owns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowRecord {
    /// Window index (0-based, global across the run).
    pub window: u64,
    /// Global minimum next-event time that opened the window.
    pub t_min: Time,
    /// Safe execution horizon (`t_min + lookahead`).
    pub horizon: Time,
    /// Events this shard executed in `[t_min, horizon)`.
    pub events: u64,
    /// Cross-shard messages this shard published at the opening exchange.
    pub published: u64,
    /// Cross-shard messages this shard drained at the opening exchange.
    pub drained: u64,
    /// Owning thread's wall-clock barrier wait this iteration, ns.
    pub barrier_wait_ns: u64,
}

/// Bounded ring buffer of the last [`FLIGHT_CAPACITY`] window records.
///
/// Always on: the ring is allocated once at run start and `push`
/// overwrites the oldest slot — no allocation, no branch on a "enabled"
/// flag — so the recorder costs a few stores per window whether or not
/// anyone ever reads it. When a sharded run panics, the panic hook dumps
/// every live recorder to stderr (see [`register`]).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Box<[WindowRecord]>,
    head: usize,
    len: usize,
    total: u64,
}

impl FlightRecorder {
    /// Ring with capacity for `cap >= 1` records.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            ring: vec![WindowRecord::default(); cap.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Append one record, evicting the oldest when full. Allocation-free:
    /// one slot store plus cursor arithmetic.
    #[inline]
    pub fn push(&mut self, rec: WindowRecord) {
        self.ring[self.head] = rec;
        self.head = (self.head + 1) % self.ring.len();
        if self.len < self.ring.len() {
            self.len += 1;
        }
        self.total += 1;
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> Vec<WindowRecord> {
        let cap = self.ring.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len)
            .map(|i| self.ring[(start + i) % cap])
            .collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total records ever pushed (retained + evicted).
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// One shard's accumulated telemetry: scalar totals, the per-window
/// histograms, and the flight-recorder ring.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: usize,
    /// First PE this shard owns (inclusive).
    pub pe_lo: usize,
    /// One past the last PE this shard owns.
    pub pe_hi: usize,
    /// Windows executed.
    pub windows: u64,
    /// Total events executed.
    pub events: u64,
    /// Total cross-shard messages published.
    pub published: u64,
    /// Total cross-shard messages drained.
    pub drained: u64,
    /// Total wall-clock barrier wait, ns (thread-level, see
    /// [`WindowRecord::barrier_wait_ns`]).
    pub barrier_wait_total_ns: u64,
    /// Distribution of per-window barrier waits, ns.
    pub barrier_wait: Histogram,
    /// Distribution of per-window safe-horizon advances
    /// (`horizon - t_min`), virtual ns.
    pub window_span: Histogram,
    /// Distribution of events executed per window.
    pub window_events: Histogram,
    /// Last [`FLIGHT_CAPACITY`] window records.
    pub flight: FlightRecorder,
    /// Steal operations performed by this shard's PEs (0 under the
    /// owner-computes discipline; filled in by the sharded fold from the
    /// shard's `RunStats::lb_steals`).
    pub lb_steals: u64,
}

impl ShardTelemetry {
    /// Fresh telemetry for shard `shard` owning PEs `pe_lo..pe_hi`.
    pub fn new(shard: usize, pe_lo: usize, pe_hi: usize) -> Self {
        ShardTelemetry {
            shard,
            pe_lo,
            pe_hi,
            windows: 0,
            events: 0,
            published: 0,
            drained: 0,
            barrier_wait_total_ns: 0,
            barrier_wait: Histogram::new(),
            window_span: Histogram::new(),
            window_events: Histogram::new(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            lb_steals: 0,
        }
    }

    /// Fold one window record into the totals, histograms, and flight
    /// ring. Allocation-free (everything is preallocated).
    #[inline]
    pub fn record_window(&mut self, rec: WindowRecord) {
        self.windows += 1;
        self.events += rec.events;
        self.published += rec.published;
        self.drained += rec.drained;
        self.barrier_wait_total_ns += rec.barrier_wait_ns;
        self.barrier_wait.record(rec.barrier_wait_ns);
        self.window_span.record(rec.horizon.saturating_sub(rec.t_min));
        self.window_events.record(rec.events);
        self.flight.push(rec);
    }
}

/// The live, thread-shared accumulation side of a sharded run: one
/// mutex-guarded [`ShardTelemetry`] per shard (each locked only by the
/// shard's owning thread during the run — the mutex exists so the panic
/// hook can safely read mid-run) plus the run-wide per-window imbalance
/// distribution.
#[derive(Debug)]
pub struct FlightLog {
    shards: Vec<Mutex<ShardTelemetry>>,
    imbalance: Mutex<Histogram>,
}

impl FlightLog {
    /// Log for shards owning the given `(pe_lo, pe_hi)` ranges.
    pub fn new(ranges: &[(usize, usize)]) -> Self {
        FlightLog {
            shards: ranges
                .iter()
                .enumerate()
                .map(|(s, &(lo, hi))| Mutex::new(ShardTelemetry::new(s, lo, hi)))
                .collect(),
            imbalance: Mutex::new(Histogram::new()),
        }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Lock shard `s`'s telemetry (poison-tolerant: the panic hook reads
    /// through poisoning).
    pub fn shard(&self, s: usize) -> std::sync::MutexGuard<'_, ShardTelemetry> {
        self.shards[s].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one window's imbalance ratio, permille
    /// (`max_shard_events * 1000 / mean_shard_events`).
    pub fn record_imbalance(&self, permille: u64) {
        self.imbalance
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(permille);
    }

    /// Human-readable dump of every shard's flight ring — what the panic
    /// hook prints to stderr.
    pub fn dump_text(&self) -> String {
        let mut out = String::new();
        out.push_str("=== atos flight recorder (last windows per shard) ===\n");
        for m in &self.shards {
            let t = m.lock().unwrap_or_else(|e| e.into_inner());
            out.push_str(&format!(
                "shard {} (pe {}..{}): {} windows, {} events, {} pub, {} drain\n",
                t.shard, t.pe_lo, t.pe_hi, t.windows, t.events, t.published, t.drained
            ));
            for r in t.flight.records() {
                out.push_str(&format!(
                    "  w{} t_min={} horizon={} events={} pub={} drain={} wait_ns={}\n",
                    r.window, r.t_min, r.horizon, r.events, r.published, r.drained,
                    r.barrier_wait_ns
                ));
            }
        }
        out
    }
}

/// The finished, owned profile of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardProfile {
    /// Per-shard telemetry, indexed by shard.
    pub shards: Vec<ShardTelemetry>,
    /// Per-window imbalance ratios, permille (`max/mean * 1000` over the
    /// shards' window event counts). Deterministic — it is computed from
    /// virtual-time event counts only.
    pub imbalance: Histogram,
    /// Wall-clock duration of the parallel section, ns.
    pub wall_ns: u64,
    /// OS threads the run used.
    pub threads: usize,
    /// Conservative lookahead of the run, virtual ns.
    pub lookahead: Time,
    /// Barrier waits that exhausted the spin budget and yielded to the
    /// OS scheduler (all shards, both barriers).
    pub barrier_yield_waits: u64,
}

impl ShardProfile {
    /// Take ownership of a [`FlightLog`] (the run is over; this must be
    /// the only reference) and attach the run-level measurements.
    pub fn from_log(
        log: Arc<FlightLog>,
        wall_ns: u64,
        threads: usize,
        lookahead: Time,
        barrier_yield_waits: u64,
    ) -> Self {
        let log = Arc::try_unwrap(log).unwrap_or_else(|arc| FlightLog {
            shards: (0..arc.shards())
                .map(|s| Mutex::new(arc.shard(s).clone()))
                .collect(),
            imbalance: Mutex::new(arc.imbalance.lock().unwrap_or_else(|e| e.into_inner()).clone()),
        });
        ShardProfile {
            shards: log
                .shards
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect(),
            imbalance: log
                .imbalance
                .into_inner()
                .unwrap_or_else(|e| e.into_inner()),
            wall_ns,
            threads,
            lookahead,
            barrier_yield_waits,
        }
    }

    /// Fraction of the run's wall-clock time the average shard spent
    /// waiting at barriers, in `[0, 1]`. The classic conservative-PDES
    /// overhead number: near 0 means shards compute; near 1 means the
    /// window protocol dominates.
    pub fn barrier_frac(&self) -> f64 {
        if self.wall_ns == 0 || self.shards.is_empty() {
            return 0.0;
        }
        let mean_wait = self
            .shards
            .iter()
            .map(|s| s.barrier_wait_total_ns as f64)
            .sum::<f64>()
            / self.shards.len() as f64;
        (mean_wait / self.wall_ns as f64).min(1.0)
    }

    /// Median per-window imbalance ratio (`max/mean` shard events), 1.0
    /// when perfectly balanced. 1.0 when no window recorded one.
    pub fn imbalance_ratio(&self) -> f64 {
        if self.imbalance.is_empty() {
            1.0
        } else {
            self.imbalance.p50() as f64 / 1000.0
        }
    }

    /// Export every shard's counters and histograms plus the run-level
    /// diagnostics into `reg` under deterministic dotted keys
    /// (`shard<k>.*`, `sharded.*`).
    ///
    /// Wall-clock-derived keys (`shard<k>.barrier_wait*`,
    /// `sharded.wall_ns`, `sharded.barrier_frac_permille`,
    /// `sharded.barrier_yield_waits`) are nondeterministic by nature;
    /// golden tests skip them.
    pub fn fill_metrics(&self, reg: &mut MetricsRegistry) {
        for t in &self.shards {
            let p = |k: &str| format!("shard{}.{k}", t.shard);
            reg.set(&p("pe_lo"), t.pe_lo as u64);
            reg.set(&p("pe_hi"), t.pe_hi as u64);
            reg.set(&p("windows"), t.windows);
            reg.set(&p("events"), t.events);
            reg.set(&p("published"), t.published);
            reg.set(&p("drained"), t.drained);
            reg.set(&p("barrier_wait_total_ns"), t.barrier_wait_total_ns);
            reg.set(&p("lb_steals"), t.lb_steals);
            reg.set_histogram(&p("barrier_wait_ns"), t.barrier_wait.clone());
            reg.set_histogram(&p("window_span_ns"), t.window_span.clone());
            reg.set_histogram(&p("window_events"), t.window_events.clone());
        }
        reg.set("sharded.shards", self.shards.len() as u64);
        reg.set("sharded.threads", self.threads as u64);
        reg.set("sharded.wall_ns", self.wall_ns);
        reg.set("sharded.lookahead_ns", self.lookahead);
        reg.set("sharded.windows", self.shards.first().map_or(0, |s| s.windows));
        reg.set(
            "sharded.events",
            self.shards.iter().map(|s| s.events).sum::<u64>(),
        );
        reg.set(
            "sharded.published",
            self.shards.iter().map(|s| s.published).sum::<u64>(),
        );
        reg.set(
            "sharded.lb_steals",
            self.shards.iter().map(|s| s.lb_steals).sum::<u64>(),
        );
        reg.set(
            "sharded.barrier_frac_permille",
            (self.barrier_frac() * 1000.0).round() as u64,
        );
        reg.set("sharded.barrier_yield_waits", self.barrier_yield_waits);
        reg.set_histogram("sharded.imbalance_permille", self.imbalance.clone());
    }

    /// Deterministically ordered JSON dump of every shard's flight ring —
    /// the `--flight-dump` artifact. (Values include wall-clock waits, so
    /// the *content* is not run-reproducible; the schema and ordering
    /// are.)
    pub fn flight_json(&self) -> String {
        let mut out = String::from("{\n  \"shards\": [\n");
        for (i, t) in self.shards.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shard\": {}, \"pe_lo\": {}, \"pe_hi\": {}, \"windows\": {}, \"records\": [\n",
                t.shard, t.pe_lo, t.pe_hi, t.windows
            ));
            let recs = t.flight.records();
            for (j, r) in recs.iter().enumerate() {
                let sep = if j + 1 == recs.len() { "" } else { "," };
                out.push_str(&format!(
                    "      {{\"window\": {}, \"t_min\": {}, \"horizon\": {}, \"events\": {}, \
                     \"published\": {}, \"drained\": {}, \"barrier_wait_ns\": {}}}{sep}\n",
                    r.window, r.t_min, r.horizon, r.events, r.published, r.drained,
                    r.barrier_wait_ns
                ));
            }
            let sep = if i + 1 == self.shards.len() { "" } else { "," };
            out.push_str(&format!("    ]}}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Live flight logs the panic hook should dump, as weak refs so a
/// finished run's log is simply skipped.
static ACTIVE: Mutex<Vec<Weak<FlightLog>>> = Mutex::new(Vec::new());
static HOOK: Once = Once::new();

/// Register `log` for panic-time dumping (and install the process-wide
/// panic hook on first use). The hook chains the previous hook, so test
/// harness / backtrace output is unaffected.
pub fn register(log: &Arc<FlightLog>) {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let live: Vec<Arc<FlightLog>> = ACTIVE
                .lock()
                .map(|v| v.iter().filter_map(Weak::upgrade).collect())
                .unwrap_or_default();
            for log in live {
                eprintln!("{}", log.dump_text());
            }
            prev(info);
        }));
    });
    if let Ok(mut v) = ACTIVE.lock() {
        v.push(Arc::downgrade(log));
    }
}

/// Remove `log` from the panic-dump set (run finished normally).
pub fn unregister(log: &Arc<FlightLog>) {
    if let Ok(mut v) = ACTIVE.lock() {
        v.retain(|w| w.strong_count() > 0 && !Weak::ptr_eq(w, &Arc::downgrade(log)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(window: u64, events: u64) -> WindowRecord {
        WindowRecord {
            window,
            t_min: window * 100,
            horizon: window * 100 + 50,
            events,
            published: events / 2,
            drained: events / 3,
            barrier_wait_ns: 10 + window,
        }
    }

    #[test]
    fn flight_ring_evicts_oldest() {
        let mut f = FlightRecorder::new(4);
        assert!(f.is_empty());
        for w in 0..6 {
            f.push(rec(w, 1));
        }
        assert_eq!(f.len(), 4);
        assert_eq!(f.total(), 6);
        let got: Vec<u64> = f.records().iter().map(|r| r.window).collect();
        assert_eq!(got, vec![2, 3, 4, 5]);
    }

    #[test]
    fn telemetry_accumulates() {
        let mut t = ShardTelemetry::new(1, 4, 8);
        t.record_window(rec(0, 10));
        t.record_window(rec(1, 30));
        assert_eq!(t.windows, 2);
        assert_eq!(t.events, 40);
        assert_eq!(t.published, 20);
        assert_eq!(t.barrier_wait_total_ns, 21);
        assert_eq!(t.window_span.count(), 2);
        assert_eq!(t.window_span.max(), 50);
        assert_eq!(t.window_events.max(), 30);
        assert_eq!(t.flight.len(), 2);
    }

    #[test]
    fn profile_diagnostics() {
        let log = Arc::new(FlightLog::new(&[(0, 2), (2, 4)]));
        log.shard(0).record_window(rec(0, 30));
        log.shard(1).record_window(rec(0, 10));
        // max=30, mean=20 -> 1500 permille.
        log.record_imbalance(1500);
        let p = ShardProfile::from_log(log, 1000, 2, 77, 3);
        assert_eq!(p.shards.len(), 2);
        assert!((p.imbalance_ratio() - 1.5).abs() < 1e-9);
        // mean wait = (10 + 10)/2 = 10 ns of 1000 -> 0.01.
        assert!((p.barrier_frac() - 0.01).abs() < 1e-9);

        let mut reg = MetricsRegistry::new();
        p.fill_metrics(&mut reg);
        assert_eq!(reg.get("sharded.shards"), Some(2));
        assert_eq!(reg.get("sharded.events"), Some(40));
        assert_eq!(reg.get("shard1.pe_lo"), Some(2));
        assert!(reg.histogram("shard0.barrier_wait_ns").is_some());
        assert!(reg.histogram("sharded.imbalance_permille").is_some());
        assert_eq!(reg.get("sharded.barrier_yield_waits"), Some(3));

        let j = p.flight_json();
        let parsed = atos_trace::json::parse(&j).unwrap();
        let shards = parsed.get("shards").unwrap().as_arr().unwrap();
        assert_eq!(shards.len(), 2);

        let text = ShardProfile::from_log(
            Arc::new(FlightLog::new(&[(0, 1)])),
            0,
            1,
            0,
            0,
        );
        assert_eq!(text.imbalance_ratio(), 1.0);
        assert_eq!(text.barrier_frac(), 0.0);
    }

    #[test]
    fn register_unregister_round_trip() {
        let log = Arc::new(FlightLog::new(&[(0, 1)]));
        register(&log);
        unregister(&log);
        // No panic happened; this pins that the hook install + weak
        // bookkeeping paths run cleanly and idempotently.
        let log2 = Arc::new(FlightLog::new(&[(0, 1)]));
        register(&log2);
        unregister(&log2);
    }
}
