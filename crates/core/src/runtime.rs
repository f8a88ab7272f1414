//! The Atos scheduler: persistent/discrete kernel loops over distributed
//! queues, with in-kernel one-sided communication, executed in virtual
//! time.
//!
//! Execution model (paper Listing 3): each PE repeatedly pops a batch of
//! tasks (up to `num_workers × fetch`), applies the application's `f1` to
//! each, pushes newly generated local tasks to its own queue and remote
//! tasks toward their owners. A PE with nothing to pop runs `f2`
//! ([`Application::on_idle`]) once and then sleeps until a remote arrival
//! wakes it. The run ends when every queue is empty and no message is in
//! flight — which in the event-driven formulation is simply "no events
//! remain".
//!
//! ## What time is charged where
//!
//! * A scheduling step costs [`GpuCostModel::batch_ns`] (work/span over
//!   the popped tasks); discrete mode adds a kernel launch + host sync
//!   per step.
//! * Remote pushes issued during a step leave at times *spread across the
//!   step* — this models Atos's in-kernel communication and is what makes
//!   communication/computation overlap real in the simulation. A
//!   kernel-boundary framework would emit everything at the end of the
//!   step (that is exactly what the baselines in `atos-baselines` do).
//! * Each message pays the GPU-resident control path
//!   ([`ControlPath::gpu_direct`]) plus fabric serialization and latency.
//! * In aggregated mode, pushes are counted into per-destination
//!   [`Bundle`]s instead, and bundles leave on the size/age triggers.

use std::sync::Arc;
use std::time::Instant;

use atos_graph::Lookahead;
use atos_queue::sync::{thread, AtomicU64, Ordering};
use atos_sim::{imbalance_permille, ControlPath, Engine, Fabric, GpuCostModel, Time};
use atos_trace::{NullTracer, TraceBuffer, Tracer, Track};

use crate::aggregator::Bundle;
use crate::app::{Application, IdleOutcome, ShardableApp};
use crate::comm::{Comm, Outbox, OutboxBoard, Rx};
use crate::config::{AtosConfig, KernelMode, QueueMode};
use crate::emitter::Emitter;
use crate::metrics::RunStats;
use crate::profile::{self, FlightLog, ShardProfile, WindowRecord};
use crate::sharded::SpinBarrier;
use crate::workqueue::WorkQueue;

use atos_macros::atos_hot;

/// Delay between a remote arrival and an idle persistent worker noticing
/// it (one poll of the receive queue's `end` counter).
pub(crate) const WAKE_POLL_NS: Time = 400;

/// Hard cap on processed events — a runaway guard for mis-configured
/// applications (e.g. a task that re-emits itself forever).
const MAX_EVENTS: u64 = 200_000_000;

/// Outlined abort for the [`MAX_EVENTS`] runaway guard, kept out of the
/// `run_window` kernel scope.
// Outlined failure path, vetted: deliberate abort on the runaway guard.
#[cold]
#[inline(never)]
// atos-lint: allow(panic_in_kernel)
fn runaway_abort(processed: u64) -> ! {
    panic!("runaway simulation: {processed} events");
}

/// How many batch positions ahead of its `process` a task is announced to
/// [`Application::prefetch`] with `Lookahead::Far` (its index entries and
/// own state). Constants, not configuration — the sweep that chose them, on
/// the repo benchmark's mesh BFS (`tasks_per_sweep_edge`, seed 23, three
/// rounds): none 0.149–0.171, (2, 1) 0.174–0.181, (4, 2) 0.198–0.204,
/// (8, 4) 0.222–0.235, (16, 8) 0.227–0.238, (32, 16) 0.224–0.237. Flat from
/// here up, and the first `PREFETCH_FAR` tasks of a batch run unannounced,
/// so the smallest flat pair it is (DESIGN.md §4.8).
const PREFETCH_FAR: usize = 8;
/// Positions ahead for `Lookahead::Near` (the rows those entries locate).
const PREFETCH_NEAR: usize = 4;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Run one scheduling step on a PE.
    Step { pe: usize },
    /// Doorbell: an arrival reaches a PE that has no step coming to
    /// collect it from its receive lanes (`comm`).
    Arrive { dst: usize },
    /// Aggregator age-trigger poll on a PE.
    AggPoll { pe: usize },
}

/// Framework-behavior knobs that distinguish Atos from the baseline
/// frameworks modeled on the same runtime (Groute, Galois). Atos defaults;
/// the `atos-baselines` crate overrides them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeTuning {
    /// Who runs the communication control path. Atos: the GPU. Groute /
    /// Galois: the host CPU.
    pub control: ControlPath,
    /// Whether remote pushes leave *during* a kernel (Atos's in-kernel
    /// one-sided communication) or only at the kernel boundary
    /// (traditional frameworks collect communication and issue it in bulk
    /// at the end of the kernel).
    pub in_kernel_comm: bool,
    /// Gluon-style per-round synchronization metadata: if nonzero, every
    /// scheduling step that communicates also broadcasts this many bytes
    /// (update bitvectors / offsets) to every peer before its payload.
    pub round_metadata_bytes: u64,
    /// Host-side serialization cost per metadata byte, ns. Gluon packs and
    /// unpacks its per-round update structures on the CPU; this charge —
    /// paid per peer, per communicating round, on the sender's critical
    /// path — is what makes bulk-asynchronous frameworks *slower* with
    /// more peers (Table V's anti-scaling).
    pub metadata_cpu_ns_per_byte: f64,
}

impl Default for RuntimeTuning {
    fn default() -> Self {
        RuntimeTuning {
            control: ControlPath::gpu_direct(),
            in_kernel_comm: true,
            round_metadata_bytes: 0,
            metadata_cpu_ns_per_byte: 0.0,
        }
    }
}

pub(crate) struct Pe<T> {
    pub(crate) queue: WorkQueue<T>,
    /// Arrivals resolved at a barrier and not yet handed to the
    /// application (`comm`).
    pub(crate) rx: Rx<T>,
    /// The open aggregator bundle toward each destination: counts only —
    /// the tasks ride in the trains `comm` stages.
    pub(crate) agg: Vec<Bundle>,
    pub(crate) step_scheduled: bool,
    pub(crate) agg_poll_scheduled: bool,
    /// Fire time of the pending aggregator poll (valid only while
    /// `agg_poll_scheduled`). A later flush window whose earliest deadline
    /// is not before this needs no extra wakeup — one timer covers the
    /// whole window, not one per buffered destination.
    pub(crate) agg_poll_deadline: Time,
    idle_ran: bool,
    /// Monotone count of messages this PE has emitted — the
    /// `ExchangeKey::counter` tiebreak, deterministic because it is
    /// advanced only by this PE's own (shard-local) events.
    pub(crate) emitted: u64,
}

/// The Atos runtime: an [`Application`] executing under an [`AtosConfig`]
/// on a simulated [`Fabric`].
///
/// `Tr` is the virtual-time event sink, defaulting to [`NullTracer`]: the
/// tracing calls are monomorphized, so the default compiles to the exact
/// pre-instrumentation runtime (no branches, no allocations — pinned by
/// `tests/alloc_count.rs`). Use [`Runtime::with_tracer`] to collect a
/// timeline into an `atos_trace::TraceBuffer` (or any `&mut dyn Tracer`).
pub struct Runtime<A: Application, Tr: Tracer = NullTracer> {
    pub(crate) engine: Engine<Ev>,
    pub(crate) fabric: Fabric,
    cost: GpuCostModel,
    pub(crate) cfg: AtosConfig,
    pub(crate) app: A,
    pub(crate) pes: Vec<Pe<A::Task>>,
    pub(crate) stats: RunStats,
    pub(crate) tuning: RuntimeTuning,
    /// One emitter recycled across every PE's steps (cleared, never freed).
    em: Emitter<A::Task>,
    /// Pop-batch scratch recycled across steps.
    batch: Vec<A::Task>,
    /// Outbox, train pool and receive scratch (`comm`).
    pub(crate) comm: Comm<A::Task>,
    /// Exclusive end of the last window executed: every event before it
    /// has run, every arrival before it counts as delivered.
    pub(crate) horizon: Time,
    /// Virtual-time event sink ([`NullTracer`] unless built with
    /// [`Runtime::with_tracer`]).
    pub(crate) tracer: Tr,
    /// Telemetry of the last sharded run (`None` after a sequential run
    /// or the `k <= 1` / shard-conflict fallback). See
    /// [`Runtime::take_shard_profile`].
    shard_profile: Option<ShardProfile>,
    /// PE range steals may draw from: the whole machine sequentially, the
    /// owning shard's `lo..hi` under `run_sharded` — work never migrates
    /// across shards, which is what keeps each shard's event order
    /// sequential and the PDES protocol conservative.
    pub(crate) steal_range: (usize, usize),
}

impl<A: Application> Runtime<A> {
    /// Build a runtime over `fabric` with the V100 cost model.
    pub fn new(app: A, fabric: Fabric, cfg: AtosConfig) -> Self {
        Self::with_cost_model(app, fabric, cfg, GpuCostModel::v100())
    }

    /// Build with an explicit cost model (ablations).
    pub fn with_cost_model(app: A, fabric: Fabric, cfg: AtosConfig, cost: GpuCostModel) -> Self {
        Self::with_tuning(app, fabric, cfg, cost, RuntimeTuning::default())
    }

    /// Build with explicit framework-behavior tuning — how the baseline
    /// frameworks (Groute-, Galois-like) are modeled on this runtime.
    pub fn with_tuning(
        app: A,
        fabric: Fabric,
        cfg: AtosConfig,
        cost: GpuCostModel,
        tuning: RuntimeTuning,
    ) -> Self {
        Runtime::with_tracer(app, fabric, cfg, cost, tuning, NullTracer)
    }
}

impl<A: Application, Tr: Tracer> Runtime<A, Tr> {
    /// Build with an explicit virtual-time tracer (see [`atos_trace`]):
    /// per-PE kernel-step spans, message send→arrive instants, aggregator
    /// flush windows, and occupancy counters are recorded into `tracer`.
    pub fn with_tracer(
        app: A,
        fabric: Fabric,
        cfg: AtosConfig,
        cost: GpuCostModel,
        tuning: RuntimeTuning,
        tracer: Tr,
    ) -> Self {
        // (`n_pes`, not `n`: atos-lint's taint pass is name-based, and `n`
        // is the barrier's host-thread count.)
        let n_pes = fabric.n_pes();
        assert!(n_pes <= u16::MAX as usize, "staged messages name PEs in 16 bits");
        let pes = (0..n_pes)
            .map(|_| Pe {
                queue: match cfg.queue {
                    QueueMode::Standard => WorkQueue::standard(),
                    QueueMode::Priority {
                        threshold,
                        threshold_delta,
                    } => WorkQueue::priority(threshold, threshold_delta),
                },
                rx: Rx::new(n_pes),
                agg: vec![Bundle::default(); n_pes],
                step_scheduled: false,
                agg_poll_scheduled: false,
                agg_poll_deadline: 0,
                idle_ran: false,
                emitted: 0,
            })
            .collect();
        let mut stats = RunStats::new(n_pes);
        stats.lb_discipline = cfg.lb.code() as u64;
        Runtime {
            engine: Engine::new(),
            fabric,
            cost,
            cfg,
            app,
            pes,
            stats,
            tuning,
            em: Emitter::new(0, n_pes),
            batch: Vec::new(),
            comm: Comm::default(),
            horizon: 0,
            tracer,
            shard_profile: None,
            steal_range: (0, n_pes),
        }
    }

    /// Borrow the tracer (inspect the collected timeline after `run`).
    pub fn tracer(&self) -> &Tr {
        &self.tracer
    }

    /// Borrow the last sharded run's telemetry, if any.
    pub fn shard_profile(&self) -> Option<&ShardProfile> {
        self.shard_profile.as_ref()
    }

    /// Take the last sharded run's telemetry (per-shard window
    /// histograms, flight-recorder rings, barrier diagnostics). `None`
    /// after sequential runs, including the `run_sharded` fallbacks.
    pub fn take_shard_profile(&mut self) -> Option<ShardProfile> {
        self.shard_profile.take()
    }

    /// Number of PEs.
    pub fn n_pes(&self) -> usize {
        self.fabric.n_pes()
    }

    /// Borrow the application (inspect results after `run`).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Consume the runtime, returning the application.
    pub fn into_app(self) -> A {
        self.app
    }

    /// Seed initial tasks on a PE (before `run`). The initial scheduling
    /// steps are created by `run`'s bootstrap in ascending PE order, so
    /// seeding order never influences the event sequence.
    pub fn seed(&mut self, pe: usize, tasks: impl IntoIterator<Item = A::Task>) {
        for t in tasks {
            let prio = self.app.priority(&t);
            self.pes[pe].queue.push(t, prio);
        }
        self.note_queue_depth(pe);
    }

    /// Track the worklist occupancy high-water mark after a push burst.
    #[inline]
    #[atos_hot]
    fn note_queue_depth(&mut self, pe: usize) {
        let len = self.pes[pe].queue.len() as u64;
        if len > self.stats.queue_hwm_per_pe[pe] {
            self.stats.queue_hwm_per_pe[pe] = len;
        }
    }

    /// Execute to global quiescence; returns the run's measurements.
    ///
    /// Execution proceeds in *windows*: events strictly before the safe
    /// horizon `T_min + lookahead` run, then the outbox of messages
    /// emitted during the window is resolved into the destinations'
    /// receive lanes in deterministic [`atos_sim::ExchangeKey`] order
    /// ([`crate::comm`]). The lookahead — the minimum time any message
    /// needs to reach another PE — guarantees no resolved arrival can land
    /// inside the window that produced it, so this loop
    /// computes the same schedule whether the windows of different PEs
    /// run on one thread (here) or on many ([`Runtime::run_sharded`]).
    pub fn run(&mut self) -> RunStats {
        let n = self.pes.len();
        self.bootstrap(0, n);
        let lookahead = self.lookahead();
        loop {
            self.merge_exchange();
            let Some(t_min) = self.next_event_time() else {
                break;
            };
            self.run_window(t_min.saturating_add(lookahead));
        }
        self.finish_stats();
        self.stats.clone()
    }

    /// Conservative lookahead: no message emitted at `t` can be delivered
    /// before `t + lookahead`, because every route pays at least the
    /// control path's injection overhead plus the fabric's minimum
    /// remote latency. A fabric with no remote routes (single PE) has
    /// unbounded lookahead — one window drains the whole run.
    fn lookahead(&self) -> Time {
        match self.fabric.min_remote_latency_ns() {
            Some(lat) => self.tuning.control.inject_ns.saturating_add(lat),
            None => Time::MAX,
        }
    }

    /// Schedule the initial scheduling step for every seeded PE in
    /// `lo..hi`, in ascending PE order — the same relative order any
    /// shard's restriction of the sequence would have.
    fn bootstrap(&mut self, lo: usize, hi: usize) {
        for pe in lo..hi {
            if !self.pes[pe].queue.is_empty() && !self.pes[pe].step_scheduled {
                self.pes[pe].step_scheduled = true;
                self.pes[pe].idle_ran = false;
                self.engine.schedule_in(0, Ev::Step { pe });
            }
        }
    }

    /// Dispatch every event strictly before `horizon`. Each event belongs
    /// to one PE, whose receive side is settled up to the event's own key
    /// before the handler looks at it.
    #[atos_hot]
    pub(crate) fn run_window(&mut self, horizon: Time) {
        while let Some((at, ev)) = self.engine.pop_before(horizon) {
            let key = (at, self.engine.popped_seq());
            // Per-event-kind dispatch counts (the engine is generic over
            // the event payload, so the kinds are tallied here).
            match ev {
                Ev::Step { pe } => {
                    self.stats.ev_steps += 1;
                    self.settle(pe, key);
                    self.step(pe);
                }
                Ev::Arrive { dst } => {
                    self.stats.ev_arrivals += 1;
                    self.arrive(dst, key);
                }
                Ev::AggPoll { pe } => {
                    self.stats.ev_agg_polls += 1;
                    self.settle(pe, key);
                    self.agg_poll(pe);
                }
            }
            if self.engine.processed() >= MAX_EVENTS {
                runaway_abort(self.engine.processed());
            }
        }
        self.horizon = horizon;
        self.settle_window();
    }

    /// Fill the trace- and engine-derived summary statistics after the
    /// event loop drains.
    fn finish_stats(&mut self) {
        debug_assert!(
            self.pes.iter().all(|p| p.rx.is_drained()) && self.comm.outbox.is_empty(),
            "run ended with an undelivered arrival or a train still held"
        );
        // Extend the utilization series to the true run end so trailing
        // compute-only time counts toward the burstiness statistic.
        self.fabric.trace.finish(self.engine.now());
        self.stats.elapsed_ns = self.engine.now();
        self.stats.wire_bytes = self.fabric.trace.total_wire_bytes();
        self.stats.burstiness = self.fabric.trace.burstiness();
        self.stats.sim_events = self.engine.processed();
        self.stats.peak_pending_events = self.engine.max_pending() as u64;
    }

    /// The fabric's traffic trace (after `run`).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    #[atos_hot]
    pub(crate) fn wake(&mut self, pe: usize, delay: Time) {
        if !self.pes[pe].step_scheduled && !self.pes[pe].queue.is_empty() {
            self.pes[pe].step_scheduled = true;
            self.pes[pe].idle_ran = false;
            self.engine.schedule_in(delay, Ev::Step { pe });
        }
    }

    #[atos_hot]
    fn step(&mut self, pe: usize) {
        self.pes[pe].step_scheduled = false;
        // Persistent workers pop in fetch-sized rounds; a discrete kernel
        // is launched over the whole current queue snapshot (its grid
        // covers the frontier), so launch overhead amortizes over the full
        // eligible batch.
        let cap = match self.cfg.kernel {
            KernelMode::Persistent => self.cfg.worker.round_capacity(),
            KernelMode::Discrete => usize::MAX,
        };
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        let mut got = self.pes[pe].queue.pop_batch(cap, &mut batch);
        let now = self.engine.now();

        // An empty pop tries to pull a group from a busier in-range peer
        // before falling to the idle handler (`loadbalance`). Stolen work
        // executes under the *victim's* identity (`exec_pe`) — owner-
        // computes state, sender-side mirrors, and message routing all see
        // the owner — while busy time and step accounting stay on the
        // thief: the work moved, the data did not.
        let mut exec_pe = pe;
        if got == 0 {
            if let Some((victim, taken)) = self.try_steal(pe, cap, &mut batch) {
                exec_pe = victim;
                got = taken;
            }
        }

        if got == 0 {
            self.batch = batch;
            // f2: one idle-handler invocation per idle transition.
            if !self.pes[pe].idle_ran {
                self.pes[pe].idle_ran = true;
                let mut em = std::mem::take(&mut self.em);
                em.reset_for(pe);
                if self.app.on_idle(pe, &mut em) == IdleOutcome::Refilled {
                    self.absorb_local(pe, &mut em);
                    self.dispatch_remote(pe, &mut em, now, 0);
                    self.wake(pe, 0);
                }
                self.em = em;
            }
            // If that left the PE idle, no step is coming to collect what is
            // still in its receive lanes.
            self.ring_doorbell(pe);
            return;
        }

        self.stats.steps_per_pe[pe] += 1;
        self.stats.tasks_per_pe[pe] += got as u64;

        let mut em = std::mem::take(&mut self.em);
        em.reset_for(exec_pe);
        let (edges, span) = self.process_batch(exec_pe, &batch, &mut em);
        self.stats.edges_per_pe[pe] += edges;

        // A full round (queue held more than we popped) runs at pure
        // throughput: hubs pipeline with following batches. Discrete
        // kernels saturate once the snapshot is several times the
        // resident-worker count.
        let saturated = got == cap || got >= 4 * self.cost.resident_workers;
        let mut busy = self.cost.step_ns(got, edges, span, saturated);
        if self.cfg.kernel == KernelMode::Discrete {
            busy += self.cost.kernel_cycle_ns();
        }
        self.stats.busy_ns_per_pe[pe] += busy;
        if self.tracer.is_enabled() {
            self.tracer.span(
                Track::pe(pe),
                now,
                busy,
                if exec_pe == pe { "step" } else { "steal" },
                ["tasks", "edges"],
                [got as u64, edges],
            );
            // Worklist occupancy at the start of the step: the popped
            // batch plus whatever remained in the queue.
            let remaining = self.pes[pe].queue.len() as u64;
            self.tracer
                .counter(Track::pe(pe), now, "worklist", got as u64 + remaining);
        }

        self.absorb_local(exec_pe, &mut em);
        self.dispatch_remote(exec_pe, &mut em, now, busy);
        self.em = em;
        self.batch = batch;
        if exec_pe != pe {
            // Local emissions of stolen work landed on the victim's
            // queue; make sure the victim has a step coming for them
            // (no-op while one is already scheduled, the common case).
            self.wake(exec_pe, busy);
        }

        // Next scheduling round once this one's virtual time has elapsed.
        // If the queue is empty by then (no arrival beat it), that step
        // tries to steal and otherwise runs the f2 idle handler exactly
        // once.
        self.pes[pe].idle_ran = false;
        self.pes[pe].step_scheduled = true;
        self.engine.schedule_in(busy, Ev::Step { pe });
        // Backlog that survived this round is on offer to drained in-range
        // peers once the busy window closes.
        self.wake_idle_peers(pe, exec_pe, busy);
    }

    /// Run a popped batch — a PE's own work or a stolen group — through the
    /// application, as a two-stage software pipeline: the model keeps
    /// `resident_workers` tasks in flight and the hardware overlaps their
    /// cache misses; one host thread runs them one at a time, so each task
    /// is announced [`PREFETCH_FAR`] and again [`PREFETCH_NEAR`] positions
    /// before it runs ([`Application::prefetch`]). Returns the batch's total
    /// and largest `task_edges`.
    #[inline]
    #[atos_hot]
    fn process_batch(
        &mut self,
        exec_pe: usize,
        batch: &[A::Task],
        em: &mut Emitter<A::Task>,
    ) -> (u64, u64) {
        let mut edges = 0u64;
        let mut span = 0u64;
        for (i, &t) in batch.iter().enumerate() {
            if let Some(far) = batch.get(i + PREFETCH_FAR) {
                self.app.prefetch(far, Lookahead::Far);
            }
            if let Some(near) = batch.get(i + PREFETCH_NEAR) {
                self.app.prefetch(near, Lookahead::Near);
            }
            let e = self.app.task_edges(&t);
            edges += e;
            span = span.max(e);
            self.app.process(exec_pe, t, em);
        }
        (edges, span)
    }

    #[atos_hot]
    fn absorb_local(&mut self, pe: usize, em: &mut Emitter<A::Task>) {
        for t in em.local.drain(..) {
            let prio = self.app.priority(&t);
            self.pes[pe].queue.push(t, prio);
        }
        self.note_queue_depth(pe);
    }
}

impl<A: ShardableApp, Tr: Tracer> Runtime<A, Tr> {
    /// Execute to global quiescence with PEs partitioned across `k`
    /// shards, each stepping its own engine and fabric clone on an OS
    /// thread — conservative parallel discrete-event simulation with the
    /// window-barrier protocol.
    ///
    /// The result is **byte-identical** to [`Runtime::run`]: within a
    /// shard events execute in the same `(time, seq)` order as the
    /// sequential run's restriction to that shard's PEs, and cross-shard
    /// messages merge at each barrier in the shard-count-independent
    /// [`atos_sim::ExchangeKey`] order. Only wall-clock time changes. With a
    /// tracer attached, the per-PE/aggregation timeline is also
    /// byte-identical to the sequential run's (after sorting, which the
    /// Chrome exporter does); sharded runs additionally emit `window`
    /// spans and `exchange` instants on per-shard [`Track::shard`]
    /// tracks, stamped purely in virtual time.
    ///
    /// Every sharded run also collects a [`ShardProfile`] — per-shard
    /// window histograms, an always-on flight-recorder ring (dumped to
    /// stderr if the run panics), wall-clock barrier waits, and the
    /// per-window load-imbalance distribution — retrievable afterwards
    /// via [`Runtime::take_shard_profile`].
    ///
    /// OS threads are capped at the host's available parallelism (logical
    /// shards beyond that share threads), so `k` larger than the machine
    /// degrades gracefully instead of thrashing. Partitions that would
    /// make two shards mutate one link (e.g. cross-socket traffic sharing
    /// a Summit X-bus) fall back to the sequential path, as does `k <= 1`.
    pub fn run_sharded(&mut self, k: usize) -> RunStats {
        let threads = atos_queue::sync::host_parallelism().min(k.max(1));
        self.run_sharded_on(k, threads)
    }

    /// [`Runtime::run_sharded`] with an explicit OS-thread count —
    /// exposed so tests can force multi-thread execution (or
    /// oversubscription) regardless of the host's core count.
    pub fn run_sharded_on(&mut self, k: usize, threads: usize) -> RunStats {
        let n = self.pes.len();
        let k = k.clamp(1, n.max(1));
        let ranges: Vec<(usize, usize)> = (0..k).map(|s| (s * n / k, (s + 1) * n / k)).collect();
        let mut shard_of = vec![0usize; n];
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            shard_of[lo..hi].fill(s);
        }
        self.shard_profile = None;
        if k == 1 || self.fabric.shard_conflicts(&shard_of) {
            // Identical output by construction — the sequential window
            // loop runs the same schedule on one engine.
            return self.run();
        }
        let threads = threads.clamp(1, k);
        let lookahead = self.lookahead();

        // One sub-runtime per shard: forked application state, a fabric
        // clone (each link is mutated by exactly one shard — checked
        // above), and the parent's seeded queues moved in for owned PEs.
        // Each shard collects its own trace buffer iff the parent tracer
        // is live; `Option<TraceBuffer>`'s `None` path is the same
        // zero-work guard as `NullTracer`, just decided at run time.
        let collect_trace = self.tracer.is_enabled();
        let mut subs: Vec<ShardRuntime<A>> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let mut sub = Runtime::with_tracer(
                    self.app.fork(lo, hi),
                    self.fabric.clone(),
                    self.cfg,
                    self.cost,
                    self.tuning,
                    collect_trace.then(TraceBuffer::new),
                );
                for pe in lo..hi {
                    std::mem::swap(&mut sub.pes[pe].queue, &mut self.pes[pe].queue);
                }
                // Steals stay within the shard, so each shard's event
                // order remains sequential and the exchange protocol
                // stays conservative.
                sub.steal_range = (lo, hi);
                sub.bootstrap(lo, hi);
                sub
            })
            .collect();

        let board: OutboxBoard<A::Task> = OutboxBoard::new(k);
        let barrier = SpinBarrier::new(threads);
        let next_times: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        // Per-shard events-executed-last-window cells, feeding the
        // imbalance telemetry (deterministic: virtual-time counts only).
        let win_events: Vec<AtomicU64> = (0..k).map(|_| AtomicU64::new(0)).collect();
        // Always-on telemetry: per-shard window records + flight rings,
        // registered with the panic hook for crash-time dumping.
        let flight = Arc::new(FlightLog::new(&ranges));
        profile::register(&flight);
        let wall = Instant::now();

        // Contiguous shard groups per thread; each thread steps its own
        // shards sequentially within every phase.
        {
            let mut groups: Vec<(usize, &mut [ShardRuntime<A>])> = Vec::with_capacity(threads);
            let mut rest: &mut [ShardRuntime<A>] = &mut subs;
            let mut start = 0;
            for t in 0..threads {
                let end = (t + 1) * k / threads;
                let (g, r) = rest.split_at_mut(end - start);
                groups.push((start, g));
                rest = r;
                start = end;
            }
            let board = &board;
            let barrier = &barrier;
            let next_times = &next_times[..];
            let shard_of = &shard_of[..];
            let win_events = &win_events[..];
            let flight = &*flight;
            thread::scope(|scope| {
                for (base, group) in groups {
                    scope.spawn(move || {
                        shard_worker(
                            base, group, board, barrier, next_times, shard_of, lookahead,
                            win_events, flight,
                        )
                    });
                }
            });
        }
        let wall_ns = wall.elapsed().as_nanos() as u64;
        profile::unregister(&flight);

        // Fold the shards back: stats and traces are sums over events that
        // each happened on exactly one shard, so the merge reconstructs
        // the sequential run's numbers exactly (peak pending events, a
        // high-water mark, merges as the sum of per-shard peaks — a
        // documented upper bound). Trace events merge in shard order:
        // every track belongs to exactly one shard, so per-track order is
        // the sequential run's and the time-sorting Chrome exporter emits
        // byte-identical JSON for the shared tracks.
        let mut elapsed: Time = 0;
        let mut shard_steals: Vec<u64> = Vec::with_capacity(ranges.len());
        for (s, mut sub) in subs.into_iter().enumerate() {
            let (lo, hi) = ranges[s];
            shard_steals.push(sub.stats.lb_steals);
            sub.stats.elapsed_ns = sub.engine.now();
            sub.stats.sim_events = sub.engine.processed();
            sub.stats.peak_pending_events = sub.engine.max_pending() as u64;
            debug_assert!(
                sub.pes.iter().all(|p| p.rx.is_drained()) && sub.comm.outbox.is_empty(),
                "shard {s} ended with an undelivered arrival or a train still held"
            );
            elapsed = elapsed.max(sub.engine.now());
            self.stats.absorb(&sub.stats);
            self.fabric.absorb(&sub.fabric);
            if let Some(buf) = std::mem::take(&mut sub.tracer) {
                if self.tracer.is_enabled() {
                    for &ev in buf.events() {
                        self.tracer.record(ev);
                    }
                }
            }
            self.app.join(sub.into_app(), lo, hi);
        }
        self.stats.elapsed_ns = elapsed;
        self.fabric.trace.finish(elapsed);
        self.stats.wire_bytes = self.fabric.trace.total_wire_bytes();
        self.stats.burstiness = self.fabric.trace.burstiness();
        let mut profile =
            ShardProfile::from_log(flight, wall_ns, threads, lookahead, barrier.yield_waits());
        for (t, &steals) in profile.shards.iter_mut().zip(&shard_steals) {
            t.lb_steals = steals;
        }
        self.shard_profile = Some(profile);
        self.stats.clone()
    }
}

/// One thread's share of the window-barrier protocol: step the owned
/// shards through publish → barrier → merge → barrier → window, forever,
/// until every shard's engine drains.
///
/// Two barriers per window suffice: the first orders publish before
/// drain, the second orders this window's drains (and `next_times`
/// stores) before the next window's publishes — and window execution
/// itself never touches the board.
///
/// Telemetry (all observation-only): wall-clock barrier waits are
/// measured per thread and attributed to every owned shard; per-window
/// records feed each shard's histograms and flight ring in `flight`;
/// per-window event counts cross the barrier through `win_events` so the
/// shard-0 thread can record the (deterministic) imbalance ratio; and
/// when the shard collects a trace, a `window` span plus an `exchange`
/// instant land on its [`Track::shard`] track, stamped in virtual time
/// only — wall-clock values never enter the trace.
/// Per-shard sub-runtime of the sharded path: collects its own trace
/// buffer iff the parent tracer is enabled (`None` = the `NullTracer`
/// zero-work guard, decided at run time).
type ShardRuntime<A> = Runtime<A, Option<TraceBuffer>>;

#[allow(clippy::too_many_arguments)]
fn shard_worker<A: ShardableApp>(
    base: usize,
    group: &mut [ShardRuntime<A>],
    board: &OutboxBoard<A::Task>,
    barrier: &SpinBarrier,
    next_times: &[AtomicU64],
    shard_of: &[usize],
    lookahead: Time,
    win_events: &[AtomicU64],
    flight: &FlightLog,
) {
    let k = board.shards();
    // Reusable per-shard row/inbox buffers; vectors circulate between
    // these and the board's slots via swap, so the steady state allocates
    // nothing.
    let mut rows: Vec<Vec<Outbox<A::Task>>> = group
        .iter()
        .map(|_| (0..k).map(|_| Outbox::default()).collect())
        .collect();
    let mut inboxes: Vec<Outbox<A::Task>> = group.iter().map(|_| Outbox::default()).collect();
    // Telemetry scratch, preallocated: per-owned-shard exchange volumes
    // for the current iteration and the events-processed cursor.
    let mut published_now: Vec<u64> = vec![0; group.len()];
    let mut drained_now: Vec<u64> = vec![0; group.len()];
    let mut prev_processed: Vec<u64> = group.iter().map(|sub| sub.engine.processed()).collect();
    let mut window: u64 = 0;
    loop {
        // Publish: split each owned shard's outbox by destination shard
        // and swap the rows onto the board.
        for (i, sub) in group.iter_mut().enumerate() {
            let s = base + i;
            published_now[i] = sub.comm.outbox.cars.len() as u64;
            sub.comm.outbox.split_into(shard_of, &mut rows[i]);
            for (dst_shard, row) in rows[i].iter_mut().enumerate() {
                board.publish(s, dst_shard, row);
            }
        }
        let t0 = Instant::now();
        barrier.wait();
        let mut wait_ns = t0.elapsed().as_nanos() as u64;
        // Drain + merge: collect each owned shard's column, resolve it
        // into the shard's receive lanes in ExchangeKey order, and
        // announce the shard's next event time.
        for (i, sub) in group.iter_mut().enumerate() {
            let s = base + i;
            let inbox = &mut inboxes[i];
            for src_shard in 0..k {
                board.drain(src_shard, s, inbox);
            }
            drained_now[i] = inbox.cars.len() as u64;
            sub.merge_records(inbox);
            let next = sub.next_event_time().unwrap_or(Time::MAX);
            next_times[s].store(next, Ordering::Release);
        }
        // Imbalance over the *previous* window's event counts: the stores
        // happened before the publish barrier, so every cell is visible
        // here. One thread records it (shard 0's owner) — the value is a
        // pure function of virtual-time counts, hence deterministic.
        if base == 0 && window > 0 {
            if let Some(p) =
                imbalance_permille(win_events.iter().map(|c| c.load(Ordering::Acquire)))
            {
                flight.record_imbalance(p);
            }
        }
        let t1 = Instant::now();
        barrier.wait();
        wait_ns += t1.elapsed().as_nanos() as u64;
        // Window: every thread derives the same global horizon from the
        // published next-event times.
        let t_min = next_times
            .iter()
            .map(|t| t.load(Ordering::Acquire))
            .min()
            .unwrap_or(Time::MAX);
        if t_min == Time::MAX {
            break;
        }
        let horizon = t_min.saturating_add(lookahead);
        for (i, sub) in group.iter_mut().enumerate() {
            let s = base + i;
            sub.run_window(horizon);
            let done = sub.engine.processed();
            let events = done - prev_processed[i];
            prev_processed[i] = done;
            win_events[s].store(events, Ordering::Release);
            if sub.tracer.is_enabled() {
                // Virtual-time-only shard-track events: the window span
                // covers [t_min, last executed event]; consecutive spans
                // never overlap because the next t_min is >= this
                // horizon. Exchange volumes ride as an instant at the
                // window's opening barrier.
                let end = sub.engine.now().max(t_min);
                sub.tracer.span(
                    Track::shard(s),
                    t_min,
                    end - t_min,
                    "window",
                    ["events", "published"],
                    [events, published_now[i]],
                );
                if published_now[i] + drained_now[i] > 0 {
                    sub.tracer.instant(
                        Track::shard(s),
                        t_min,
                        "exchange",
                        ["published", "drained"],
                        [published_now[i], drained_now[i]],
                    );
                }
            }
            flight.shard(s).record_window(WindowRecord {
                window,
                t_min,
                horizon,
                events,
                published: published_now[i],
                drained: drained_now[i],
                barrier_wait_ns: wait_ns,
            });
        }
        window += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::IdleOutcome;
    use crate::config::CommMode;
    use atos_sim::ControlPath;

    /// Relay: a task `(hops_left)` forwards itself to the next PE until
    /// hops run out. Exercises remote paths, wakeups, and termination.
    struct Relay {
        n_pes: usize,
        processed: u64,
        received: u64,
    }

    impl Application for Relay {
        type Task = u32;

        fn process(&mut self, pe: usize, task: u32, out: &mut Emitter<u32>) {
            self.processed += 1;
            if task > 0 {
                out.push((pe + 1) % self.n_pes, task - 1);
            }
        }

        fn on_receive(&mut self, _pe: usize, task: u32) -> Option<u32> {
            self.received += 1;
            Some(task)
        }

        fn task_edges(&self, _t: &u32) -> u64 {
            1
        }
    }

    fn daisy_runtime(n: usize, cfg: AtosConfig) -> Runtime<Relay> {
        Runtime::new(
            Relay {
                n_pes: n,
                processed: 0,
                received: 0,
            },
            Fabric::daisy(n),
            cfg,
        )
    }

    #[test]
    fn relay_terminates_and_counts() {
        let mut rt = daisy_runtime(4, AtosConfig::standard_persistent());
        rt.seed(0, [10u32]);
        let stats = rt.run();
        // 11 tasks processed (hops 10..=0), 10 remote deliveries.
        assert_eq!(stats.total_tasks(), 11);
        assert_eq!(rt.app().processed, 11);
        assert_eq!(rt.app().received, 10);
        assert_eq!(stats.messages, 10);
        assert!(stats.elapsed_ns > 0);
    }

    #[test]
    fn elapsed_scales_with_hops() {
        let mut a = daisy_runtime(4, AtosConfig::standard_persistent());
        a.seed(0, [4u32]);
        let ta = a.run().elapsed_ns;
        let mut b = daisy_runtime(4, AtosConfig::standard_persistent());
        b.seed(0, [40u32]);
        let tb = b.run().elapsed_ns;
        assert!(tb > 5 * ta, "{ta} vs {tb}");
    }

    #[test]
    fn discrete_kernels_cost_more_per_step() {
        let mut p = daisy_runtime(2, AtosConfig::standard_persistent());
        p.seed(0, [20u32]);
        let tp = p.run().elapsed_ns;
        let mut d = daisy_runtime(2, AtosConfig::standard_discrete());
        d.seed(0, [20u32]);
        let td = d.run().elapsed_ns;
        // ~10 kernels per PE on the critical path, 17 µs kernel cycle each.
        assert!(
            td > tp + 10 * 10_000,
            "discrete {td} should pay launch overhead over persistent {tp}"
        );
    }

    #[test]
    fn single_pe_needs_no_fabric_routes() {
        let mut rt = daisy_runtime(1, AtosConfig::standard_persistent());
        rt.seed(0, [0u32]);
        let stats = rt.run();
        assert_eq!(stats.total_tasks(), 1);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn deterministic_runs() {
        let go = || {
            let mut rt = daisy_runtime(4, AtosConfig::standard_persistent());
            rt.seed(0, [25u32]);
            rt.run()
        };
        let a = go();
        let b = go();
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.tasks_per_pe, b.tasks_per_pe);
    }

    /// Fan-out: task k on PE0 emits `width` remote singles to PE1.
    /// Exercises aggregation bundling.
    struct FanOut {
        width: u32,
    }

    impl Application for FanOut {
        type Task = (u32, bool); // (id, is_seed)

        fn process(&mut self, _pe: usize, task: Self::Task, out: &mut Emitter<Self::Task>) {
            if task.1 {
                for i in 0..self.width {
                    out.push(1, (i, false));
                }
            }
        }

        fn on_receive(&mut self, _pe: usize, t: Self::Task) -> Option<Self::Task> {
            Some(t)
        }

        fn task_edges(&self, _t: &Self::Task) -> u64 {
            1
        }
    }

    #[test]
    fn aggregator_bundles_messages() {
        let width = 1000u32;
        // Direct mode: width/group messages.
        let mut direct = Runtime::new(
            FanOut { width },
            Fabric::ib_cluster(2),
            AtosConfig {
                comm: CommMode::Direct { group: 32 },
                ..AtosConfig::standard_persistent()
            },
        );
        direct.seed(0, [(0u32, true)]);
        let sd = direct.run();

        // Aggregated: far fewer, larger messages.
        let mut agg = Runtime::new(
            FanOut { width },
            Fabric::ib_cluster(2),
            AtosConfig::ib_pagerank(),
        );
        agg.seed(0, [(0u32, true)]);
        let sa = agg.run();

        assert_eq!(sd.remote_tasks, width as u64);
        assert_eq!(sa.remote_tasks, width as u64);
        assert!(
            sa.messages * 10 < sd.messages,
            "aggregated {} vs direct {}",
            sa.messages,
            sd.messages
        );
        assert!(sa.mean_message_bytes() > 20.0 * sd.mean_message_bytes());
    }

    #[test]
    fn aggregator_age_trigger_flushes_small_bundles() {
        // One lonely remote task must still arrive (WAIT_TIME trigger).
        let mut rt = Runtime::new(
            FanOut { width: 1 },
            Fabric::ib_cluster(2),
            AtosConfig::ib_bfs(),
        );
        rt.seed(0, [(0u32, true)]);
        let s = rt.run();
        assert_eq!(s.remote_tasks, 1);
        assert_eq!(s.messages, 1);
    }

    /// Idle-refill app: `on_idle` emits one task until a budget runs out.
    struct IdleRefill {
        budget: u32,
    }

    impl Application for IdleRefill {
        type Task = u32;
        fn process(&mut self, _pe: usize, _t: u32, _out: &mut Emitter<u32>) {}
        fn on_receive(&mut self, _pe: usize, t: u32) -> Option<u32> {
            Some(t)
        }
        fn on_idle(&mut self, _pe: usize, out: &mut Emitter<u32>) -> IdleOutcome {
            if self.budget > 0 {
                self.budget -= 1;
                out.push_local(self.budget);
                IdleOutcome::Refilled
            } else {
                IdleOutcome::Quiescent
            }
        }
        fn task_edges(&self, _t: &u32) -> u64 {
            1
        }
    }

    #[test]
    fn f2_idle_path_refills_until_quiescent() {
        let mut rt = Runtime::new(
            IdleRefill { budget: 5 },
            Fabric::daisy(1),
            AtosConfig::standard_persistent(),
        );
        rt.seed(0, [99u32]);
        let s = rt.run();
        // Seed + 5 refills.
        assert_eq!(s.total_tasks(), 6);
        assert_eq!(rt.app().budget, 0);
    }

    #[test]
    fn metadata_tuning_slows_rounds_with_more_peers() {
        // Gluon-style tuning: same workload, more peers => more per-round
        // serialization => slower (the Table V anti-scaling mechanism).
        let run_with_peers = |n: usize| {
            let app = Relay {
                n_pes: n,
                processed: 0,
                received: 0,
            };
            let tuning = RuntimeTuning {
                control: ControlPath::cpu_mediated(),
                in_kernel_comm: false,
                round_metadata_bytes: 4096,
                metadata_cpu_ns_per_byte: 16.0,
            };
            let mut rt = Runtime::with_tuning(
                app,
                Fabric::ib_cluster(n),
                AtosConfig::standard_discrete(),
                atos_sim::GpuCostModel::v100(),
                tuning,
            );
            rt.seed(0, [30u32]);
            rt.run().elapsed_ns
        };
        let t2 = run_with_peers(2);
        let t8 = run_with_peers(8);
        assert!(
            t8 > t2 + 30 * 6 * (4096.0 * 16.0) as u64 / 2,
            "8 peers {t8} vs 2 peers {t2}"
        );
    }

    #[test]
    fn kernel_boundary_comm_delays_arrivals() {
        // With in_kernel_comm off, messages leave at the end of the busy
        // window instead of spread across it: end-to-end latency grows.
        let go = |overlap: bool| {
            let app = Relay {
                n_pes: 2,
                processed: 0,
                received: 0,
            };
            let tuning = RuntimeTuning {
                in_kernel_comm: overlap,
                ..RuntimeTuning::default()
            };
            let mut rt = Runtime::with_tuning(
                app,
                Fabric::daisy(2),
                AtosConfig::standard_persistent(),
                atos_sim::GpuCostModel::v100(),
                tuning,
            );
            rt.seed(0, [40u32]);
            rt.run().elapsed_ns
        };
        assert!(go(true) <= go(false));
    }

    #[test]
    fn tracer_records_steps_messages_and_flushes() {
        use atos_trace::{EventKind, TraceBuffer};

        // Aggregated IB config: exercises step spans, send/msg instants,
        // flush windows, and occupancy counters in one run.
        let mut rt = Runtime::with_tracer(
            FanOut { width: 500 },
            Fabric::ib_cluster(2),
            AtosConfig::ib_bfs(),
            GpuCostModel::v100(),
            RuntimeTuning::default(),
            TraceBuffer::new(),
        );
        rt.seed(0, [(0u32, true)]);
        let stats = rt.run();
        let buf = rt.tracer();

        let steps = buf.events_named("step");
        assert_eq!(
            steps.len() as u64,
            stats.steps_per_pe.iter().sum::<u64>(),
            "one span per scheduling step"
        );
        assert!(steps
            .iter()
            .all(|e| matches!(e.kind, EventKind::Span { .. })));

        let flushes = buf.events_named("flush[size]").len() as u64
            + buf.events_named("flush[age]").len() as u64;
        assert_eq!(flushes, stats.agg_flushes, "one span per flush, tagged");
        assert_eq!(stats.agg_flushes_size + stats.agg_flushes_age, stats.agg_flushes);

        assert_eq!(
            buf.events_named("msg").len() as u64,
            stats.messages,
            "one arrival instant per message"
        );
        assert_eq!(
            buf.counter_peak("worklist").unwrap(),
            stats.queue_hwm_per_pe.iter().copied().max().unwrap(),
            "sampled occupancy peak matches the tracked high-water mark"
        );

        // All timestamps live inside the run.
        assert!(buf.events().iter().all(|e| e.at <= stats.elapsed_ns));
    }

    #[test]
    fn null_traced_run_matches_traced_run() {
        let mut plain = daisy_runtime(4, AtosConfig::standard_persistent());
        plain.seed(0, [25u32]);
        let a = plain.run();
        let mut traced = Runtime::with_tracer(
            Relay {
                n_pes: 4,
                processed: 0,
                received: 0,
            },
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
            GpuCostModel::v100(),
            RuntimeTuning::default(),
            atos_trace::TraceBuffer::new(),
        );
        traced.seed(0, [25u32]);
        let b = traced.run();
        // Tracing is observation only: identical virtual execution.
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.sim_events, b.sim_events);
        assert!(!traced.tracer().is_empty());
    }

    #[test]
    fn priority_config_orders_work() {
        // Tasks carry their priority; the run should process low
        // priorities before high ones within a PE.
        struct Recorder {
            order: Vec<u32>,
        }
        impl Application for Recorder {
            type Task = u32;
            fn process(&mut self, _pe: usize, t: u32, _out: &mut Emitter<u32>) {
                self.order.push(t);
            }
            fn on_receive(&mut self, _pe: usize, t: u32) -> Option<u32> {
                Some(t)
            }
            fn priority(&self, t: &u32) -> u32 {
                *t
            }
            fn task_edges(&self, _t: &u32) -> u64 {
                1
            }
        }
        let mut rt = Runtime::new(
            Recorder { order: vec![] },
            Fabric::daisy(1),
            AtosConfig::priority_discrete(),
        );
        rt.seed(0, [5u32, 1, 3, 0, 2, 4]);
        rt.run();
        assert_eq!(rt.app().order, vec![0, 1, 2, 3, 4, 5]);
    }

    impl ShardableApp for Relay {
        fn fork(&self, _lo: usize, _hi: usize) -> Self {
            Relay {
                n_pes: self.n_pes,
                processed: 0,
                received: 0,
            }
        }
        fn join(&mut self, shard: Self, _lo: usize, _hi: usize) {
            self.processed += shard.processed;
            self.received += shard.received;
        }
    }

    impl ShardableApp for FanOut {
        fn fork(&self, _lo: usize, _hi: usize) -> Self {
            FanOut { width: self.width }
        }
        fn join(&mut self, _shard: Self, _lo: usize, _hi: usize) {}
    }

    /// Compare two runs field by field. `peak_pending_events` is excluded:
    /// for K > 1 it is the sum of per-shard maxima, an upper bound that is
    /// not required to equal the sequential global maximum.
    fn assert_runs_identical(a: &RunStats, b: &RunStats, what: &str) {
        let scrub = |s: &RunStats| {
            let mut s = s.clone();
            s.peak_pending_events = 0;
            format!("{s:?}")
        };
        assert_eq!(scrub(a), scrub(b), "{what}: sharded run diverged");
    }

    #[test]
    fn sharded_relay_matches_sequential_byte_for_byte() {
        let hops = 61u32; // odd, so traffic is asymmetric across PEs
        let baseline = {
            let mut rt = daisy_runtime(4, AtosConfig::standard_persistent());
            rt.seed(0, [hops]);
            rt.run()
        };
        // Uneven splits (4 PEs over 3 shards → 1/1/2) and real threads
        // both included; threads may exceed cores — the barrier yields.
        for (k, threads) in [(2, 1), (2, 2), (3, 2), (4, 2), (4, 4)] {
            let mut rt = daisy_runtime(4, AtosConfig::standard_persistent());
            rt.seed(0, [hops]);
            let s = rt.run_sharded_on(k, threads);
            assert_runs_identical(&baseline, &s, &format!("relay k={k} t={threads}"));
            assert_eq!(rt.app().processed, hops as u64 + 1);
            assert_eq!(rt.app().received, hops as u64);
        }
    }

    #[test]
    fn sharded_aggregated_fanout_matches_sequential() {
        // Aggregated IB mode: flush windows, polls, and bundle traffic all
        // cross the shard boundary.
        let go = |k: Option<(usize, usize)>| {
            let mut rt = Runtime::new(
                FanOut { width: 700 },
                Fabric::ib_cluster(4),
                AtosConfig::ib_pagerank(),
            );
            rt.seed(0, [(0u32, true)]);
            match k {
                None => rt.run(),
                Some((k, threads)) => rt.run_sharded_on(k, threads),
            }
        };
        let baseline = go(None);
        for (k, threads) in [(2, 2), (4, 2), (4, 4)] {
            let s = go(Some((k, threads)));
            assert_runs_identical(&baseline, &s, &format!("fanout k={k} t={threads}"));
        }
    }

    #[test]
    fn sharded_traced_run_matches_sequential_trace_byte_for_byte() {
        use atos_trace::perfetto::{to_chrome_json, validate_chrome_trace};
        use atos_trace::TraceBuffer;

        let traced_daisy = || {
            Runtime::with_tracer(
                Relay {
                    n_pes: 4,
                    processed: 0,
                    received: 0,
                },
                Fabric::daisy(4),
                AtosConfig::standard_persistent(),
                GpuCostModel::v100(),
                RuntimeTuning::default(),
                TraceBuffer::new(),
            )
        };
        let seq_json = {
            let mut rt = traced_daisy();
            rt.seed(0, [61u32]);
            rt.run();
            to_chrome_json(rt.tracer())
        };
        for (k, threads) in [(2, 2), (4, 2), (4, 4)] {
            let mut rt = traced_daisy();
            rt.seed(0, [61u32]);
            rt.run_sharded_on(k, threads);
            let mut merged = rt.tracer().clone();
            // Shard tracks are sharded-run-only additions; everything
            // else must be the sequential timeline, byte for byte.
            let full = to_chrome_json(&merged);
            let summary = validate_chrome_trace(&full)
                .unwrap_or_else(|e| panic!("k={k}: invalid sharded trace: {e}"));
            assert!(summary.spans > 0);
            let shard_events =
                merged.events().iter().filter(|e| e.track == Track::shard(0)).count();
            assert!(shard_events > 0, "k={k}: no shard-track telemetry recorded");
            merged.retain(|e| (0..k).all(|s| e.track != Track::shard(s)));
            assert_eq!(
                to_chrome_json(&merged),
                seq_json,
                "k={k} t={threads}: traced sharded run diverged from sequential"
            );
        }
    }

    #[test]
    fn sharded_run_collects_profile() {
        let mut rt = daisy_runtime(4, AtosConfig::standard_persistent());
        rt.seed(0, [61u32]);
        let stats = rt.run_sharded_on(4, 2);
        let p = rt.take_shard_profile().expect("sharded run must profile");
        assert_eq!(p.shards.len(), 4);
        assert_eq!(p.threads, 2);
        // Every shard crossed every window barrier.
        let w0 = p.shards[0].windows;
        assert!(w0 > 0);
        assert!(p.shards.iter().all(|s| s.windows == w0));
        // Window event totals reconstruct the run's event count.
        let events: u64 = p.shards.iter().map(|s| s.events).sum();
        assert_eq!(events, stats.sim_events);
        // Flight rings retained the tail of the run.
        assert!(p.shards.iter().all(|s| !s.flight.is_empty()));
        assert_eq!(p.shards[0].flight.total(), w0);
        // Imbalance was recorded (daisy relay is single-token, so the
        // ratio is k * 1000 for most windows) and is deterministic.
        assert!(!p.imbalance.is_empty());
        assert!(p.imbalance_ratio() >= 1.0);
        // A second identical run records the identical imbalance
        // distribution (virtual-time counts only).
        let mut rt2 = daisy_runtime(4, AtosConfig::standard_persistent());
        rt2.seed(0, [61u32]);
        rt2.run_sharded_on(4, 2);
        let p2 = rt2.take_shard_profile().unwrap();
        assert_eq!(p.imbalance, p2.imbalance);
        assert_eq!(p.shards[0].window_events, p2.shards[0].window_events);
        assert_eq!(p.shards[0].window_span, p2.shards[0].window_span);
        // The sequential fallback leaves no profile behind.
        let mut rt3 = daisy_runtime(4, AtosConfig::standard_persistent());
        rt3.seed(0, [5u32]);
        rt3.run_sharded(1);
        assert!(rt3.shard_profile().is_none());
    }

    #[test]
    fn sharded_k1_is_the_sequential_engine() {
        // k = 1 (and any k on a single PE) must take the sequential path
        // exactly — same object code, same stats, no threads.
        let mut a = daisy_runtime(4, AtosConfig::standard_persistent());
        a.seed(0, [25u32]);
        let sa = a.run();
        let mut b = daisy_runtime(4, AtosConfig::standard_persistent());
        b.seed(0, [25u32]);
        let sb = b.run_sharded(1);
        assert_runs_identical(&sa, &sb, "k=1");
        assert_eq!(sa.peak_pending_events, sb.peak_pending_events);
    }
}
