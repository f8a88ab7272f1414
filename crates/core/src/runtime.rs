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
//!   the popped tasks) under the worker shape's cost model,
//!   [`WorkerConfig::cost_model`](crate::config::WorkerConfig::cost_model);
//!   discrete mode adds a kernel launch + host sync per step.
//! * Remote pushes issued during a step leave at times *spread across the
//!   step* — this models Atos's in-kernel communication and is what makes
//!   communication/computation overlap real in the simulation. A
//!   kernel-boundary framework would emit everything at the end of the
//!   step (that is exactly what the baselines in `atos-baselines` do).
//! * Each message pays the configured control path
//!   ([`AtosConfig::control`]; Atos's is the GPU-resident
//!   [`ControlPath::gpu_direct`](atos_sim::ControlPath::gpu_direct)) plus
//!   fabric serialization and latency.
//! * In aggregated mode, pushes are counted into per-destination
//!   [`Bundle`]s instead, and bundles leave on the size/age triggers.

use atos_graph::Lookahead;
use atos_sim::{Engine, Fabric, GpuCostModel, Time};
use atos_trace::{NullTracer, Tracer, Track};

use crate::aggregator::Bundle;
use crate::app::{Application, IdleOutcome};
use crate::comm::{Comm, Rx};
use crate::config::{AtosConfig, KernelMode, QueueMode};
use crate::emitter::Emitter;
use crate::metrics::RunStats;
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
    /// Monotone count of messages this PE has emitted — the barrier merge
    /// order's tiebreak (`comm`), advanced only by this PE's own events.
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
    /// One emitter recycled across every PE's steps (cleared, never freed);
    /// its chunk pool is where delivered trains go home.
    pub(crate) em: Emitter<A::Task>,
    /// Pop-batch scratch recycled across steps.
    batch: Vec<A::Task>,
    /// Outbox and receive scratch (`comm`).
    pub(crate) comm: Comm<A::Task>,
    /// Exclusive end of the last window executed: every event before it
    /// has run, every arrival before it counts as delivered.
    pub(crate) horizon: Time,
    /// Virtual-time event sink ([`NullTracer`] unless built with
    /// [`Runtime::with_tracer`]).
    pub(crate) tracer: Tr,
}

impl<A: Application> Runtime<A> {
    /// Build a runtime over `fabric`; steps are priced by
    /// `cfg.worker.cost_model()`.
    ///
    /// # Panics
    /// As [`Runtime::with_tracer`].
    pub fn new(app: A, fabric: Fabric, cfg: AtosConfig) -> Self {
        Runtime::with_tracer(app, fabric, cfg, NullTracer)
    }
}

impl<A: Application, Tr: Tracer> Runtime<A, Tr> {
    /// Build with an explicit virtual-time tracer (see [`atos_trace`]):
    /// per-PE kernel-step spans, message send→arrive instants, aggregator
    /// flush windows, and occupancy counters are recorded into `tracer`.
    ///
    /// # Panics
    /// If the fabric has more than `u16::MAX` PEs, or if `cfg` runs a
    /// persistent kernel whose worker pool pops nothing per round
    /// (`cfg.worker.fetch` or `cfg.worker.num_workers` is 0): its steps
    /// would find no task and strand every seeded one.
    pub fn with_tracer(app: A, fabric: Fabric, cfg: AtosConfig, tracer: Tr) -> Self {
        let n_pes = fabric.n_pes();
        assert!(
            n_pes <= u16::MAX as usize,
            "staged messages name PEs in 16 bits"
        );
        let (fetch, num_workers) = (cfg.worker.fetch, cfg.worker.num_workers);
        assert!(
            cfg.kernel != KernelMode::Persistent || (fetch > 0 && num_workers > 0),
            "a persistent kernel pops cfg.worker.fetch × cfg.worker.num_workers tasks a \
             round, got fetch = {fetch}, num_workers = {num_workers}"
        );
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
        Runtime {
            engine: Engine::new(),
            fabric,
            cost: cfg.worker.cost_model(),
            cfg,
            app,
            pes,
            stats: RunStats::new(n_pes),
            em: Emitter::new(0, n_pes),
            batch: Vec::new(),
            comm: Comm::default(),
            horizon: 0,
            tracer,
        }
    }

    /// Borrow the tracer (inspect the collected timeline after `run`).
    pub fn tracer(&self) -> &Tr {
        &self.tracer
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
    ///
    /// # Panics
    /// If `pe` is not one of the fabric's PEs.
    pub fn seed(&mut self, pe: usize, tasks: impl IntoIterator<Item = A::Task>) {
        let n_pes = self.pes.len();
        assert!(
            pe < n_pes,
            "seed on PE {pe}, but the fabric has {n_pes} PEs"
        );
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
    /// receive lanes in one deterministic order ([`crate::comm`]). The
    /// lookahead — the minimum time any message needs to reach another
    /// PE — guarantees no resolved arrival can land inside the window that
    /// produced it.
    pub fn run(&mut self) -> RunStats {
        self.bootstrap();
        let lookahead = self.lookahead();
        loop {
            self.merge_records();
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
            Some(lat) => self.cfg.control.inject_ns.saturating_add(lat),
            None => Time::MAX,
        }
    }

    /// Schedule the initial scheduling step for every seeded PE, in
    /// ascending PE order.
    fn bootstrap(&mut self) {
        for pe in 0..self.pes.len() {
            if !self.pes[pe].queue.is_empty() && !self.pes[pe].step_scheduled {
                self.pes[pe].step_scheduled = true;
                self.pes[pe].idle_ran = false;
                self.engine.schedule_after(0, Ev::Step { pe });
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
        debug_assert!(
            self.pes.iter().all(|p| p.queue.is_empty()),
            "run ended with a task still queued"
        );
        // Extend the utilization series to the true run end so trailing
        // compute-only time counts toward the burstiness statistic.
        self.fabric.trace.finish(self.engine.now());
        self.stats.elapsed_ns = self.engine.now();
        self.stats.wire_bytes = self.fabric.trace.total_wire_bytes();
        self.stats.burstiness = self.fabric.trace.burstiness();
        self.stats.sim_events = self.engine.processed();
        self.stats.peak_pending_events = self.engine.max_pending() as u64;
        self.stats.comm_peak_bytes = self.em.pool.peak_bytes() as u64;
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
            self.engine.schedule_after(delay, Ev::Step { pe });
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
        let got = self.pes[pe].queue.pop_batch(cap, &mut batch);
        let now = self.engine.now();

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
        em.reset_for(pe);
        let (edges, span) = self.process_batch(pe, &batch, &mut em);
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
                "step",
                ["tasks", "edges"],
                [got as u64, edges],
            );
            // Worklist occupancy at the start of the step: the popped
            // batch plus whatever remained in the queue.
            let remaining = self.pes[pe].queue.len() as u64;
            self.tracer
                .counter(Track::pe(pe), now, "worklist", got as u64 + remaining);
        }

        self.absorb_local(pe, &mut em);
        self.dispatch_remote(pe, &mut em, now, busy);
        self.em = em;
        self.batch = batch;

        // Next scheduling round once this one's virtual time has elapsed.
        // If the queue is empty by then (no arrival beat it), that step
        // runs the f2 idle handler exactly once.
        self.pes[pe].idle_ran = false;
        self.pes[pe].step_scheduled = true;
        self.engine.schedule_after(busy, Ev::Step { pe });
    }

    /// Run a popped batch through the application, as a two-stage software
    /// pipeline: the model keeps `resident_workers` tasks in flight and the
    /// hardware overlaps their cache misses; one host thread runs them one
    /// at a time, so each task is announced [`PREFETCH_FAR`] and again
    /// [`PREFETCH_NEAR`] positions before it runs
    /// ([`Application::prefetch`]). Returns the batch's total and largest
    /// `task_edges`.
    #[inline]
    #[atos_hot]
    fn process_batch(
        &mut self,
        pe: usize,
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
            self.app.process(pe, t, em);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::IdleOutcome;
    use crate::config::{CommMode, WorkerConfig, WorkerSize, METADATA_CPU_NS_PER_BYTE};
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
    #[should_panic(expected = "seed on PE 4, but the fabric has 4 PEs")]
    fn seeding_a_pe_past_the_fabric_names_both() {
        daisy_runtime(4, AtosConfig::standard_persistent()).seed(4, [1u32]);
    }

    /// One task expanding 64 edges, alone on one PE.
    struct Wide;

    impl Application for Wide {
        type Task = ();
        fn process(&mut self, _pe: usize, _t: (), _out: &mut Emitter<()>) {}
        fn on_receive(&mut self, _pe: usize, t: ()) -> Option<()> {
            Some(t)
        }
        fn task_edges(&self, _t: &()) -> u64 {
            64
        }
    }

    #[test]
    fn the_worker_size_prices_every_step() {
        // A lone task pays its span, `task_ns + 64 · edge_ns`, at each
        // worker shape's cost model: smaller workers lose coalescing.
        let elapsed = |size| {
            let worker = WorkerConfig {
                size,
                ..WorkerConfig::cta512()
            };
            let cfg = AtosConfig {
                worker,
                ..AtosConfig::standard_persistent()
            };
            let mut rt = Runtime::new(Wide, Fabric::daisy(1), cfg);
            rt.seed(0, [()]);
            rt.run().elapsed_ns
        };
        let got = [WorkerSize::Thread, WorkerSize::Warp, WorkerSize::Cta].map(elapsed);
        assert_eq!(got, [20_580, 6_856, 5_520]);
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
    #[should_panic(expected = "got fetch = 0, num_workers = 160")]
    fn a_persistent_kernel_that_pops_nothing_is_rejected() {
        let worker = WorkerConfig {
            fetch: 0,
            ..WorkerConfig::cta512()
        };
        daisy_runtime(
            2,
            AtosConfig {
                worker,
                ..AtosConfig::standard_persistent()
            },
        );
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
            let cfg = AtosConfig {
                control: ControlPath::cpu_mediated(),
                in_kernel_comm: false,
                round_metadata_bytes: 4096,
                ..AtosConfig::standard_discrete()
            };
            let mut rt = Runtime::new(app, Fabric::ib_cluster(n), cfg);
            rt.seed(0, [30u32]);
            rt.run().elapsed_ns
        };
        let t2 = run_with_peers(2);
        let t8 = run_with_peers(8);
        assert!(
            t8 > t2 + 30 * 6 * (4096.0 * METADATA_CPU_NS_PER_BYTE) as u64 / 2,
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
            let cfg = AtosConfig {
                in_kernel_comm: overlap,
                ..AtosConfig::standard_persistent()
            };
            let mut rt = Runtime::new(app, Fabric::daisy(2), cfg);
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
        assert_eq!(
            stats.agg_flushes_size + stats.agg_flushes_age,
            stats.agg_flushes
        );

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
}
