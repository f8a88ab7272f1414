//! One workload in this process: set up, solve the reference, run
//! repeatedly for the time allowed, verify every run, report.
//!
//! Closed loop, one client: the next run starts when the previous one has
//! been verified. The untraced pass gives the end-to-end metrics; the
//! traced pass (`trace`) alternates bare and [`Timed`](crate::timed::Timed)
//! runs, records spans and runs the layer microbenchmarks, and is never
//! used for end-to-end numbers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atos_apps::bfs::{run_bfs, run_bfs_traced};
use atos_baselines::bsp::{bsp_bfs, bsp_pagerank};
use atos_core::workqueue::WorkQueue;
use atos_core::{AtosConfig, TraceBuffer};
use atos_queue::sync::host_parallelism;

use crate::layers;
use crate::metrics::{median, quartiles, Values};
use crate::spans::{SpanId, Spans};
use crate::sweep::Sweep;
use crate::workloads::{
    self, Answer, Input, Kind, RunFacts, RunResult, SetupTimes, Spec, PR_ALPHA, PR_EPSILON,
};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Corrupt the first run's output before it is verified: the self-test
    /// that a wrong answer is caught and counted as a failure.
    pub inject_fault: bool,
    /// Where the traced pass writes `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The six end-to-end metrics and the `bench.*` figures beside them.
    pub end_to_end: Values,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Values,
}

/// Runs of the one-shard / one-PE companion in the traced pass.
const COMPANION_RUNS: usize = 3;
/// `run_bfs_traced` runs behind `trace.tracer_overhead_share`.
const TRACER_RUNS: usize = 2;

/// Counts attempts and failures, and verifies each run.
struct Attempts {
    workload: &'static str,
    attempted: u64,
    failed: u64,
    reference: Answer,
    /// The first run's virtual-time outcome; every later run must match it.
    fingerprint: Option<(u64, u64, u64)>,
    fault_seed: Option<u64>,
    verify_s: Vec<f64>,
}

/// A verified run with its wall time and its `core.run` span. The answer
/// is gone: keeping one per run would grow peak memory with the run count.
struct Good {
    facts: RunFacts,
    total_s: f64,
    run_span: Option<SpanId>,
}

impl Attempts {
    /// One run, from constructing the application to taking its result,
    /// then verification outside the timed region. A run that panics or
    /// answers wrongly is counted and reported, and the loop goes on.
    fn attempt(
        &mut self,
        spec: &Spec,
        input: &Input,
        timed: bool,
        spans: &mut Spans,
    ) -> Option<Good> {
        self.attempted += 1;
        spans.enter("run");
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let result = spec.run(input, timed);
            (result, started.elapsed().as_secs_f64())
        }));
        let good = match outcome {
            Err(_) => Err("the run panicked".to_string()),
            Ok((RunResult { mut answer, facts }, total_s)) => {
                if spec.is_simulated() {
                    let new_started =
                        facts.run_started - Duration::from_secs_f64(facts.runtime_new_s);
                    spans.record("core.runtime_new", new_started, facts.runtime_new_s);
                }
                let run_span = spans.record("core.run", facts.run_started, facts.run_s);
                if let (Some(id), Some(tally)) = (run_span, &facts.tally) {
                    let threads = shard_threads(spec);
                    spans.aggregated_children(
                        id,
                        &[
                            ("apps.process", tally.process.total_s() / threads),
                            ("apps.on_receive", tally.on_receive.total_s() / threads),
                            ("apps.on_idle", tally.on_idle.total_s() / threads),
                        ],
                    );
                }
                spans.enter("apps.verify");
                let t = Instant::now();
                if let Some(seed) = self.fault_seed.take() {
                    answer.corrupt(seed);
                }
                let mut verdict = answer.check(&self.reference);
                if let Some(fp) = facts.fingerprint() {
                    let first = *self.fingerprint.get_or_insert(fp);
                    if first != fp && verdict.is_ok() {
                        verdict = Err(format!(
                            "(elapsed_ns, sim_events, tasks) = {fp:?}, but {first:?} on the first run"
                        ));
                    }
                }
                self.verify_s.push(t.elapsed().as_secs_f64());
                spans.exit();
                verdict.map(|()| Good {
                    facts,
                    total_s,
                    run_span,
                })
            }
        };
        spans.exit();
        good.map_err(|why| {
            self.failed += 1;
            eprintln!("{}: run {} failed: {why}", self.workload, self.attempted);
        })
        .ok()
    }
}

/// Threads the callbacks of one run are spread over: callback time summed
/// over shards is divided by this before it is set against wall time.
fn shard_threads(spec: &Spec) -> f64 {
    spec.shards.min(host_parallelism()).max(1) as f64
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Set-ups are repeated before the runs and again after them, so that
/// their median takes in the machine's speed at both ends of the process
/// and not that of its first second alone. Each side sets up at least `.0`
/// times and, while it has taken less than [`SHORT_SETUPS_S`], up to `.1`
/// times: a short set-up is the noisier one. The traced pass reads the
/// phases of a single one.
fn setup_reps(opts: &Options) -> (usize, usize) {
    if opts.trace || opts.smoke {
        (1, 1)
    } else {
        (2, 5)
    }
}
const SHORT_SETUPS_S: f64 = 0.75;

/// One side's set-ups, one input alive at a time, so that peak memory is
/// that of one input. Returns the last input and every set-up's times.
fn setups(spec: &Spec, opts: &Options, spans: &mut Spans) -> (Input, Vec<SetupTimes>) {
    spans.enter("setup");
    let started = Instant::now();
    let (min_reps, max_reps) = setup_reps(opts);
    let mut times = Vec::new();
    let mut input = None;
    while times.len() < min_reps
        || (times.len() < max_reps && started.elapsed().as_secs_f64() < SHORT_SETUPS_S)
    {
        drop(input.take());
        let (i, t) = spec.setup(opts.seed, spans);
        times.push(t);
        input = Some(i);
    }
    spans.exit();
    (input.expect("at least one set-up"), times)
}

/// Share of the measured loop given to the sweep: after each run it sweeps
/// for this share of the run's time, and for [`MIN_SWEEP_S`] at least.
const SWEEP_SHARE: f64 = 0.25;
const MIN_SWEEP_S: f64 = 0.02;

pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = workloads::spec(&opts.workload, opts.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            opts.workload,
            workloads::NAMES
        )
    })?;
    let mut spans = Spans::new(spec.name, opts.trace);
    spans.enter("workload");

    let (input, mut setup_times) = setups(&spec, opts, &mut spans);
    let setup = *setup_times.last().expect("at least one set-up");

    spans.enter("graph.reference");
    let t = Instant::now();
    let reference = spec.reference(&input);
    let reference_s = t.elapsed().as_secs_f64();
    spans.exit();

    let mut attempts = Attempts {
        workload: spec.name,
        attempted: 0,
        failed: 0,
        reference,
        fingerprint: None,
        fault_seed: opts.inject_fault.then_some(opts.seed),
        verify_s: Vec::new(),
    };

    // The one-shard / one-PE companion: its virtual-time outcome must equal
    // the parallel workload's, and in the traced pass its time is what the
    // speed-up is measured against.
    let mut companion_s = Vec::new();
    if let Some((c_spec, c_input)) = spec.companion(&input) {
        let runs = match (opts.trace && !opts.smoke, spec.is_simulated()) {
            (true, _) => COMPANION_RUNS,
            (false, true) => 1,
            (false, false) => 0,
        };
        spans.enter("companion");
        for _ in 0..runs {
            companion_s.extend(
                attempts
                    .attempt(&c_spec, &c_input, false, &mut spans)
                    .map(|g| g.total_s),
            );
        }
        spans.exit();
    }

    // One untimed warm-up run, then the measured loop: a sweep, then a run.
    let sweep = Sweep::new(&input.graph, input.source);
    let warm_up = Instant::now();
    attempts.attempt(&spec, &input, false, &mut spans);
    let mut last_run_s = warm_up.elapsed().as_secs_f64();
    let alternate = opts.trace && spec.is_simulated();
    let min_runs = if opts.smoke { 2 } else { 3 } * if alternate { 2 } else { 1 };
    let budget = opts.seconds * if opts.trace { 0.6 } else { 1.0 };
    let (mut bare, mut timed): (Vec<Good>, Vec<Good>) = (Vec::new(), Vec::new());
    let mut sweep_rates = Vec::new();
    let loop_started = Instant::now();
    let mut i = 0;
    while loop_started.elapsed().as_secs_f64() < budget
        || (bare.len() + timed.len() < min_runs && i < 4 * min_runs)
    {
        let sweep_s = if opts.smoke {
            0.0
        } else {
            (SWEEP_SHARE * last_run_s).max(MIN_SWEEP_S)
        };
        spans.enter("bench.sweep");
        sweep_rates.push(sweep.edges_per_s(sweep_s));
        spans.exit();
        let wrap = alternate && i % 2 == 1;
        let run_started = Instant::now();
        if let Some(good) = attempts.attempt(&spec, &input, wrap, &mut spans) {
            if wrap { &mut timed } else { &mut bare }.push(good);
        }
        last_run_s = run_started.elapsed().as_secs_f64();
        i += 1;
    }

    let n_edges = input.graph.n_edges() as f64;
    let totals: Vec<f64> = bare.iter().map(|g| g.total_s).collect();
    let (q1, p50, q3) = quartiles(&totals);
    let rates: Vec<f64> = bare
        .iter()
        .map(|g| g.facts.tasks() as f64 / g.total_s)
        .collect();
    let sim = bare.last().and_then(|g| g.facts.sim.as_ref());
    let (tasks_per_s, sweep_edges_per_s) = (median(&rates), median(&sweep_rates));
    let bench = [
        ("bench.runs", totals.len() as f64),
        ("bench.run_s_q1", q1),
        ("bench.run_s_q3", q3),
        ("bench.input_vertices", input.graph.n_vertices() as f64),
        ("bench.input_edges", n_edges),
        ("bench.host_cores", host_parallelism() as f64),
        ("bench.tasks_per_s", tasks_per_s),
        ("bench.sweep_edges_per_s", sweep_edges_per_s),
    ];

    let mut e2e = Values::default();
    e2e.set("run_s_p50", p50);
    e2e.set("edges_per_s", if p50 > 0.0 { n_edges / p50 } else { 0.0 });
    e2e.set("tasks_per_s", tasks_per_s);
    e2e.set("tasks_per_sweep_edge", tasks_per_s / sweep_edges_per_s);
    e2e.set("virtual_ms", sim.map_or(0.0, |s| s.elapsed_ms()));
    for (name, value) in bench {
        e2e.set(name, value);
    }

    let mut layer = Values::default();
    if opts.trace {
        for (name, value) in bench {
            layer.set(name, value);
        }
        layer.set("graph.generate_s", setup.generate_s);
        layer.set("graph.generate_edges_per_s", n_edges / setup.generate_s);
        layer.set("graph.weights_s", setup.weights_s);
        layer.set("graph.partition_s", setup.partition_s);
        layer.set("graph.edge_cut", input.partition.edge_cut(&input.graph));
        layer.set("graph.reference_s", reference_s);
        layer.set("graph.slowdown_vs_reference_x", p50 / reference_s);
        layer.set("apps.verify_s", median(&attempts.verify_s));
        if let Some(last) = bare.last() {
            traced_layers(&mut layer, &spec, last, &bare, &timed, &spans, p50);
            microbenchmarks(&mut layer, &spec, &input, last, &attempts);
        }
        if !companion_s.is_empty() && p50 > 0.0 {
            let name = if spec.is_simulated() {
                "core.shard_speedup_x"
            } else {
                "core.host_scaling_x"
            };
            layer.set(name, median(&companion_s) / p50);
        }
    }
    spans.exit();

    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_json()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    e2e.set("peak_rss_mb", peak_rss_mb());
    e2e.set(
        "fail_share",
        attempts.failed as f64 / attempts.attempted as f64,
    );

    // The second half of the set-ups, with the first input gone.
    if !opts.trace && !opts.smoke {
        drop((input, sweep));
        setup_times.extend(setups(&spec, opts, &mut spans).1);
    }
    let setup_s: Vec<f64> = setup_times.iter().map(SetupTimes::total_s).collect();
    e2e.set("setup_s", median(&setup_s));
    Ok(Report {
        attempted: attempts.attempted,
        failed: attempts.failed,
        end_to_end: e2e,
        per_layer: layer,
    })
}

/// Per-layer figures read off the runs themselves: exact counts from the
/// runtime's statistics, phase times from the spans, callback times from
/// the [`Timed`](crate::timed::Timed) runs.
fn traced_layers(
    layer: &mut Values,
    spec: &Spec,
    last: &Good,
    bare: &[Good],
    timed: &[Good],
    spans: &Spans,
    run_s_p50: f64,
) {
    let med =
        |of: &dyn Fn(&Good) -> f64, runs: &[Good]| median(&runs.iter().map(of).collect::<Vec<_>>());
    let core_run_s = med(&|g| g.facts.run_s, bare);
    layer.set("core.runtime_new_s", med(&|g| g.facts.runtime_new_s, bare));
    layer.set("core.run_s", core_run_s);

    if let Some(s) = &last.facts.sim {
        let (tasks, steps) = (
            s.total_tasks() as f64,
            s.steps_per_pe.iter().sum::<u64>() as f64,
        );
        let mean_tasks = tasks / s.tasks_per_pe.len() as f64;
        layer.set("sim.virtual_ms", s.elapsed_ms());
        layer.set("sim.events", s.sim_events as f64);
        layer.set("sim.events_per_task", s.sim_events as f64 / tasks);
        layer.set("sim.ev_steps", s.ev_steps as f64);
        layer.set("sim.ev_arrivals", s.ev_arrivals as f64);
        layer.set("sim.ev_agg_polls", s.ev_agg_polls as f64);
        layer.set("sim.coalesced_arrivals", s.coalesced_arrivals as f64);
        layer.set("sim.peak_pending_events", s.peak_pending_events as f64);
        layer.set("sim.messages", s.messages as f64);
        layer.set("sim.wire_bytes", s.wire_bytes as f64);
        layer.set("core.tasks", tasks);
        layer.set("core.edges", s.total_edges() as f64);
        layer.set("core.steps", steps);
        layer.set("core.tasks_per_step", tasks / steps);
        layer.set("core.remote_tasks", s.remote_tasks as f64);
        layer.set("core.payload_bytes", s.payload_bytes as f64);
        layer.set(
            "core.queue_hwm",
            s.queue_hwm_per_pe.iter().copied().max().unwrap_or(0) as f64,
        );
        layer.set(
            "core.task_imbalance",
            s.tasks_per_pe.iter().copied().max().unwrap_or(0) as f64 / mean_tasks,
        );
        layer.set(
            "core.work_ratio",
            s.normalized_workload(last.facts.ideal_tasks),
        );
        layer.set("core.utilization", s.utilization());
        layer.set("core.agg_flushes", s.agg_flushes as f64);
        layer.set("core.agg_flushes_size", s.agg_flushes_size as f64);
        layer.set("core.agg_flushes_age", s.agg_flushes_age as f64);
        layer.set(
            "core.agg_tasks_per_flush",
            s.agg_flushed_tasks as f64 / s.agg_flushes as f64,
        );
        layer.set("core.agg_poll_idle", s.agg_poll_idle as f64);
        layer.set("core.lb_steals", s.lb_steals as f64);
        layer.set("core.lb_stolen_tasks", s.lb_stolen_tasks as f64);
    }
    if let Some(p) = &last.facts.shard {
        layer.set(
            "core.shard_windows",
            p.shards.iter().map(|s| s.windows).max().unwrap_or(0) as f64,
        );
        layer.set(
            "core.shard_barrier_frac",
            med(
                &|g| g.facts.shard.as_ref().map_or(0.0, |p| p.barrier_frac()),
                bare,
            ),
        );
        layer.set("core.shard_imbalance_ratio", p.imbalance_ratio());
    }
    if let Some(h) = &last.facts.host {
        let tasks = |g: &Good| g.facts.tasks() as f64;
        let reached = last.facts.ideal_tasks as f64;
        layer.set("core.host_tasks", med(&tasks, bare));
        layer.set(
            "core.host_tasks_per_s",
            med(&|g| tasks(g) / g.facts.run_s, bare),
        );
        layer.set("core.host_work_ratio", med(&tasks, bare) / reached);
        layer.set("core.host_remote_pushes", h.remote_pushes as f64);
        layer.set("core.host_idle_spin_rounds", h.idle_spin_rounds as f64);
        layer.set("core.host_idle_yield_rounds", h.idle_yield_rounds as f64);
        layer.set("core.host_idle_park_rounds", h.idle_park_rounds as f64);
        layer.set(
            "queue.host_overshoots",
            h.contention.reservation_conflicts as f64,
        );
        layer.set(
            "queue.host_occupancy_hwm",
            h.contention.occupancy_hwm as f64,
        );
    }

    // Callbacks, from the wrapped runs only.
    let tally = |g: &Good| g.facts.tally.unwrap_or_default();
    if let Some(t) = timed.last().map(tally) {
        let process_s = med(&|g| tally(g).process.total_s(), timed);
        let on_receive_s = med(&|g| tally(g).on_receive.total_s(), timed);
        let on_idle_s = med(&|g| tally(g).on_idle.total_s(), timed);
        let threads = shard_threads(spec);
        let timed_run_s = med(&|g| g.facts.run_s, timed);
        let selfs = spans.self_times_ns();
        let run_self_s = med(
            &|g| g.run_span.map_or(0.0, |id| selfs[id] as f64 / 1e9),
            timed,
        );
        layer.set("apps.process_calls", t.process.calls as f64);
        layer.set("apps.process_s", process_s);
        layer.set("apps.on_receive_calls", t.on_receive.calls as f64);
        layer.set("apps.on_receive_s", on_receive_s);
        layer.set(
            "apps.on_receive_keep_ratio",
            t.received_kept as f64 / t.on_receive.calls as f64,
        );
        layer.set("apps.on_idle_calls", t.on_idle.calls as f64);
        layer.set("apps.on_idle_s", on_idle_s);
        layer.set(
            "apps.callback_share",
            (process_s + on_receive_s + on_idle_s) / threads / timed_run_s,
        );
        layer.set("core.run_self_s", run_self_s);
        layer.set(
            "core.self_ns_per_task",
            run_self_s * 1e9 / t.process.calls as f64,
        );
        let timed_total_s = med(&|g| g.total_s, timed);
        layer.set(
            "trace.overhead_share",
            (timed_total_s - run_s_p50) / run_s_p50,
        );
    }
}

/// Layer microbenchmarks at this workload's sizes, the BSP baseline, and
/// the virtual-time tracer's cost.
fn microbenchmarks(
    layer: &mut Values,
    spec: &Spec,
    input: &Input,
    last: &Good,
    attempts: &Attempts,
) {
    if let Some(s) = &last.facts.sim {
        let tasks = s.total_tasks();
        let hwm = s.queue_hwm_per_pe.iter().copied().max().unwrap_or(0);
        let engine_ns = layers::engine_ns_per_event(s.peak_pending_events, s.sim_events);
        layer.set("sim.engine_ns_per_event", engine_ns);
        if let Some(core_run_s) = layer.get("core.run_s").filter(|&s| s > 0.0) {
            layer.set(
                "sim.engine_share",
                engine_ns * s.sim_events as f64 / 1e9 / core_run_s,
            );
        }
        if s.messages > 0 {
            let bytes = s.mean_message_bytes().round() as u64;
            layer.set(
                "sim.fabric_transfer_ns",
                layers::fabric_transfer_ns(spec.fabric(), bytes, s.messages),
            );
        }
        if spec.kind == Kind::SsspDelta {
            let ns = layers::workqueue_ns(WorkQueue::priority(1, 1), hwm, tasks, 8);
            layer.set("core.workqueue_priority_ns", ns);
        } else {
            layer.set(
                "core.workqueue_fifo_ns",
                layers::workqueue_ns(WorkQueue::standard(), hwm, tasks, 1),
            );
        }
        if let Some(per_flush) = s.agg_flushed_tasks.checked_div(s.agg_flushes) {
            layer.set(
                "core.agg_push_flush_ns",
                layers::agg_push_flush_ns(per_flush, s.agg_flushed_tasks),
            );
        }
    } else {
        let q = layers::queue_layer();
        layer.set("queue.counter_push_ns", q.counter.push);
        layer.set("queue.counter_pop_ns", q.counter.pop);
        layer.set("queue.counter_mixed_t2_ns", q.counter.mixed_t2);
        layer.set("queue.cas_push_ns", q.cas.push);
        layer.set("queue.cas_pop_ns", q.cas.pop);
        layer.set("queue.cas_mixed_t2_ns", q.cas.mixed_t2);
        layer.set("queue.broker_push_ns", q.broker.push);
        layer.set("queue.broker_pop_ns", q.broker.pop);
        layer.set("queue.broker_mixed_t2_ns", q.broker.mixed_t2);
        layer.set("queue.cas_retries_per_op", q.cas_retries_per_op);
        layer.set("queue.counter_overshoot_per_op", q.counter_overshoot_per_op);
    }

    // Accuracy of the reproduction: the BSP baseline on the same input, in
    // virtual time. Only where the paper compares them on NVLink.
    let (g, p) = (input.graph.clone(), input.partition.clone());
    let bsp = match spec.name {
        "bfs_mesh_nvlink" => Some({
            let t = Instant::now();
            let run = bsp_bfs(g.clone(), p.clone(), input.source, spec.fabric());
            (
                run.stats.elapsed_ms(),
                t.elapsed().as_secs_f64(),
                Answer::Depth(run.depth),
            )
        }),
        "pr_scalefree_nvlink" => Some({
            let t = Instant::now();
            let run = bsp_pagerank(g.clone(), p.clone(), PR_ALPHA, PR_EPSILON, spec.fabric());
            (
                run.stats.elapsed_ms(),
                t.elapsed().as_secs_f64(),
                Answer::Rank(run.rank),
            )
        }),
        _ => None,
    };
    if let Some((bsp_ms, bsp_s, answer)) = bsp {
        if let Err(why) = answer.check(&attempts.reference) {
            eprintln!("{}: BSP baseline answered wrongly: {why}", spec.name);
        }
        layer.set("baselines.bsp_virtual_ms", bsp_ms);
        layer.set("baselines.bsp_run_s", bsp_s);
        if let Some(atos_ms) = layer.get("sim.virtual_ms").filter(|&ms| ms > 0.0) {
            layer.set("baselines.atos_speedup_x", bsp_ms / atos_ms);
        }
    }

    if spec.name == "bfs_mesh_nvlink" {
        let cfg = AtosConfig::standard_persistent();
        let time = |traced: bool| {
            let runs: Vec<f64> = (0..TRACER_RUNS)
                .map(|_| {
                    let (g, p) = (Arc::clone(&g), Arc::clone(&p));
                    let t = Instant::now();
                    if traced {
                        let mut buf = TraceBuffer::new();
                        run_bfs_traced(g, p, input.source, spec.fabric(), cfg, &mut buf);
                    } else {
                        run_bfs(g, p, input.source, spec.fabric(), cfg);
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&runs)
        };
        let (plain, traced) = (time(false), time(true));
        layer.set("trace.tracer_overhead_share", (traced - plain) / plain);
    }
}
