//! The contract of [`Application::prefetch`], from both sides.
//!
//! * **What the runtime promises** — a recording application and a tracer
//!   share one log, so every hint, every `process` call and every step's end
//!   land in one sequence. Under FIFO persistent and priority discrete
//!   configurations: a task at batch position ≥ [`FAR`] is announced `Far`,
//!   then `Near`, then processed; nothing is announced that the *same* step
//!   does not go on to process, and a step runs its own PE's tasks only.
//! * **What an application must promise** — the hint is inert. [`NoHint`]
//!   forwards every method of the real applications except `prefetch`; runs
//!   with and without it agree on every `RunStats` field and every answer.
//! * **The other defaulted method, `on_receive_run`**, is as invisible:
//!   [`PerTask`] forwards what the frozen benchmark's `Timed` wrapper
//!   forwards, so a message reaches PageRank's per-task `on_receive` through
//!   the trait's default loop instead of its run override — same statistics,
//!   same bits.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use atos_apps::pagerank::PrTask;
use atos_apps::sssp::{KIND_FULL, KIND_LIGHT};
use atos_apps::{BfsApp, PageRankApp, SsspApp};
use atos_core::app::IdleOutcome;
use atos_core::{Application, AtosConfig, Emitter, Lookahead, RunStats, Runtime, RuntimeTuning};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::weights::EdgeWeights;
use atos_sim::{Fabric, GpuCostModel};
use atos_trace::{EventKind, TraceEvent, Tracer};

/// `PREFETCH_FAR` of `crates/core/src/runtime.rs`: the promise is stated
/// for positions at or past it.
const FAR: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Hint(u32, Lookahead),
    Process {
        pe: usize,
        task: u32,
    },
    /// The step span the runtime records once the batch has run: `pe` is
    /// the PE whose step it was.
    StepEnd {
        pe: usize,
        tasks: usize,
    },
}

type Log = Rc<RefCell<Vec<Entry>>>;

/// A binary tree of uniquely numbered tasks: `t` spawns `2t + 1` and
/// `2t + 2` below `limit`, spread over the PEs: many remote pushes, batches
/// of every size.
struct Recorder {
    n_pes: usize,
    limit: u32,
    log: Log,
}

impl Application for Recorder {
    type Task = u32;

    fn process(&mut self, pe: usize, task: u32, out: &mut Emitter<u32>) {
        self.log.borrow_mut().push(Entry::Process { pe, task });
        for child in [2 * task + 1, 2 * task + 2] {
            if child < self.limit {
                out.push(child as usize % self.n_pes, child);
            }
        }
    }

    fn prefetch(&self, task: &u32, ahead: Lookahead) {
        self.log.borrow_mut().push(Entry::Hint(*task, ahead));
    }

    fn on_receive(&mut self, _pe: usize, task: u32) -> Option<u32> {
        Some(task)
    }

    /// Depth in the tree.
    fn priority(&self, task: &u32) -> u32 {
        (task + 1).ilog2()
    }

    fn task_edges(&self, _task: &u32) -> u64 {
        2
    }
}

/// Turns the runtime's per-step span into the log's step boundary.
struct StepMarks(Log);

impl Tracer for StepMarks {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: TraceEvent) {
        if matches!(ev.kind, EventKind::Span { .. }) && ev.name == "step" {
            assert_eq!(ev.arg_names[0], "tasks");
            self.0.borrow_mut().push(Entry::StepEnd {
                pe: ev.track.0 as usize,
                tasks: ev.arg_vals[0] as usize,
            });
        }
    }
}

/// What one recorded run looked like, for the scenarios to assert on.
#[derive(Debug, Default)]
struct Seen {
    processed: usize,
    /// Tasks that were announced `Far` and `Near` before running.
    fully_hinted: usize,
    largest_batch: usize,
}

fn record(n_pes: usize, limit: u32, cfg: AtosConfig) -> Seen {
    let log: Log = Rc::default();
    let app = Recorder {
        n_pes,
        limit,
        log: log.clone(),
    };
    let mut rt = Runtime::with_tracer(
        app,
        Fabric::daisy(n_pes),
        cfg,
        GpuCostModel::v100(),
        RuntimeTuning::default(),
        StepMarks(log.clone()),
    );
    rt.seed(0, [0u32]);
    let stats = rt.run();
    assert_eq!(stats.total_tasks(), limit as u64);

    let log = log.borrow();
    let mut seen = Seen::default();
    let mut step_start = 0;
    for (end, entry) in log.iter().enumerate() {
        let Entry::StepEnd { pe, tasks } = *entry else {
            continue;
        };
        check_step(&log[step_start..end], pe, tasks, &mut seen);
        step_start = end + 1;
    }
    assert_eq!(
        step_start,
        log.len(),
        "hints or calls after the last step ended"
    );
    assert_eq!(seen.processed, limit as usize);
    seen
}

/// One step's entries, in order: hints and `process` calls only.
fn check_step(step: &[Entry], step_pe: usize, tasks: usize, seen: &mut Seen) {
    // Where in the step each task ran, and at which batch position.
    let mut ran: HashMap<u32, (usize, usize)> = HashMap::new();
    for (at, entry) in step.iter().enumerate() {
        if let Entry::Process { pe, task } = *entry {
            assert_eq!(pe, step_pe, "a step runs its own PE's tasks");
            let position = ran.len();
            assert!(
                ran.insert(task, (at, position)).is_none(),
                "task {task} ran twice"
            );
        }
    }
    assert_eq!(ran.len(), tasks, "the step span counts its batch");

    // Every hint names a task this same step runs later; per task, at most
    // one of each kind, `Far` first.
    let mut far_at: HashMap<u32, usize> = HashMap::new();
    let mut near_at: HashMap<u32, usize> = HashMap::new();
    for (at, entry) in step.iter().enumerate() {
        let Entry::Hint(task, ahead) = *entry else {
            continue;
        };
        let &(runs_at, _) = ran
            .get(&task)
            .unwrap_or_else(|| panic!("task {task} hinted {ahead:?} in a step that never runs it"));
        assert!(at < runs_at, "task {task} hinted {ahead:?} after it ran");
        let first = match ahead {
            Lookahead::Far => far_at.insert(task, at),
            Lookahead::Near => near_at.insert(task, at),
        };
        assert!(first.is_none(), "task {task} hinted {ahead:?} twice");
    }
    for (task, &(_, position)) in &ran {
        let (far, near) = (far_at.get(task), near_at.get(task));
        if position >= FAR {
            assert!(
                matches!((far, near), (Some(f), Some(n)) if f < n),
                "task {task} at position {position}: far {far:?}, near {near:?}"
            );
        }
        if let (Some(f), Some(n)) = (far, near) {
            assert!(f < n, "task {task}: Near before Far");
            seen.fully_hinted += 1;
        }
    }
    seen.processed += tasks;
    seen.largest_batch = seen.largest_batch.max(tasks);
}

#[test]
fn tasks_are_announced_far_then_near_within_their_own_step() {
    for cfg in [
        AtosConfig::standard_persistent(),
        AtosConfig::priority_discrete(),
    ] {
        let seen = record(4, 1 << 13, cfg);
        assert!(seen.largest_batch > 4 * FAR, "{cfg:?}: {seen:?}");
        assert!(seen.fully_hinted > (1 << 12), "{cfg:?}: {seen:?}");
    }
}

// ---------------------------------------------------------------------------
// The real applications with the hint forwarded and with it dropped.
// ---------------------------------------------------------------------------

/// `A` behind a wrapper that leaves defaulted methods of [`Application`] at
/// their defaults. `prefetch` is never forwarded; `on_receive_run` is iff
/// `RUNS`. Every other method forwards.
struct Forward<A, const RUNS: bool>(A);

impl<A, const RUNS: bool> Forward<A, RUNS> {
    /// A constructor that can be named through the aliases below.
    fn new(app: A) -> Self {
        Forward(app)
    }
}

/// `A` with `prefetch` left at the trait's empty default.
type NoHint<A> = Forward<A, true>;

/// `A` as `benchmark/src/timed.rs::Timed` shows it to the runtime — the
/// wrapper forwards `process`, `on_receive`, `on_idle`, `priority`,
/// `task_edges`, `task_bytes` and `converged`, having been written before
/// the other two methods existed: no hint (its per-callback timings show
/// the un-pipelined path), and a message is applied by the trait's per-task
/// loop whatever run form `A` has.
type PerTask<A> = Forward<A, false>;

impl<A: Application, const RUNS: bool> Application for Forward<A, RUNS> {
    type Task = A::Task;

    fn process(&mut self, pe: usize, task: A::Task, out: &mut Emitter<A::Task>) {
        self.0.process(pe, task, out)
    }

    fn on_receive(&mut self, pe: usize, task: A::Task) -> Option<A::Task> {
        self.0.on_receive(pe, task)
    }

    fn on_receive_run(&mut self, pe: usize, run: &[A::Task], keep: &mut Vec<A::Task>) {
        if RUNS {
            self.0.on_receive_run(pe, run, keep)
        } else {
            // The trait's default body, word for word.
            for &task in run {
                keep.extend(self.on_receive(pe, task));
            }
        }
    }

    fn on_idle(&mut self, pe: usize, out: &mut Emitter<A::Task>) -> IdleOutcome {
        self.0.on_idle(pe, out)
    }

    fn priority(&self, task: &A::Task) -> u32 {
        self.0.priority(task)
    }

    fn task_edges(&self, task: &A::Task) -> u64 {
        self.0.task_edges(task)
    }

    fn task_bytes(&self) -> u64 {
        self.0.task_bytes()
    }

    fn converged(&self) -> bool {
        self.0.converged()
    }
}

type Seeds<A> = Vec<(usize, Vec<<A as Application>::Task>)>;

fn drive<A: Application>(
    app: A,
    seeds: &Seeds<A>,
    fabric: Fabric,
    cfg: AtosConfig,
) -> (A, RunStats) {
    let mut rt = Runtime::new(app, fabric, cfg);
    for (pe, tasks) in seeds {
        rt.seed(*pe, tasks.iter().copied());
    }
    let stats = rt.run();
    (rt.into_app(), stats)
}

/// Run `make()` bare and inside `wrap` ([`NoHint::new`] or
/// [`PerTask::new`]); every `RunStats` field (its `Debug` prints them all)
/// and the answer must agree.
fn assert_transparent<const RUNS: bool, A: Application, R: PartialEq + std::fmt::Debug>(
    name: &str,
    wrap: impl Fn(A) -> Forward<A, RUNS>,
    make: impl Fn() -> (A, Seeds<A>),
    fabric: &Fabric,
    cfg: AtosConfig,
    answer: impl Fn(A) -> R,
) {
    let (app, seeds) = make();
    let (bare, bare_stats) = drive(app, &seeds, fabric.clone(), cfg);
    let (app, seeds) = make();
    let (wrapped, wrapped_stats) = drive(wrap(app), &seeds, fabric.clone(), cfg);
    assert!(bare_stats.total_tasks() > 0, "{name}: nothing ran");
    assert_eq!(
        format!("{bare_stats:?}"),
        format!("{wrapped_stats:?}"),
        "{name}: a statistic moved"
    );
    assert!(answer(bare) == answer(wrapped.0), "{name}: the answer moved");
}

fn tiny(preset: &str) -> (Preset, Arc<atos_graph::Csr>) {
    let preset = Preset::by_name(preset).unwrap();
    (preset, Arc::new(preset.build(Scale::Tiny)))
}

#[test]
fn dropping_the_hint_changes_no_statistic_and_no_answer() {
    let (preset, mesh) = tiny("road_usa_s");
    let src = preset.bfs_source(&mesh);
    let part = Arc::new(Partition::block(mesh.n_vertices(), 4));
    assert_transparent(
        "mesh BFS",
        NoHint::new,
        || {
            let seeds = vec![(part.owner(src), vec![(src, 0u32)])];
            (BfsApp::new(mesh.clone(), part.clone(), src), seeds)
        },
        &Fabric::daisy(4),
        AtosConfig::standard_persistent(),
        |app| app.depth,
    );

    let (preset, social) = tiny("soc-LiveJournal1_s");
    let src = preset.bfs_source(&social);
    let weights = Arc::new(EdgeWeights::random(&social, 64, 5));
    let part = Arc::new(Partition::random(social.n_vertices(), 4, 3));
    // Both arms of SSSP's kind-aware hint: light and heavy tasks (split),
    // in bucket order and in arrival order, and full tasks (unsplit).
    for (name, split, cfg) in [
        ("split SSSP", true, AtosConfig::priority_discrete()),
        ("split SSSP, FIFO", true, AtosConfig::standard_persistent()),
        ("unsplit SSSP", false, AtosConfig::priority_discrete()),
    ] {
        assert_transparent(
            name,
            NoHint::new,
            || {
                let (g, w, p) = (social.clone(), weights.clone(), part.clone());
                let (app, kind) = match split {
                    true => (SsspApp::new_split(g, w, p, src, 8), KIND_LIGHT),
                    false => (SsspApp::new(g, w, p, src, 8), KIND_FULL),
                };
                (app, vec![(part.owner(src), vec![(src, 0u64, kind)])])
            },
            &Fabric::daisy(4),
            cfg,
            |app| app.dist,
        );
    }

    pagerank_is_transparent_through(NoHint::new);
}

/// Direct and aggregated PageRank, bare against `wrap`ped.
fn pagerank_is_transparent_through<const RUNS: bool>(
    wrap: impl Fn(PageRankApp) -> Forward<PageRankApp, RUNS>,
) {
    let (_, social) = tiny("soc-LiveJournal1_s");
    for (name, fabric, cfg) in [
        (
            "direct PageRank",
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        ),
        (
            "aggregated PageRank",
            Fabric::ib_cluster(8),
            AtosConfig::ib_pagerank(),
        ),
    ] {
        let n_pes = fabric.n_pes();
        let part = Arc::new(Partition::random(social.n_vertices(), n_pes, 7));
        assert_transparent(
            name,
            &wrap,
            || {
                let seeds = (0..n_pes)
                    .map(|pe| {
                        (
                            pe,
                            part.vertices_of(pe)
                                .into_iter()
                                .map(PrTask::Relax)
                                .collect(),
                        )
                    })
                    .collect();
                (
                    PageRankApp::new(social.clone(), part.clone(), 0.85, 1e-6),
                    seeds,
                )
            },
            &fabric,
            cfg,
            // Bit-equal floats: the apply order is part of the schedule.
            |app| {
                let bits = |x: &[f64]| x.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                (bits(&app.rank), bits(&app.residue))
            },
        );
    }
}

/// `PageRankApp` overrides `on_receive_run`; the benchmark's traced pass
/// runs it inside a wrapper that cannot know. An override that drifts from
/// per-task `on_receive` fails here, not in the pipeline.
#[test]
fn a_wrapper_that_forwards_only_on_receive_sees_the_same_pagerank_run() {
    pagerank_is_transparent_through(PerTask::new);
}
