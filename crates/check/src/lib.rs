//! `atos-check`: a deterministic concurrency model checker and
//! happens-before race detector for the atos lock-free queue substrate.
//!
//! The workspace's queues (`atos-queue`) and host runtime (`atos-core`)
//! rest on hand-chosen atomic orderings that fail only under rare
//! interleavings. This crate checks them the way loom/CHESS do, vendored
//! in-tree because the workspace builds offline:
//!
//! * [`sync`] provides shadow `Atomic*`/`UnsafeCell`/`fence` types that log
//!   every operation with its `Ordering` and route it through a cooperative
//!   scheduler (one thread runnable at a time);
//! * [`Model::check`] DFS-explores every interleaving within a CHESS-style
//!   preemption budget, and every weaker-than-SC load result the vector-
//!   clock memory model admits (see [`sync`] for the approximation);
//! * data races and publication bugs on `UnsafeCell` slots are reported
//!   with the two racing source locations and a schedule string that
//!   [`replay`] reproduces deterministically;
//! * [`fuzz_schedules`] drives the same engine from a seeded RNG for
//!   bounds too large to enumerate.
//!
//! ```
//! use atos_check::sync::{AtomicU64, Ordering, UnsafeCell};
//! use std::sync::Arc;
//!
//! atos_check::model!(|| {
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let cell = Arc::new(UnsafeCell::new(0u64));
//!     let (f2, c2) = (Arc::clone(&flag), Arc::clone(&cell));
//!     let t = atos_check::thread::spawn(move || {
//!         c2.with_mut(|p| unsafe { *p = 7 });
//!         f2.store(1, Ordering::Release);
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(cell.with(|p| unsafe { *p }), 7);
//!     }
//!     t.join().unwrap();
//! });
//! ```

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "the checker's shadow types are built on std's; they are what the facade names"
)]

pub mod clock;
pub mod exec;
pub mod path;
pub mod rt;
pub mod sync;
pub mod thread;

use std::sync::{Arc, Once};

use exec::DecideMode;
pub use exec::{Failure, FailureKind, SplitMix64};
use path::Path;

/// Outcome of a model check.
#[derive(Debug)]
pub enum CheckOutcome {
    /// Every explored execution satisfied the test body.
    Passed {
        /// Number of executions explored.
        executions: usize,
    },
    /// Some execution failed; the failure carries a replayable schedule.
    Failed(Failure),
}

impl CheckOutcome {
    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            CheckOutcome::Passed { .. } => None,
            CheckOutcome::Failed(f) => Some(f),
        }
    }

    /// Panic (test-failure style) if the check failed.
    #[track_caller]
    pub fn assert_passed(&self) {
        if let CheckOutcome::Failed(f) = self {
            panic!("model check failed — {f}");
        }
    }
}

/// A configured model check.
pub struct Model {
    /// Shown in reports.
    pub name: &'static str,
    /// CHESS preemption budget for DFS mode; `None` explores every
    /// interleaving. Two preemptions expose the vast majority of real
    /// concurrency bugs at a fraction of the cost.
    pub preemption_bound: Option<usize>,
    /// Per-execution visible-operation bound (livelock detector).
    pub max_steps: usize,
    /// Cap on explored executions; exceeding it is a hard error telling
    /// the author to shrink the test bounds.
    pub max_iterations: usize,
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

impl Model {
    /// Default bounds: 2 preemptions, 20k steps, 200k executions.
    pub fn new() -> Self {
        Model {
            name: "model",
            preemption_bound: Some(2),
            max_steps: 20_000,
            max_iterations: 200_000,
        }
    }

    /// Exhaustively explore `f` (DFS over schedules and load results).
    pub fn check<F>(&self, f: F) -> CheckOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_hook();
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut path = Path::default();
        let mut executions = 0usize;
        loop {
            path.rewind();
            let (returned, failure) = run_once(
                Arc::clone(&f),
                path,
                DecideMode::Dfs,
                self.max_steps,
                self.preemption_bound,
            );
            path = returned;
            executions += 1;
            if let Some(failure) = failure {
                return CheckOutcome::Failed(failure);
            }
            if executions >= self.max_iterations {
                panic!(
                    "model '{}' exceeded {} executions without converging; \
                     shrink the test bounds",
                    self.name, self.max_iterations
                );
            }
            if !path.step_back() {
                return CheckOutcome::Passed { executions };
            }
        }
    }

    /// Run exactly one execution following `schedule` (a failure's
    /// schedule string). Decisions beyond the recorded prefix default to
    /// "keep running the current thread / read the newest store".
    pub fn replay<F>(&self, schedule: &str, f: F) -> CheckOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_hook();
        let tokens = path::parse_schedule(schedule).expect("invalid schedule string");
        let (_, failure) = run_once(
            Arc::new(f),
            Path::default(),
            DecideMode::Replay(tokens.into()),
            self.max_steps,
            None,
        );
        match failure {
            Some(failure) => CheckOutcome::Failed(failure),
            None => CheckOutcome::Passed { executions: 1 },
        }
    }

    /// Run `n` independent executions with pseudo-random (but seeded and
    /// fully replayable) schedules — for bounds exhaustive DFS can't cover.
    pub fn fuzz<F>(&self, seed: u64, n: usize, f: F) -> CheckOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_hook();
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut seeder = SplitMix64(seed);
        for _ in 0..n {
            let rng = SplitMix64(seeder.next_u64());
            let (_, failure) = run_once(
                Arc::clone(&f),
                Path::default(),
                DecideMode::Fuzz(rng),
                self.max_steps,
                None,
            );
            if let Some(failure) = failure {
                return CheckOutcome::Failed(failure);
            }
        }
        CheckOutcome::Passed { executions: n }
    }
}

/// Exhaustively check `f` with default bounds; panic on failure.
pub fn check<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Model::new().check(f).assert_passed()
}

/// Replay one schedule string against `f` (see [`Model::replay`]).
pub fn replay<F>(schedule: &str, f: F) -> CheckOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    Model::new().replay(schedule, f)
}

/// Schedule-fuzz `f`: `n` seeded pseudo-random executions (see
/// [`Model::fuzz`]).
pub fn fuzz_schedules<F>(seed: u64, n: usize, f: F) -> CheckOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    Model::new().fuzz(seed, n, f)
}

/// Model-check a closure, panicking with a replayable report on failure.
///
/// * `model!(|| { ... })` — default bounds (preemption budget 2);
/// * `model!(preemptions = N, || { ... })` — explicit budget;
/// * `model!(unbounded, || { ... })` — full interleaving exploration.
#[macro_export]
macro_rules! model {
    (preemptions = $n:expr, $f:expr) => {{
        let mut m = $crate::Model::new();
        m.preemption_bound = Some($n);
        m.check($f).assert_passed()
    }};
    (unbounded, $f:expr) => {{
        let mut m = $crate::Model::new();
        m.preemption_bound = None;
        m.check($f).assert_passed()
    }};
    ($f:expr) => {{
        $crate::Model::new().check($f).assert_passed()
    }};
}

fn run_once(
    f: Arc<dyn Fn() + Send + Sync>,
    path: Path,
    mode: DecideMode,
    max_steps: usize,
    preemption_bound: Option<usize>,
) -> (Path, Option<Failure>) {
    let exec = Arc::new(exec::Exec::new(path, mode, max_steps, preemption_bound));
    exec.register_root();
    let root = Arc::clone(&exec);
    let handle = std::thread::Builder::new()
        .name("atos-check-t0".into())
        .spawn(move || {
            exec::run_thread(&root, 0, move || f());
        })
        .expect("spawn model root thread");
    exec.wait_all_exited();
    let _ = handle.join();
    let mut st = exec.lock();
    (std::mem::take(&mut st.path), st.failure.take())
}

/// Silence the `AbortExecution` panics that tear executions down; real
/// panics still print through the previous hook.
fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<exec::AbortExecution>() {
                return;
            }
            prev(info);
        }));
    });
}
