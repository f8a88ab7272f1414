//! The cooperative execution engine.
//!
//! Each model *execution* runs the user closure on real OS threads, but only
//! one thread is ever runnable at a time: every visible operation (atomic
//! access, cell access, fence, spawn, join, yield) first calls
//! [`Exec::schedule_point`], which consults the [`Path`] to decide which
//! thread performs the next operation and parks everyone else on a condvar.
//! Because all nondeterminism is funneled through the path, executions are
//! exactly reproducible from a schedule string.
//!
//! Preemption bounding (CHESS-style) applies in DFS mode: switching away
//! from a thread that is still enabled and did not voluntarily yield costs
//! one unit of preemption budget; once the budget is spent, schedule points
//! where the current thread remains enabled offer no alternatives.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::clock::VClock;
use crate::path::{Branch, Path, Token};

/// Number of times in a row a thread may observe a non-latest store of one
/// location before the checker forces it to read the latest. Keeps spin
/// loops (and the DFS over them) finite without hiding stale-read bugs —
/// two consecutive stale reads are enough to drive any one-shot protocol
/// decision down the stale path.
pub const STALE_BOUND: u32 = 2;

/// Panic payload used to unwind all model threads once an execution is done
/// (failure recorded, or state-space abort). Never observed by user code.
pub struct AbortExecution;

pub(crate) fn panic_abort() -> ! {
    std::panic::panic_any(AbortExecution)
}

/// Category of a model-check failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Two unsynchronized accesses (at least one write) to an `UnsafeCell`.
    DataRace,
    /// A read of an `UnsafeCell` slot that no execution-order write has
    /// initialized — a publication-safety failure (the real program would
    /// read uninitialized memory).
    UninitRead,
    /// User code panicked (assertion failure) on some interleaving.
    Panic,
    /// All live threads are blocked in `join`.
    Deadlock,
    /// The execution exceeded `max_steps` visible operations.
    Livelock,
}

/// A failed model check: what went wrong and the schedule that reproduces it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What class of bug was detected.
    pub kind: FailureKind,
    /// Human-readable report, including the racing source locations where
    /// applicable.
    pub message: String,
    /// Schedule string accepted by [`crate::replay`].
    pub schedule: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: {}\n  replay with schedule \"{}\"",
            self.kind, self.message, self.schedule
        )
    }
}

/// How nondeterministic decisions are made.
pub enum DecideMode {
    /// Exhaustive DFS over the `Path`.
    Dfs,
    /// Pseudo-random decisions from a deterministic generator; every choice
    /// is recorded so failures still come with a replayable schedule.
    Fuzz(SplitMix64),
    /// Follow a parsed schedule string; decisions beyond the recorded
    /// prefix fall back to choice 0.
    Replay(VecDeque<Token>),
}

/// Deterministic 64-bit generator (splitmix64) for fuzz mode.
#[derive(Clone, Debug)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Scheduling status of one model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Eligible to run.
    Runnable,
    /// Voluntarily deferred (spin hint / `yield_now`); skipped at the next
    /// schedule point if any non-yielded thread can run, then amnestied.
    Yielded,
    /// Blocked joining the given thread id.
    BlockedJoin(usize),
    /// Closure returned.
    Finished,
}

/// Per-thread model state.
pub struct TState {
    /// Scheduling status.
    pub status: Status,
    /// The thread's happens-before clock.
    pub clock: VClock,
    /// Release clocks observed by relaxed loads, applied by `fence(Acquire)`.
    pub pending_acq: VClock,
    /// This thread's clock at its last `fence(Release)`; relaxed stores
    /// publish at least this.
    pub rel_fence: VClock,
}

impl TState {
    fn new() -> Self {
        TState {
            status: Status::Runnable,
            clock: VClock::new(),
            pending_acq: VClock::new(),
            rel_fence: VClock::new(),
        }
    }
}

/// Mutable engine state, guarded by [`Exec::state`].
pub struct ExecState {
    /// Decision tape (owned by the [`crate::Model`] between executions).
    pub path: Path,
    /// Decision source.
    pub mode: DecideMode,
    /// Per-thread states, indexed by tid.
    pub threads: Vec<TState>,
    /// The tid currently allowed to run.
    pub current: usize,
    /// Visible operations executed so far this execution.
    pub steps: usize,
    /// Livelock bound.
    pub max_steps: usize,
    /// CHESS preemption budget (`None` = unbounded).
    pub preemption_bound: Option<usize>,
    preemptions: usize,
    /// Full decision trace of this execution: every schedule decision and
    /// every non-forced value decision, in order. Unlike the DFS path
    /// (which omits decisions forced by the preemption budget), this is a
    /// complete replay recipe, so failure schedules reproduce identically
    /// under any bound.
    trace: Vec<Token>,
    /// First failure of this execution, if any.
    pub failure: Option<Failure>,
    /// Set once a failure (or external stop) is recorded; parked threads
    /// wake and unwind with [`AbortExecution`].
    pub aborting: bool,
    /// Threads whose closure has not yet returned.
    pub live: usize,
    /// OS threads still inside the engine (for teardown).
    pub active: usize,
}

impl ExecState {
    /// Record the first failure and switch the execution into abort mode.
    pub fn fail(&mut self, kind: FailureKind, message: String) {
        if self.failure.is_none() {
            let schedule = self
                .trace
                .iter()
                .map(|t| match t {
                    Token::Thread(i) => format!("t{i}"),
                    Token::Value(k) => format!("v{k}"),
                })
                .collect::<Vec<_>>()
                .join(".");
            self.failure = Some(Failure {
                kind,
                message,
                schedule,
            });
        }
        self.aborting = true;
    }

    /// Decide which of `n` load candidates is observed (index 0 = latest
    /// store). Forced when `n == 1`; such points record no branch, so they
    /// never appear in schedule strings.
    pub fn decide_value(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        if n == 1 {
            return 0;
        }
        let k = match &mut self.mode {
            DecideMode::Dfs => self.path.next_value(n),
            DecideMode::Fuzz(rng) => {
                let k = rng.below(n);
                self.path.record(Branch::Value { n, taken: k });
                k
            }
            DecideMode::Replay(tokens) => {
                let k = match tokens.pop_front() {
                    Some(Token::Value(k)) => {
                        assert!(k < n, "replay diverged: value token v{k} of {n} candidates");
                        k
                    }
                    Some(Token::Thread(t)) => {
                        panic!("replay diverged: thread token t{t} at a load point")
                    }
                    None => 0,
                };
                self.path.record(Branch::Value { n, taken: k });
                k
            }
        };
        self.trace.push(Token::Value(k));
        k
    }

    /// Decide which thread runs next. `from` is the calling thread;
    /// `from_enabled` says whether it could legally keep running (false for
    /// joins/finishes and voluntary yields — those switches are free).
    /// Returns `None` when nothing can run.
    fn decide_schedule(&mut self, from: usize, from_enabled: bool) -> Option<usize> {
        let mut options: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.threads[t].status == Status::Runnable)
            .collect();
        if options.is_empty() {
            // Amnesty pool: only yielded threads remain runnable.
            options = (0..self.threads.len())
                .filter(|&t| self.threads[t].status == Status::Yielded)
                .collect();
        }
        if options.is_empty() {
            return None;
        }
        // Current thread first: the first DFS execution minimizes switches.
        if let Some(pos) = options.iter().position(|&t| t == from) {
            options.remove(pos);
            options.insert(0, from);
        }
        // Preemption bounding (DFS only): with the budget spent, a point
        // where the current thread may continue offers no alternatives.
        if matches!(self.mode, DecideMode::Dfs) {
            if let Some(bound) = self.preemption_bound {
                if self.preemptions >= bound && from_enabled && options.contains(&from) {
                    options = vec![from];
                }
            }
        }
        // Replay consumes one thread token per schedule decision no matter
        // how many options this mode sees: the recording side logs *every*
        // decision (including DFS points forced by an exhausted preemption
        // budget), so the streams stay aligned under any bound.
        let chosen = if let DecideMode::Replay(tokens) = &mut self.mode {
            let t = match tokens.pop_front() {
                Some(Token::Thread(t)) => {
                    assert!(
                        options.contains(&t),
                        "replay diverged: t{t} not enabled (options {options:?})"
                    );
                    t
                }
                Some(Token::Value(k)) => {
                    panic!("replay diverged: value token v{k} at a schedule point")
                }
                None => options[0],
            };
            if options.len() > 1 {
                let k = options.iter().position(|&x| x == t).unwrap();
                self.path.record(Branch::Schedule { options, taken: k });
            }
            t
        } else if options.len() == 1 {
            options[0]
        } else {
            match &mut self.mode {
                DecideMode::Dfs => self.path.next_schedule(options.clone()),
                DecideMode::Fuzz(rng) => {
                    let k = rng.below(options.len());
                    let t = options[k];
                    self.path.record(Branch::Schedule { options, taken: k });
                    t
                }
                DecideMode::Replay(_) => unreachable!("handled above"),
            }
        };
        self.trace.push(Token::Thread(chosen));
        if chosen != from && from_enabled {
            self.preemptions += 1;
        }
        // Yield amnesty: the decision is made; everyone competes again next
        // time.
        for t in &mut self.threads {
            if t.status == Status::Yielded {
                t.status = Status::Runnable;
            }
        }
        Some(chosen)
    }
}

/// One execution's engine: shared by all its model threads.
pub struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
}

impl Exec {
    /// Build the engine for one execution. `path` carries DFS state across
    /// executions.
    pub fn new(
        path: Path,
        mode: DecideMode,
        max_steps: usize,
        preemption_bound: Option<usize>,
    ) -> Self {
        Exec {
            state: Mutex::new(ExecState {
                path,
                mode,
                threads: Vec::new(),
                current: 0,
                steps: 0,
                max_steps,
                preemption_bound,
                preemptions: 0,
                trace: Vec::new(),
                failure: None,
                aborting: false,
                live: 0,
                active: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Lock the engine state (poison-tolerant: a panicking model thread must
    /// not wedge the harness).
    pub fn lock(&self) -> MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Register the root thread (tid 0). Call before spawning it.
    pub fn register_root(&self) {
        let mut st = self.lock();
        debug_assert!(st.threads.is_empty());
        st.threads.push(TState::new());
        st.current = 0;
        st.live = 1;
        st.active = 1;
    }

    /// Register a child thread spawned by `parent`; returns the new tid.
    /// The child inherits the parent's clock (spawn is a synchronization
    /// edge).
    pub fn spawn_thread(&self, parent: usize) -> usize {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            panic_abort();
        }
        let tid = st.threads.len();
        let mut t = TState::new();
        st.threads[parent].clock.tick(parent);
        t.clock = st.threads[parent].clock.clone();
        t.clock.tick(tid);
        st.threads.push(t);
        st.live += 1;
        st.active += 1;
        tid
    }

    /// Record a failure and abort the execution. Never returns.
    pub fn fail_and_abort(&self, kind: FailureKind, message: String) -> ! {
        let st = self.lock();
        self.fail_with(st, kind, message)
    }

    /// Like [`Exec::fail_and_abort`] for callers already holding the state
    /// lock. Never returns.
    pub fn fail_with(
        &self,
        mut st: MutexGuard<'_, ExecState>,
        kind: FailureKind,
        message: String,
    ) -> ! {
        st.fail(kind, message);
        self.cv.notify_all();
        drop(st);
        panic_abort()
    }

    /// Record a user panic (assertion failure) as the execution's failure.
    pub fn fail_from_panic(&self, tid: usize, payload: &(dyn Any + Send)) {
        let msg = payload_message(payload);
        let mut st = self.lock();
        st.fail(FailureKind::Panic, format!("thread t{tid} panicked: {msg}"));
        self.cv.notify_all();
    }

    /// A schedule point: the caller is about to perform a visible operation.
    /// May run other threads first; returns once the caller is scheduled.
    pub fn schedule_point(&self, tid: usize) {
        self.schedule_inner(tid, false)
    }

    /// A voluntary yield (spin-loop hint / `yield_now`): deprioritized at
    /// this one decision.
    pub fn yield_point(&self, tid: usize) {
        self.schedule_inner(tid, true)
    }

    fn schedule_inner(&self, tid: usize, yielding: bool) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            panic_abort();
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let steps = st.steps;
            st.fail(
                FailureKind::Livelock,
                format!("execution exceeded {steps} visible operations"),
            );
            self.cv.notify_all();
            drop(st);
            panic_abort();
        }
        if yielding {
            st.threads[tid].status = Status::Yielded;
        }
        // A runnable caller can always be re-chosen, so this never deadlocks.
        let chosen = st
            .decide_schedule(tid, !yielding)
            .expect("caller is enabled");
        if chosen != tid {
            st.current = chosen;
            self.cv.notify_all();
            st = self.wait_for_turn_locked(st, tid);
        }
        drop(st);
    }

    /// Park until `current == tid` (first run of a spawned thread, or after
    /// losing a schedule decision). Aborts cleanly if the execution died.
    pub fn wait_for_turn(&self, tid: usize) {
        let st = self.lock();
        drop(self.wait_for_turn_locked(st, tid));
    }

    fn wait_for_turn_locked<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
    ) -> MutexGuard<'a, ExecState> {
        while st.current != tid && !st.aborting {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.aborting {
            drop(st);
            panic_abort();
        }
        st
    }

    /// Model-level join: block until `target` finishes, then acquire its
    /// final clock (join is a synchronization edge).
    pub fn join_thread(&self, waiter: usize, target: usize) {
        self.schedule_point(waiter);
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            panic_abort();
        }
        if st.threads[target].status != Status::Finished {
            st.threads[waiter].status = Status::BlockedJoin(target);
            match st.decide_schedule(waiter, false) {
                Some(next) => {
                    st.current = next;
                    self.cv.notify_all();
                }
                None => {
                    st.fail(
                        FailureKind::Deadlock,
                        format!("all live threads blocked (t{waiter} joining t{target})"),
                    );
                    self.cv.notify_all();
                    drop(st);
                    panic_abort();
                }
            }
            st = self.wait_for_turn_locked(st, waiter);
        }
        let target_clock = st.threads[target].clock.clone();
        st.threads[waiter].clock.join(&target_clock);
        st.threads[waiter].clock.tick(waiter);
        drop(st);
    }

    /// The closure of `tid` returned: wake joiners and hand off the token.
    pub fn thread_finished(&self, tid: usize) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            return;
        }
        st.threads[tid].status = Status::Finished;
        st.live -= 1;
        for t in &mut st.threads {
            if t.status == Status::BlockedJoin(tid) {
                t.status = Status::Runnable;
            }
        }
        if st.live == 0 {
            self.cv.notify_all();
            return;
        }
        match st.decide_schedule(tid, false) {
            Some(next) => {
                st.current = next;
                self.cv.notify_all();
            }
            None => {
                st.fail(
                    FailureKind::Deadlock,
                    format!("all live threads blocked after t{tid} finished"),
                );
                self.cv.notify_all();
                drop(st);
                panic_abort();
            }
        }
    }

    /// Final bookkeeping as an OS thread leaves the engine. Must be the
    /// thread's very last touch of the state.
    pub fn exit_thread(&self) {
        let mut st = self.lock();
        st.active -= 1;
        self.cv.notify_all();
    }

    /// Runner side: block until every OS thread has left the engine.
    pub fn wait_all_exited(&self) {
        let mut st = self.lock();
        while st.active > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Body of every model OS thread: wait for the first turn, run the closure,
/// translate panics into failures, and hand the token onward.
pub fn run_thread<T>(exec: &Arc<Exec>, tid: usize, body: impl FnOnce() -> T) -> Option<T> {
    crate::rt::set_ctx(Some(crate::rt::Ctx {
        exec: Arc::clone(exec),
        tid,
    }));
    // Everything that can raise `AbortExecution` must run inside the
    // catch: the initial `wait_for_turn` aborts when the execution dies
    // before this thread is ever scheduled, and `thread_finished` aborts
    // on a deadlock-at-finish verdict. If either escaped, `exit_thread`
    // would be skipped and `wait_all_exited` would hang on the leaked
    // `active` count.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec.wait_for_turn(tid);
        let v = body();
        exec.thread_finished(tid);
        v
    }));
    let out = match result {
        Ok(v) => Some(v),
        Err(payload) => {
            if !payload.is::<AbortExecution>() {
                exec.fail_from_panic(tid, payload.as_ref());
            }
            None
        }
    };
    crate::rt::set_ctx(None);
    exec.exit_thread();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix_below_in_range() {
        let mut r = SplitMix64(7);
        for _ in 0..64 {
            assert!(r.below(3) < 3);
        }
    }
}
