//! Host-parallel backend: the Atos execution model on real threads.
//!
//! The simulator backend ([`crate::runtime`]) reproduces the paper's
//! *performance* phenomena in virtual time; this backend executes the same
//! task-parallel model *genuinely in parallel* on OS threads, using the
//! lock-free [`CounterQueue`] (the paper's Listing 6 data structure) for
//! every queue. It is the single-node CPU analog of the paper's system:
//!
//! * each **PE** owns a local queue and a receive queue (both arena
//!   `CounterQueue`s — the receive queue is written *directly by remote
//!   workers*, which is exactly the one-sided `push_warp(task, pe)`
//!   operation: no coordination with the destination's threads);
//! * each PE runs `workers_per_pe` **workers** that loop
//!   `pop → f1 → push` (paper Listing 3), preferring the receive queue;
//! * one-sided *updates* (e.g. BFS's remote `atomicMin`) are performed by
//!   the sending worker directly against shared atomic state before the
//!   push, like NVLink unified-memory atomics;
//! * **termination** is global quiescence, detected with an outstanding-
//!   task counter: incremented before every push, decremented after a
//!   task finishes processing. Children are registered before the parent
//!   retires, so the counter can only reach zero when no task exists
//!   anywhere — queues, claims, or in flight.

#[allow(clippy::disallowed_types, reason = "real-thread backend, no tracer")]
use std::time::{Duration, Instant};

use atos_macros::atos_hot;
use atos_queue::counter::CounterQueue;
use atos_sim::{at, nounwind};
// The sync facade makes this whole backend model-checkable: under
// `--cfg atos_check` every atomic, thread spawn, yield, spin hint, and
// timed park below runs on the atos-check shadow runtime instead of std
// (see `atos_queue::sync`).
use atos_queue::sync::{hint, thread, AtomicI64, AtomicU64, Ordering};
use atos_queue::{ContentionSnapshot, PopState};

/// An application executable by the host backend. State is shared across
/// worker threads, so implementations use atomics ([`std::sync::atomic`])
/// for the arrays their tasks race on.
pub trait HostApplication: Sync {
    /// The unit of work in the distributed queues.
    type Task: Copy + Send + std::fmt::Debug;

    /// Process one popped task on `pe`. New tasks are emitted through
    /// `push(dst_pe, task)`; any one-sided state update (remote atomicMin
    /// etc.) is performed by this thread directly before pushing.
    fn process(&self, pe: usize, task: Self::Task, push: &mut dyn FnMut(usize, Self::Task));
}

/// Host backend configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Number of PEs (queue pairs).
    pub n_pes: usize,
    /// Worker threads per PE.
    pub workers_per_pe: usize,
    /// Tasks popped per scheduling round per worker (the fetch size).
    pub fetch: usize,
    /// Arena capacity per queue — total pushes it can absorb, like the
    /// paper's `local_cap` / `recv_cap` init parameters. Size it to the
    /// workload's total push bound.
    pub queue_capacity: usize,
}

impl HostConfig {
    /// A reasonable default: PEs × workers covering the machine, fetch 32.
    pub fn new(n_pes: usize, queue_capacity: usize) -> Self {
        #[allow(clippy::disallowed_methods, reason = "real-thread backend, no tracer")]
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2);
        HostConfig {
            n_pes,
            workers_per_pe: (threads / n_pes).max(1),
            fetch: 32,
            queue_capacity,
        }
    }
}

/// Measurements from one host-backend run.
#[derive(Debug, Clone)]
pub struct HostStats {
    /// Wall-clock time of the parallel section.
    pub elapsed: Duration,
    /// Tasks processed per PE.
    pub tasks_per_pe: Vec<u64>,
    /// Tasks that crossed PEs (one-sided remote pushes).
    pub remote_pushes: u64,
    /// Lock-free queue contention observed across every local and receive
    /// queue: pop-reservation overshoots and occupancy high-water marks
    /// (CAS retries stay zero — the backend uses the counter queue).
    pub contention: ContentionSnapshot,
    /// Idle rounds every worker spent in the spin tier (cheap busy-wait,
    /// keeps caches and the pop fast-path hot for sub-µs arrivals).
    pub idle_spin_rounds: u64,
    /// Idle rounds spent in the yield tier (give the core to a runnable
    /// sibling without sleeping).
    pub idle_yield_rounds: u64,
    /// Idle rounds spent in the timed-park tier (sustained idleness: stop
    /// burning the core; arrival latency is bounded by the park timeout).
    pub idle_park_rounds: u64,
}

/// Per-run shared accumulators for the idle-backoff tier counters.
/// Workers keep thread-local tallies and merge them here once, at exit.
#[derive(Default)]
struct IdleCounters {
    spins: AtomicU64,
    yields: AtomicU64,
    parks: AtomicU64,
}

/// Consecutive empty polls a worker tolerates in the spin tier before
/// escalating to yields.
const IDLE_SPIN_ROUNDS: u32 = 64;
/// Further empty polls tolerated in the yield tier before parking.
const IDLE_YIELD_ROUNDS: u32 = 64;
/// Busy-wait hints issued per spin round (one poll of both queues costs
/// roughly this much, so the spin tier re-polls at queue-latency pace).
const IDLE_SPINS_PER_ROUND: u32 = 32;
/// Timed-park duration once a worker reaches the deepest tier. Short
/// enough to bound wake-up latency for late arrivals, long enough that a
/// quiescing run stops consuming its cores.
const IDLE_PARK: Duration = Duration::from_micros(50);

/// Tiered idle backoff: spin → yield → short timed park, escalating with
/// the length of the current empty-poll streak and resetting the moment a
/// pop succeeds. Tallies stay thread-local; the worker merges them into
/// the shared [`IdleCounters`] once, on exit (cold path).
struct IdleBackoff {
    streak: u32,
    spins: u64,
    yields: u64,
    parks: u64,
}

impl IdleBackoff {
    fn new() -> Self {
        IdleBackoff {
            streak: 0,
            spins: 0,
            yields: 0,
            parks: 0,
        }
    }

    /// One empty poll: wait according to the current tier, then escalate.
    #[inline]
    fn wait(&mut self) {
        if self.streak < IDLE_SPIN_ROUNDS {
            for _ in 0..IDLE_SPINS_PER_ROUND {
                hint::spin_loop();
            }
            self.spins += 1;
        } else if self.streak < IDLE_SPIN_ROUNDS + IDLE_YIELD_ROUNDS {
            thread::yield_now();
            self.yields += 1;
        } else {
            thread::park_timeout(IDLE_PARK);
            self.parks += 1;
        }
        self.streak = self.streak.saturating_add(1);
    }

    /// Work arrived: drop back to the cheapest tier.
    #[inline]
    fn reset(&mut self) {
        self.streak = 0;
    }

    /// Fold this worker's tallies into the run-wide counters.
    fn merge_into(&self, totals: &IdleCounters) {
        totals.spins.fetch_add(self.spins, Ordering::Relaxed);
        totals.yields.fetch_add(self.yields, Ordering::Relaxed);
        totals.parks.fetch_add(self.parks, Ordering::Relaxed);
    }
}

struct PeQueues<T> {
    local: CounterQueue<T>,
    recv: CounterQueue<T>,
}

/// Everything a worker thread needs, shared by reference.
struct WorkerCtx<'a, A: HostApplication> {
    app: &'a A,
    queues: &'a [PeQueues<A::Task>],
    outstanding: &'a AtomicI64,
    remote_pushes: &'a AtomicU64,
    idle: &'a IdleCounters,
    cfg: HostConfig,
}

/// Abort for arena exhaustion, with the sizing guidance in one place.
/// `extern "C"`: the panic aborts, and the worker loop keeps no unwinding
/// edge.
#[cold]
#[inline(never)]
extern "C" fn arena_exhausted() -> ! {
    panic!("queue arena exhausted: raise HostConfig::queue_capacity to the workload's total push bound");
}

/// One worker thread: `pop → process → push` to global quiescence
/// (paper Listing 3). This function is queue-protocol code: it cannot
/// unwind (`#[atos_hot]`), so failure paths abort.
#[atos_hot]
fn worker<A: HostApplication>(ctx: &WorkerCtx<'_, A>, pe: usize, tasks_ctr: &AtomicU64) {
    let mut recv_state = PopState::new();
    let mut local_state = PopState::new();
    let mut backoff = IdleBackoff::new();
    let mut batch: Vec<A::Task> = nounwind(|| Vec::with_capacity(ctx.cfg.fetch));
    let own = at(ctx.queues, pe);
    loop {
        batch.clear();
        // Receive queue first (drain remote work eagerly, as the paper's
        // launch* pop loops do), then local.
        let mut got = own
            .recv
            .pop_group(&mut recv_state, ctx.cfg.fetch, &mut batch);
        if got < ctx.cfg.fetch {
            got += own
                .local
                .pop_group(&mut local_state, ctx.cfg.fetch - got, &mut batch);
        }
        if got == 0 {
            if ctx.outstanding.load(Ordering::Acquire) == 0 {
                // Global quiescence: no task exists in any queue, claim,
                // or worker. Outstanding claims can never fill again —
                // safe to abandon.
                recv_state.abandon();
                local_state.abandon();
                break;
            }
            backoff.wait();
            continue;
        }
        backoff.reset();
        tasks_ctr.fetch_add(got as u64, Ordering::Relaxed);
        // The pops appended exactly `got` tasks to the cleared batch.
        for &task in &batch {
            let mut push = |dst: usize, t: A::Task| {
                // Register the child before the parent retires (see
                // module docs).
                ctx.outstanding.fetch_add(1, Ordering::Release);
                let q = if dst == pe {
                    &own.local
                } else {
                    ctx.remote_pushes.fetch_add(1, Ordering::Relaxed);
                    &at(ctx.queues, dst).recv
                };
                if q.push(t).is_err() {
                    arena_exhausted();
                }
            };
            nounwind(|| ctx.app.process(pe, task, &mut push));
            ctx.outstanding.fetch_sub(1, Ordering::Release);
        }
    }
    backoff.merge_into(ctx.idle);
}

/// Execute `app` to global quiescence. `seeds[pe]` are the initial tasks
/// of each PE.
///
/// # Panics
/// If `seeds` does not hold one list per PE; if `cfg` pops nothing
/// (`cfg.fetch` or `cfg.workers_per_pe` is 0), which would strand every
/// seeded task; or if a queue's arena capacity is exceeded (size
/// `queue_capacity` to the workload, as the paper sizes `local_cap`).
pub fn run_host<A: HostApplication>(
    app: &A,
    cfg: HostConfig,
    seeds: Vec<Vec<A::Task>>,
) -> HostStats {
    assert_eq!(seeds.len(), cfg.n_pes, "one seed list per PE");
    let (fetch, workers) = (cfg.fetch, cfg.workers_per_pe);
    assert!(
        fetch > 0 && workers > 0,
        "each PE pops cfg.fetch tasks a round on each of cfg.workers_per_pe workers, got \
         fetch = {fetch}, workers_per_pe = {workers}"
    );
    let queues: Vec<PeQueues<A::Task>> = (0..cfg.n_pes)
        .map(|_| PeQueues {
            local: CounterQueue::with_capacity(cfg.queue_capacity),
            recv: CounterQueue::with_capacity(cfg.queue_capacity),
        })
        .collect();
    let outstanding = AtomicI64::new(0);
    let remote_pushes = AtomicU64::new(0);
    let idle = IdleCounters::default();
    let tasks_per_pe: Vec<AtomicU64> = (0..cfg.n_pes).map(|_| AtomicU64::new(0)).collect();

    for (pe, tasks) in seeds.iter().enumerate() {
        outstanding.fetch_add(tasks.len() as i64, Ordering::Relaxed);
        queues[pe]
            .local
            .push_group(tasks)
            .expect("seed exceeds queue capacity");
    }

    #[allow(clippy::disallowed_types, reason = "real-thread backend, no tracer")]
    let start = Instant::now();
    let ctx = WorkerCtx {
        app,
        queues: &queues,
        outstanding: &outstanding,
        remote_pushes: &remote_pushes,
        idle: &idle,
        cfg,
    };
    thread::scope(|s| {
        for (pe, tasks_ctr) in tasks_per_pe.iter().enumerate().take(cfg.n_pes) {
            for _ in 0..cfg.workers_per_pe {
                let ctx = &ctx;
                s.spawn(move || worker(ctx, pe, tasks_ctr));
            }
        }
    });
    let elapsed = start.elapsed();

    let mut contention = ContentionSnapshot::default();
    for q in &queues {
        contention.merge(&q.local.contention());
        contention.merge(&q.recv.contention());
    }

    HostStats {
        elapsed,
        tasks_per_pe: tasks_per_pe
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        remote_pushes: remote_pushes.load(Ordering::Relaxed),
        contention,
        idle_spin_rounds: idle.spins.load(Ordering::Relaxed),
        idle_yield_rounds: idle.yields.load(Ordering::Relaxed),
        idle_park_rounds: idle.parks.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_queue::sync::AtomicU32;

    /// Counting relay: task = remaining hops; hops move round-robin
    /// across PEs, counting total visits.
    struct Relay {
        visits: AtomicU64,
        n_pes: usize,
    }

    impl HostApplication for Relay {
        type Task = u32;
        fn process(&self, pe: usize, task: u32, push: &mut dyn FnMut(usize, u32)) {
            self.visits.fetch_add(1, Ordering::Relaxed);
            if task > 0 {
                push((pe + 1) % self.n_pes, task - 1);
            }
        }
    }

    #[test]
    fn relay_terminates_with_exact_counts() {
        let app = Relay {
            visits: AtomicU64::new(0),
            n_pes: 3,
        };
        let cfg = HostConfig {
            n_pes: 3,
            workers_per_pe: 2,
            fetch: 4,
            queue_capacity: 4096,
        };
        let stats = run_host(&app, cfg, vec![vec![100u32], vec![], vec![]]);
        assert_eq!(app.visits.load(Ordering::Relaxed), 101);
        assert_eq!(stats.tasks_per_pe.iter().sum::<u64>(), 101);
        // 100 hops, two thirds cross PEs... all hops cross (round-robin).
        assert_eq!(stats.remote_pushes, 100);
        // Something was queued, so some queue saw occupancy ≥ 1; the
        // counter backend never spins on CAS.
        assert!(stats.contention.occupancy_hwm >= 1);
        assert_eq!(stats.contention.cas_retries, 0);
        // A single token hopping across 3 PEs leaves five of the six
        // workers idle-polling: the backoff tiers must have engaged.
        assert!(
            stats.idle_spin_rounds + stats.idle_yield_rounds + stats.idle_park_rounds > 0,
            "idle workers should have recorded backoff rounds: {stats:?}"
        );
    }

    #[test]
    fn idle_backoff_escalates_through_tiers_and_resets() {
        let mut b = IdleBackoff::new();
        for _ in 0..(IDLE_SPIN_ROUNDS + IDLE_YIELD_ROUNDS + 5) {
            b.wait();
        }
        assert_eq!(b.spins, IDLE_SPIN_ROUNDS as u64);
        assert_eq!(b.yields, IDLE_YIELD_ROUNDS as u64);
        assert_eq!(b.parks, 5);
        // A successful pop drops back to the cheapest tier.
        b.reset();
        b.wait();
        assert_eq!(b.spins, IDLE_SPIN_ROUNDS as u64 + 1);
        assert_eq!(b.parks, 5);
        let totals = IdleCounters::default();
        b.merge_into(&totals);
        assert_eq!(totals.spins.load(Ordering::Relaxed), b.spins);
        assert_eq!(totals.parks.load(Ordering::Relaxed), 5);
    }

    /// Fan-out tree: each task spawns `width` children until depth 0;
    /// exercises heavy concurrent pushing.
    struct FanOut {
        width: u32,
        n_pes: usize,
        leaves: AtomicU64,
    }

    impl HostApplication for FanOut {
        type Task = (u32, u32); // (depth, salt)
        fn process(
            &self,
            _pe: usize,
            (depth, salt): Self::Task,
            push: &mut dyn FnMut(usize, Self::Task),
        ) {
            if depth == 0 {
                self.leaves.fetch_add(1, Ordering::Relaxed);
                return;
            }
            for i in 0..self.width {
                let dst = ((salt + i) as usize) % self.n_pes;
                push(dst, (depth - 1, salt.wrapping_mul(31).wrapping_add(i)));
            }
        }
    }

    #[test]
    fn fanout_tree_counts_leaves() {
        let app = FanOut {
            width: 4,
            n_pes: 4,
            leaves: AtomicU64::new(0),
        };
        let cfg = HostConfig {
            n_pes: 4,
            workers_per_pe: 2,
            fetch: 16,
            queue_capacity: 1 << 20,
        };
        run_host(&app, cfg, vec![vec![(6, 1)], vec![], vec![], vec![]]);
        // 4^6 leaves.
        assert_eq!(app.leaves.load(Ordering::Relaxed), 4096);
    }

    /// Real parallel BFS over shared atomics (the paper's Listing 5 on
    /// host threads), validated for exact depths.
    struct HostBfs {
        offsets: Vec<u64>,
        neighbors: Vec<u32>,
        owner: Vec<u8>,
        depth: Vec<AtomicU32>,
    }

    impl HostApplication for HostBfs {
        type Task = u32;
        fn process(&self, _pe: usize, v: u32, push: &mut dyn FnMut(usize, u32)) {
            let d = self.depth[v as usize].load(Ordering::Relaxed);
            let nd = d + 1;
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            for &w in &self.neighbors[lo..hi] {
                // One-sided atomicMin, local or remote alike.
                if self.depth[w as usize].fetch_min(nd, Ordering::Relaxed) > nd {
                    push(self.owner[w as usize] as usize, w);
                }
            }
        }
    }

    #[test]
    fn host_bfs_matches_grid_depths() {
        let (w, h) = (24, 24);
        let n = w * h;
        let mut offsets = vec![0u64];
        let mut neighbors = Vec::new();
        for y in 0..h {
            for x in 0..w {
                for (dx, dy) in [(1i64, 0i64), (-1, 0), (0, 1), (0, -1)] {
                    let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                    if (0..w as i64).contains(&nx) && (0..h as i64).contains(&ny) {
                        neighbors.push((ny * w as i64 + nx) as u32);
                    }
                }
                offsets.push(neighbors.len() as u64);
            }
        }
        let n_pes = 4;
        let app = HostBfs {
            offsets,
            neighbors,
            owner: (0..n).map(|v| (v % n_pes) as u8).collect(),
            depth: (0..n)
                .map(|v| AtomicU32::new(if v == 0 { 0 } else { u32::MAX }))
                .collect(),
        };
        let cfg = HostConfig {
            n_pes,
            workers_per_pe: 2,
            fetch: 8,
            queue_capacity: 1 << 20,
        };
        let mut seeds = vec![Vec::new(); n_pes];
        seeds[0].push(0u32);
        let stats = run_host(&app, cfg, seeds);
        for y in 0..h {
            for x in 0..w {
                assert_eq!(
                    app.depth[y * w + x].load(Ordering::Relaxed),
                    (x + y) as u32,
                    "vertex ({x},{y})"
                );
            }
        }
        assert!(stats.tasks_per_pe.iter().sum::<u64>() >= (n - 1) as u64);
    }

    #[test]
    fn empty_seeds_terminate_immediately() {
        let app = Relay {
            visits: AtomicU64::new(0),
            n_pes: 2,
        };
        let cfg = HostConfig {
            n_pes: 2,
            workers_per_pe: 1,
            fetch: 4,
            queue_capacity: 16,
        };
        let stats = run_host(&app, cfg, vec![vec![], vec![]]);
        assert_eq!(app.visits.load(Ordering::Relaxed), 0);
        assert_eq!(stats.tasks_per_pe, vec![0, 0]);
    }

    /// Run a seeded relay on one PE with `fetch` and `workers_per_pe`.
    fn relay_on_one_pe(fetch: usize, workers_per_pe: usize) {
        let app = Relay {
            visits: AtomicU64::new(0),
            n_pes: 1,
        };
        let cfg = HostConfig {
            n_pes: 1,
            workers_per_pe,
            fetch,
            queue_capacity: 16,
        };
        run_host(&app, cfg, vec![vec![3]]);
    }

    #[test]
    #[should_panic(expected = "got fetch = 0, workers_per_pe = 1")]
    fn a_config_that_fetches_nothing_is_rejected() {
        relay_on_one_pe(0, 1);
    }

    #[test]
    #[should_panic(expected = "got fetch = 4, workers_per_pe = 0")]
    fn a_config_without_workers_is_rejected() {
        relay_on_one_pe(4, 0);
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = HostConfig::new(2, 1024);
        assert_eq!(cfg.n_pes, 2);
        assert!(cfg.workers_per_pe >= 1);
        assert!(cfg.fetch > 0);
    }
}
