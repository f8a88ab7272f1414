//! `Timed<A>`: an [`Application`] wrapper that counts and samples the
//! runtime's calls into the application, from outside both.
//!
//! Every call is counted; about one call in [`SAMPLE_EVERY`] is timed,
//! because a pair of `Instant` reads costs as much as the 20–50 ns
//! callbacks they would measure. The gap between samples is drawn anew each
//! time: a fixed gap of 64 would always land on the same place in the
//! runtime's batches. Totals are extrapolated from the sampled mean, less
//! the cost of the pair of reads itself.
//!
//! A sampled call runs alone between two clock reads that wait for its
//! loads, so it shows memory latency that back-to-back calls overlap with
//! one another. For callbacks that miss the cache (BFS and SSSP `process`)
//! the totals are therefore upper estimates, and can exceed the run's wall
//! time. Timing a group of consecutive calls instead was tried and is
//! worse: a group that straddles two runtime steps takes in the runtime's
//! own work between them.

use std::sync::OnceLock;
use std::time::Instant;

use atos_core::app::IdleOutcome;
use atos_core::{Application, Emitter, ShardableApp};

pub const SAMPLE_EVERY: u64 = 64;

/// What a sample reads when nothing runs between its two clock reads:
/// the median of many empty samples, measured once per process.
fn empty_sample_ns() -> u64 {
    static EMPTY: OnceLock<u64> = OnceLock::new();
    *EMPTY.get_or_init(|| {
        let mut empty: Vec<u64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        empty.sort_unstable();
        empty[empty.len() / 2]
    })
}

/// Calls into one kind of callback.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
    /// Calls left before the next sample.
    gap: u64,
    /// xorshift state behind the gaps.
    rng: u64,
}

impl Calls {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.gap > 0 {
            self.gap -= 1;
            return f();
        }
        // Uniform over SAMPLE_EVERY/2 ..= 3*SAMPLE_EVERY/2 - 1 calls.
        self.rng ^= (self.rng | 1) << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.gap = SAMPLE_EVERY / 2 + self.rng % SAMPLE_EVERY;
        let t = Instant::now();
        let r = f();
        self.sampled_ns += t.elapsed().as_nanos() as u64;
        self.sampled += 1;
        r
    }

    fn merge(&mut self, other: &Calls) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Extrapolated total time of all calls, seconds (computed: sampled
    /// mean × call count).
    pub fn total_s(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let clock_ns = self.sampled * empty_sample_ns();
        let mean_ns = self.sampled_ns.saturating_sub(clock_ns) as f64 / self.sampled as f64;
        mean_ns * self.calls as f64 / 1e9
    }
}

/// What one run's callbacks did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub process: Calls,
    pub on_receive: Calls,
    pub on_idle: Calls,
    /// `on_receive` calls that returned a task to enqueue.
    pub received_kept: u64,
}

pub struct Timed<A> {
    pub inner: A,
    pub tally: Tally,
}

impl<A> Timed<A> {
    pub fn new(inner: A) -> Self {
        Timed {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<A: Application> Application for Timed<A> {
    type Task = A::Task;

    #[inline]
    fn process(&mut self, pe: usize, task: Self::Task, out: &mut Emitter<Self::Task>) {
        let inner = &mut self.inner;
        self.tally.process.time(|| inner.process(pe, task, out))
    }

    #[inline]
    fn on_receive(&mut self, pe: usize, task: Self::Task) -> Option<Self::Task> {
        let inner = &mut self.inner;
        let kept = self.tally.on_receive.time(|| inner.on_receive(pe, task));
        self.tally.received_kept += kept.is_some() as u64;
        kept
    }

    #[inline]
    fn on_idle(&mut self, pe: usize, out: &mut Emitter<Self::Task>) -> IdleOutcome {
        let inner = &mut self.inner;
        self.tally.on_idle.time(|| inner.on_idle(pe, out))
    }

    #[inline]
    fn priority(&self, task: &Self::Task) -> u32 {
        self.inner.priority(task)
    }

    #[inline]
    fn task_edges(&self, task: &Self::Task) -> u64 {
        self.inner.task_edges(task)
    }

    #[inline]
    fn task_bytes(&self) -> u64 {
        self.inner.task_bytes()
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

impl<A: ShardableApp> ShardableApp for Timed<A> {
    fn fork(&self, lo: usize, hi: usize) -> Self {
        Timed::new(self.inner.fork(lo, hi))
    }

    fn join(&mut self, shard: Self, lo: usize, hi: usize) {
        self.inner.join(shard.inner, lo, hi);
        self.tally.process.merge(&shard.tally.process);
        self.tally.on_receive.merge(&shard.tally.on_receive);
        self.tally.on_idle.merge(&shard.tally.on_idle);
        self.tally.received_kept += shard.tally.received_kept;
    }
}
