//! The three Figure 1 experiments as a reusable library.
//!
//! Paper, Section III-A.2: "We characterize queue performance with three
//! experiments, each with high contention: (1) n concurrent threads each
//! push to the queue 10 times; (2) n concurrent threads each pop from the
//! queue 10 times; and (3) n concurrent threads each push and then pop from
//! the queue 10 times without synchronization between push and pop."
//!
//! On the GPU, `n` is the number of resident CUDA threads and a warp/CTA
//! worker issues one reservation per 32/512 lanes. On the host we map the
//! `n` *virtual* threads onto a fixed pool of OS threads: the total
//! operation count (`n × 10`) and the reservation count (`n × 10 / G` for
//! group size `G`) are preserved, which is what drives the contention curves
//! the figure shows.

#![allow(
    clippy::disallowed_types,
    reason = "the harness measures real hardware atomics (Figure 1); its own counters must \
              not be rerouted to the checker's shadow types, which would serialize it"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::broker::BrokerQueue;
use crate::cas::CasQueue;
use crate::counter::CounterQueue;
use crate::{ConcurrentQueue, ContentionSnapshot, PopState};

/// Which queue implementation to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Counter queue, warp-sized groups (32).
    CounterWarp,
    /// Counter queue, CTA-sized groups (256).
    CounterCta,
    /// Broker queue (per-item flags; no grouping).
    Broker,
    /// CAS queue, warp-sized groups (32).
    CasWarp,
    /// CAS queue, CTA-sized groups (256).
    CasCta,
}

impl QueueKind {
    /// All kinds, in the order Figure 1's legend lists them.
    pub const ALL: [QueueKind; 5] = [
        QueueKind::CounterWarp,
        QueueKind::CounterCta,
        QueueKind::Broker,
        QueueKind::CasWarp,
        QueueKind::CasCta,
    ];

    /// Group ("worker") size used for reservations.
    pub fn group_size(self) -> usize {
        match self {
            QueueKind::CounterWarp | QueueKind::CasWarp => 32,
            QueueKind::CounterCta | QueueKind::CasCta => 256,
            QueueKind::Broker => 1,
        }
    }

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::CounterWarp => "our queue(warp)",
            QueueKind::CounterCta => "our queue(cta)",
            QueueKind::Broker => "Broker queue",
            QueueKind::CasWarp => "CAS queue(warp)",
            QueueKind::CasCta => "CAS queue(cta)",
        }
    }
}

/// Which of the three Figure 1 experiments to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// n virtual threads each push 10 items.
    ConcurrentPush,
    /// n virtual threads each pop 10 items (queue pre-filled).
    ConcurrentPop,
    /// n virtual threads each push 10 then pop 10, unsynchronized.
    ConcurrentPopPush,
}

impl Experiment {
    /// All experiments in figure order.
    pub const ALL: [Experiment; 3] = [
        Experiment::ConcurrentPush,
        Experiment::ConcurrentPop,
        Experiment::ConcurrentPopPush,
    ];

    /// Panel title as in Figure 1.
    pub fn label(self) -> &'static str {
        match self {
            Experiment::ConcurrentPush => "concurrent push",
            Experiment::ConcurrentPop => "concurrent pop",
            Experiment::ConcurrentPopPush => "concurrent pop and push",
        }
    }
}

/// Ops each virtual thread performs (fixed at 10 by the paper).
pub const OPS_PER_VIRTUAL_THREAD: usize = 10;

/// One measured point: total wall time for all `n × 10` operations.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Virtual thread count (the figure's x-axis).
    pub virtual_threads: usize,
    /// Wall time for the whole experiment.
    pub elapsed: Duration,
    /// The queue's contention totals after the experiment (all zero for
    /// the broker queue, which counts none).
    pub contention: ContentionSnapshot,
}

fn host_threads() -> usize {
    // Oversubscribe low-core hosts: contention phenomena need several
    // threads even if they timeslice; cap to keep scheduling noise down.
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(8, 16)
}

/// Run one experiment point: `virtual_threads × 10` operations against a
/// fresh queue of `kind`, using all available host threads.
pub fn run(kind: QueueKind, exp: Experiment, virtual_threads: usize) -> Sample {
    let total_ops = virtual_threads * OPS_PER_VIRTUAL_THREAD;
    let (elapsed, contention) = match kind {
        QueueKind::CounterWarp | QueueKind::CounterCta => {
            let q = CounterQueue::<u64>::with_capacity(2 * total_ops + 1024);
            let elapsed = time_queue(&q, exp, total_ops, kind.group_size());
            (elapsed, q.contention())
        }
        QueueKind::CasWarp | QueueKind::CasCta => {
            let q = CasQueue::<u64>::with_capacity(2 * total_ops + 1024);
            let elapsed = time_queue(&q, exp, total_ops, kind.group_size());
            (elapsed, q.contention())
        }
        QueueKind::Broker => {
            let q = BrokerQueue::<u64>::with_capacity(2 * total_ops + 1024);
            let elapsed = time_queue(&q, exp, total_ops, kind.group_size());
            (elapsed, ContentionSnapshot::default())
        }
    };
    Sample {
        virtual_threads,
        elapsed,
        contention,
    }
}

fn time_queue<Q: ConcurrentQueue<u64>>(
    q: &Q,
    exp: Experiment,
    total_ops: usize,
    group: usize,
) -> Duration {
    let workers = host_threads();
    match exp {
        Experiment::ConcurrentPush => {
            let start = Instant::now();
            run_push(q, total_ops, group, workers);
            start.elapsed()
        }
        Experiment::ConcurrentPop => {
            run_push(q, total_ops, group, workers);
            let start = Instant::now();
            run_pop(q, total_ops, group, workers);
            start.elapsed()
        }
        Experiment::ConcurrentPopPush => {
            let start = Instant::now();
            run_pop_push(q, total_ops, group, workers);
            start.elapsed()
        }
    }
}

fn run_push<Q: ConcurrentQueue<u64>>(q: &Q, total_ops: usize, group: usize, workers: usize) {
    let cursor = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = Arc::clone(&cursor);
            s.spawn(move || {
                let buf: Vec<u64> = (0..group as u64).collect();
                loop {
                    let base = cursor.fetch_add(group as u64, Ordering::Relaxed);
                    if base >= total_ops as u64 {
                        break;
                    }
                    let n = group.min((total_ops as u64 - base) as usize);
                    q.push_group(&buf[..n]).expect("bench queue sized for ops");
                }
            });
        }
    });
}

fn run_pop<Q: ConcurrentQueue<u64>>(q: &Q, total_ops: usize, group: usize, workers: usize) {
    let popped = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..workers {
            let popped = Arc::clone(&popped);
            s.spawn(move || {
                let mut st = PopState::new();
                let mut out = Vec::with_capacity(group);
                loop {
                    if popped.load(Ordering::Relaxed) >= total_ops as u64 {
                        break;
                    }
                    out.clear();
                    let got = q.pop_group(&mut st, group, &mut out);
                    if got > 0 {
                        popped.fetch_add(got as u64, Ordering::Relaxed);
                    } else if q.is_empty() {
                        // Pre-filled benchmark: empty means others took the
                        // remainder.
                        st.abandon();
                        break;
                    } else {
                        // Oversubscribed hosts: let the thread holding the
                        // unpublished slot run.
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
}

fn run_pop_push<Q: ConcurrentQueue<u64>>(q: &Q, total_ops: usize, group: usize, workers: usize) {
    let cursor = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for _ in 0..workers {
            let cursor = Arc::clone(&cursor);
            s.spawn(move || {
                let buf: Vec<u64> = (0..group as u64).collect();
                let mut st = PopState::new();
                let mut out = Vec::with_capacity(group);
                loop {
                    let base = cursor.fetch_add(group as u64, Ordering::Relaxed);
                    if base >= total_ops as u64 {
                        break;
                    }
                    let n = group.min((total_ops as u64 - base) as usize);
                    q.push_group(&buf[..n]).expect("bench queue sized for ops");
                    out.clear();
                    // Unsynchronized pop immediately after push, as in the
                    // paper's experiment (3); may legitimately get 0..n.
                    q.pop_group(&mut st, n, &mut out);
                }
                st.abandon();
            });
        }
    });
}

/// Sweep an experiment over virtual-thread counts, returning one sample per
/// point (the series a Figure 1 panel plots for one queue kind).
pub fn sweep(kind: QueueKind, exp: Experiment, points: &[usize]) -> Vec<Sample> {
    points.iter().map(|&n| run(kind, exp, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kind_experiment_pairs_complete() {
        for kind in QueueKind::ALL {
            for exp in Experiment::ALL {
                let s = run(kind, exp, 512);
                assert_eq!(s.virtual_threads, 512);
                assert!(s.elapsed > Duration::ZERO);
            }
        }
    }

    #[test]
    fn sweep_returns_point_per_input() {
        let pts = [64, 256];
        let out = sweep(QueueKind::CounterWarp, Experiment::ConcurrentPush, &pts);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].virtual_threads, 64);
        assert_eq!(out[1].virtual_threads, 256);
    }

    #[test]
    fn labels_match_figure_legend() {
        assert_eq!(QueueKind::CounterWarp.label(), "our queue(warp)");
        assert_eq!(Experiment::ConcurrentPop.label(), "concurrent pop");
        assert_eq!(QueueKind::Broker.group_size(), 1);
    }
}
