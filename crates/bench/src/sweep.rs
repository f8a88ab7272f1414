//! Parallel sweep harness shared by every experiment of `atos-bench`.
//!
//! The (dataset × GPU count × framework × app) grids the experiments
//! regenerate are embarrassingly parallel: each cell is one independent
//! simulated run, and the simulation is a pure function of its inputs.
//! [`SweepRunner`] fans the cells over scoped worker threads and returns
//! the results keyed by grid index, so the printed tables are
//! byte-identical to a serial sweep no matter how the threads interleave
//! — parallelism only reorders wall-clock completion, never results.
//!
//! [`BenchArgs`] is the CLI surface after the experiment name (`--quick`,
//! `--threads N`); the two artifact flags (`--trace`, `--metrics`) belong
//! to the `reference` experiment alone
//! ([`crate::registry::Experiment::check_flags`] refuses what an
//! experiment cannot honour). Stdout carries only the tables, which must
//! stay identical across thread counts; `atos-bench`'s one wall-clock line
//! goes to stderr.

use std::path::PathBuf;
// atos-lint: allow(facade_bypass) — host-side sweep scheduling around the
// system under test, never built under `--cfg atos_check`.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use atos_graph::generators::Scale;

/// Parsed command line of one `atos-bench <experiment>` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Graph scale: `Scale::Tiny` under `--quick`, else `Scale::Full`.
    pub scale: Scale,
    /// Worker threads for the sweep (>= 1).
    pub threads: usize,
    /// Chrome/Perfetto trace destination from `--trace PATH`: the
    /// `reference` experiment writes its run's virtual-time timeline
    /// there (see [`crate::observability`]).
    pub trace: Option<PathBuf>,
    /// Metrics-snapshot destination from `--metrics PATH`: a
    /// [`atos_core::MetricsRegistry`] JSON snapshot of the reference run
    /// plus host-queue contention counters.
    pub metrics: Option<PathBuf>,
}

impl BenchArgs {
    /// Pure parser: `args` is argv after the experiment name and
    /// `default_threads` the thread count when `--threads` is absent; the
    /// result is clamped to at least 1 worker.
    pub fn parse_from(args: &[String], default_threads: usize) -> Result<Self, String> {
        let mut scale = Scale::Full;
        let mut threads: Option<usize> = None;
        let mut trace: Option<PathBuf> = None;
        let mut metrics: Option<PathBuf> = None;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => scale = Scale::Tiny,
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    threads =
                        Some(v.parse().map_err(|_| format!("invalid --threads value `{v}`"))?);
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace requires a path")?;
                    trace = Some(PathBuf::from(v));
                }
                "--metrics" => {
                    let v = it.next().ok_or("--metrics requires a path")?;
                    metrics = Some(PathBuf::from(v));
                }
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (supported: --quick, --threads N, \
                         --trace PATH, --metrics PATH)"
                    ))
                }
            }
        }
        Ok(BenchArgs {
            scale,
            threads: threads.unwrap_or(default_threads).max(1),
            trace,
            metrics,
        })
    }
}

/// Print a command-line error and exit with status 2 (usage), rather than
/// silently starting a potentially minutes-long full-scale sweep.
pub fn exit_usage(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(2);
}

/// Host parallelism, the sweep-worker count when `--threads` is absent.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fans independent sweep cells over scoped worker threads.
///
/// Workers claim cells from a shared atomic cursor (dynamic scheduling —
/// simulated runs vary wildly in cost, so static chunking would leave
/// threads idle) and deposit each result in the slot of its grid index.
/// The output vector is therefore ordered exactly like the input no
/// matter which worker computed which cell.
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// Runner with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// Apply `f` to every item; `f` receives `(grid_index, &item)` and
    /// the result vector is indexed like `items`. With one worker (or one
    /// item) no threads are spawned — the cells run inline, in order.
    /// A panic in any cell propagates after the scope joins.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i, &items[i]);
                    *slots[i].lock().unwrap() = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("sweep cell not computed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parser_defaults() {
        let a = BenchArgs::parse_from(&[], 6).unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.threads, 6);
        assert_eq!(a.trace, None);
        assert_eq!(a.metrics, None);
    }

    #[test]
    fn parser_accepts_all_flags() {
        let a = BenchArgs::parse_from(
            &s(&[
                "--quick",
                "--threads",
                "4",
                "--trace",
                "/tmp/t.json",
                "--metrics",
                "/tmp/m.json",
            ]),
            1,
        )
        .unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.threads, 4);
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(a.metrics, Some(PathBuf::from("/tmp/m.json")));
    }

    #[test]
    fn parser_threads_flag_overrides_the_default_and_clamps() {
        let a = BenchArgs::parse_from(&s(&["--threads", "2"]), 8).unwrap();
        assert_eq!(a.threads, 2);
        let a = BenchArgs::parse_from(&s(&["--threads", "0"]), 8).unwrap();
        assert_eq!(a.threads, 1);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(BenchArgs::parse_from(&s(&["--frobnicate"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--threads"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--threads", "many"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--trace"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--metrics"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--json", "x"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--run-id", "x"]), 1).is_err());
    }

    #[test]
    fn runner_results_are_keyed_by_index() {
        let items: Vec<u64> = (0..97).collect();
        let serial = SweepRunner::new(1).run(&items, |i, &x| (i as u64) * 1000 + x * x);
        let parallel = SweepRunner::new(4).run(&items, |i, &x| (i as u64) * 1000 + x * x);
        assert_eq!(serial, parallel);
        assert_eq!(serial[5], 5025);
    }

    #[test]
    fn runner_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = vec![];
        assert!(SweepRunner::new(8).run(&empty, |_, &x| x).is_empty());
        // More workers than items.
        let out = SweepRunner::new(64).run(&[1u32, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
