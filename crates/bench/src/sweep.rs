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
//! `--threads N`, `--json PATH`, `--run-id ID`); the flag that changes
//! how each simulated run executes (`--load-balance`) parses into a
//! [`RunConfig`] value that the experiments hand to whatever launches
//! their runs, and the two artifact flags (`--trace`, `--metrics`) belong
//! to the `reference` experiment alone
//! ([`crate::registry::Experiment::check_flags`] refuses what an
//! experiment cannot honour). [`SweepReport`] records each experiment's
//! wall-clock time, thread count, and total simulator events (its
//! [`EventTally`]) into `results/BENCH_sweep.json`.
//! With `--run-id <sha>@<stamp>` the report entry is keyed
//! `<experiment>@<run-id>` instead of plain `<experiment>`, so successive runs
//! *append* to the committed history rather than overwrite it — the id
//! is always passed in (typically `git rev-parse --short HEAD` plus
//! `date -u`), never sampled in-process, keeping wall-clock identity out
//! of the simulation crates. All timing goes to stderr or the JSON file;
//! stdout carries only the tables, which must stay identical across
//! thread counts.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
// atos-lint: allow(facade_bypass) — host-side sweep bookkeeping (event
// totals, wall-clock timing) around the system under test, never built
// under `--cfg atos_check`.
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use atos_core::{LoadBalance, RunStats};
use atos_graph::generators::Scale;

/// Default location of the sweep timing report, relative to the working
/// directory (the repo root, when run via `cargo run`).
pub const DEFAULT_REPORT_PATH: &str = "results/BENCH_sweep.json";

/// How each simulated Atos run of an experiment executes: the setting
/// every cell of one invocation shares, passed by value to
/// [`crate::run_cell`] and the app launch bodies. Baseline frameworks
/// ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Load-balance policy from `--load-balance {owner|steal}` (default
    /// `owner` — the paper's static owner-computes assignment), applied
    /// to every Atos run's [`atos_core::AtosConfig`].
    pub load_balance: LoadBalance,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            load_balance: LoadBalance::Owner,
        }
    }
}

/// Parsed command line of one `atos-bench <experiment>` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Graph scale: `Scale::Tiny` under `--quick`, else `Scale::Full`.
    pub scale: Scale,
    /// Worker threads for the sweep (>= 1).
    pub threads: usize,
    /// Timing-report destination override from `--json PATH`.
    pub json: Option<PathBuf>,
    /// Chrome/Perfetto trace destination from `--trace PATH`: the
    /// `reference` experiment writes its run's virtual-time timeline
    /// there (see [`crate::observability`]).
    pub trace: Option<PathBuf>,
    /// Metrics-snapshot destination from `--metrics PATH`: a
    /// [`atos_core::MetricsRegistry`] JSON snapshot of the reference run
    /// plus host-queue contention counters.
    pub metrics: Option<PathBuf>,
    /// Run identity from `--run-id ID` (conventionally
    /// `<git sha>@<timestamp>`, both produced by the caller): when set,
    /// the timing-report entry is keyed `<experiment>@<ID>` so the report
    /// accumulates a history instead of overwriting the last entry.
    pub run_id: Option<String>,
    /// `--load-balance POLICY`.
    pub run: RunConfig,
}

impl BenchArgs {
    /// Pure parser: `args` is argv after the experiment name and
    /// `default_threads` the thread count when `--threads` is absent; the
    /// result is clamped to at least 1 worker.
    pub fn parse_from(args: &[String], default_threads: usize) -> Result<Self, String> {
        let mut scale = Scale::Full;
        let mut threads: Option<usize> = None;
        let mut json: Option<PathBuf> = None;
        let mut trace: Option<PathBuf> = None;
        let mut metrics: Option<PathBuf> = None;
        let mut run_id: Option<String> = None;
        let mut run = RunConfig::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => scale = Scale::Tiny,
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    threads =
                        Some(v.parse().map_err(|_| format!("invalid --threads value `{v}`"))?);
                }
                "--json" => {
                    let v = it.next().ok_or("--json requires a path")?;
                    json = Some(PathBuf::from(v));
                }
                "--trace" => {
                    let v = it.next().ok_or("--trace requires a path")?;
                    trace = Some(PathBuf::from(v));
                }
                "--metrics" => {
                    let v = it.next().ok_or("--metrics requires a path")?;
                    metrics = Some(PathBuf::from(v));
                }
                "--run-id" => {
                    let v = it.next().ok_or("--run-id requires a value")?;
                    run_id = Some(v.clone());
                }
                "--load-balance" => {
                    let v = it.next().ok_or("--load-balance requires a value")?;
                    run.load_balance = LoadBalance::parse(v).ok_or_else(|| {
                        format!("invalid --load-balance value `{v}` (expected owner or steal)")
                    })?;
                }
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (supported: --quick, --threads N, \
                         --json PATH, --trace PATH, --metrics PATH, --run-id ID, \
                         --load-balance {{owner|steal}})"
                    ))
                }
            }
        }
        Ok(BenchArgs {
            scale,
            threads: threads.unwrap_or(default_threads).max(1),
            json,
            trace,
            metrics,
            run_id,
            run,
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

/// Simulator events summed over the runs of one sweep (each
/// [`RunStats::sim_events`] added once), shared by the sweep's worker
/// threads. Every experiment's lives in its [`SweepReport`].
#[derive(Debug, Default)]
pub struct EventTally(AtomicU64);

impl EventTally {
    /// Add one finished run to the tally and return its virtual ms.
    pub fn ms_of(&self, stats: &RunStats) -> f64 {
        self.0.fetch_add(stats.sim_events, Ordering::Relaxed);
        stats.elapsed_ms()
    }

    /// Simulator events tallied so far.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Wall-clock timer for one experiment's sweep; [`SweepReport::finish`]
/// appends/updates its entry in the timing report and prints a
/// one-line summary to stderr (never stdout).
pub struct SweepReport {
    /// Simulator events of every run the experiment performed.
    pub events: EventTally,
    key: String,
    threads: usize,
    json: Option<PathBuf>,
    started: Instant,
}

impl SweepReport {
    /// Start timing `experiment` under the parsed arguments. A `--run-id`
    /// suffixes the report key (`<experiment>@<id>`) so the run lands as a
    /// new history entry instead of replacing the last one.
    pub fn start(experiment: &str, args: &BenchArgs) -> Self {
        let key = match &args.run_id {
            Some(id) => format!("{experiment}@{id}"),
            None => experiment.to_string(),
        };
        SweepReport {
            events: EventTally::default(),
            key,
            threads: args.threads,
            json: args.json.clone(),
            started: Instant::now(),
        }
    }

    /// Stop the clock, write the report entry, and log to stderr.
    pub fn finish(self) {
        let wall_s = self.started.elapsed().as_secs_f64();
        let events = self.events.total();
        let path = self
            .json
            .unwrap_or_else(|| PathBuf::from(DEFAULT_REPORT_PATH));
        eprintln!(
            "[sweep] {}: {:.3}s wall, {} thread{}, {} sim events -> {}",
            self.key,
            wall_s,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            events,
            path.display()
        );
        if let Err(e) = write_report_entry(&path, &self.key, wall_s, self.threads, events) {
            eprintln!("[sweep] warning: could not write {}: {e}", path.display());
        }
    }
}

/// Read-modify-write one entry of the line-oriented JSON report
/// (`{"<key>": {"wall_s": ..., "threads": ..., "sim_events": ...}}`).
/// Existing entries under other keys — including history lines that carry
/// the engine-shard count of the deleted sharded engine — are preserved
/// verbatim; output is sorted by key so the file is diff-stable.
pub fn write_report_entry(
    path: &Path,
    key: &str,
    wall_s: f64,
    threads: usize,
    sim_events: u64,
) -> io::Result<()> {
    let mut entries: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some(rest) = line.strip_prefix('"') {
                if let Some((name, value)) = rest.split_once("\": ") {
                    if value.starts_with('{') && value.ends_with('}') {
                        entries.insert(name.to_string(), value.to_string());
                    }
                }
            }
        }
    }
    entries.insert(
        key.to_string(),
        format!(
            "{{\"wall_s\": {wall_s:.3}, \"threads\": {threads}, \"sim_events\": {sim_events}}}"
        ),
    );
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut out = String::from("{\n");
    let last = entries.len().saturating_sub(1);
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str("  \"");
        out.push_str(k);
        out.push_str("\": ");
        out.push_str(v);
        if i != last {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    std::fs::write(path, out)
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
        assert_eq!(a.json, None);
        assert_eq!(a.trace, None);
        assert_eq!(a.metrics, None);
        assert_eq!(a.run_id, None);
        assert_eq!(a.run, RunConfig::default());
    }

    #[test]
    fn parser_accepts_all_flags() {
        let a = BenchArgs::parse_from(
            &s(&[
                "--quick",
                "--threads",
                "4",
                "--json",
                "/tmp/r.json",
                "--trace",
                "/tmp/t.json",
                "--metrics",
                "/tmp/m.json",
                "--run-id",
                "abc123@2026-01-01T00:00:00Z",
                "--load-balance",
                "steal",
            ]),
            1,
        )
        .unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.threads, 4);
        assert_eq!(a.json, Some(PathBuf::from("/tmp/r.json")));
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(a.metrics, Some(PathBuf::from("/tmp/m.json")));
        assert_eq!(a.run_id.as_deref(), Some("abc123@2026-01-01T00:00:00Z"));
        assert_eq!(
            a.run,
            RunConfig {
                load_balance: LoadBalance::Steal
            }
        );
    }

    #[test]
    fn parser_accepts_both_load_balance_policies_and_no_other() {
        for lb in LoadBalance::ALL {
            let a =
                BenchArgs::parse_from(&s(&["--load-balance", lb.name()]), 1).unwrap();
            assert_eq!(a.run.load_balance, lb);
        }
        assert!(BenchArgs::parse_from(&s(&["--load-balance"]), 1).is_err());
        for gone in ["chunk", "priority", "magic"] {
            let err = BenchArgs::parse_from(&s(&["--load-balance", gone]), 1).unwrap_err();
            assert!(err.contains("expected owner or steal"), "{err}");
        }
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
        assert!(BenchArgs::parse_from(&s(&["--json"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--trace"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--metrics"]), 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--run-id"]), 1).is_err());
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

    #[test]
    fn report_round_trips_and_merges() {
        let dir = std::env::temp_dir().join(format!("atos-sweep-test-{}", std::process::id()));
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_report_entry(&path, "table2", 1.5, 4, 100).unwrap();
        write_report_entry(&path, "table5", 2.0, 2, 200).unwrap();
        // Re-running an experiment replaces its entry.
        write_report_entry(&path, "table2", 9.25, 8, 300).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"table2\": {\"wall_s\": 9.250, \"threads\": 8, \"sim_events\": 300},\n  \
             \"table5\": {\"wall_s\": 2.000, \"threads\": 2, \"sim_events\": 200}\n}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_preserves_pre_sim_threads_entries() {
        // History lines written before the sim_threads field existed, and
        // those written while it did, must survive a merge untouched.
        let dir = std::env::temp_dir().join(format!("atos-sweep-old-{}", std::process::id()));
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            "{\n  \"fig1@old\": {\"wall_s\": 1.000, \"threads\": 1, \"sim_events\": 5},\n  \
             \"fig1@sharded\": {\"wall_s\": 3.000, \"threads\": 1, \"sim_threads\": 4, \"sim_events\": 7}\n}\n",
        )
        .unwrap();
        write_report_entry(&path, "fig1@new", 2.0, 1, 9).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"fig1@old\": {\"wall_s\": 1.000, \"threads\": 1, \"sim_events\": 5}"),
            "{text}"
        );
        assert!(
            text.contains("\"fig1@sharded\": {\"wall_s\": 3.000, \"threads\": 1, \"sim_threads\": 4, \"sim_events\": 7}"),
            "{text}"
        );
        assert!(
            text.contains("\"fig1@new\": {\"wall_s\": 2.000, \"threads\": 1, \"sim_events\": 9}"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_id_keys_entries_into_a_history() {
        let mut args = BenchArgs::parse_from(&[], 1).unwrap();
        args.run_id = Some("abc123@t0".to_string());
        let r = SweepReport::start("fig5", &args);
        assert_eq!(r.key, "fig5@abc123@t0");

        // Two runs of the same experiment under different run ids accumulate
        // as separate entries; a re-run of the same id replaces its own.
        let dir = std::env::temp_dir().join(format!("atos-sweep-runid-{}", std::process::id()));
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_report_entry(&path, "fig5@abc123@t0", 1.0, 1, 10).unwrap();
        write_report_entry(&path, "fig5@def456@t1", 2.0, 1, 20).unwrap();
        write_report_entry(&path, "fig5@abc123@t0", 3.0, 1, 30).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"fig5@abc123@t0\": {\"wall_s\": 3.000"), "{text}");
        assert!(text.contains("\"fig5@def456@t1\": {\"wall_s\": 2.000"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_event_tally_accumulates() {
        let mut stats = RunStats::new(1);
        stats.elapsed_ns = 2_500_000;
        let tally = EventTally::default();
        for events in [7, 5] {
            stats.sim_events = events;
            assert_eq!(tally.ms_of(&stats), 2.5);
        }
        assert_eq!(tally.total(), 12);
    }
}
