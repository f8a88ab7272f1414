//! Parallel sweep harness shared by every table/figure binary.
//!
//! The (dataset × GPU count × framework × app) grids the binaries
//! regenerate are embarrassingly parallel: each cell is one independent
//! simulated run, and the simulation is a pure function of its inputs.
//! [`SweepRunner`] fans the cells over scoped worker threads and returns
//! the results keyed by grid index, so the printed tables are
//! byte-identical to a serial sweep no matter how the threads interleave
//! — parallelism only reorders wall-clock completion, never results.
//!
//! [`BenchArgs`] is the shared CLI surface (`--quick`, `--threads N`,
//! `--json PATH`, plus the `ATOS_BENCH_THREADS` environment override); the
//! two flags that change how each simulated run executes (`--sim-threads`,
//! `--load-balance`) parse into a [`RunConfig`] value that the binaries
//! hand to whatever launches their runs. [`SweepReport`] records each
//! binary's wall-clock time, thread count, and total simulator events
//! (its [`EventTally`]) into `results/BENCH_sweep.json`.
//! With `--run-id <sha>@<stamp>` the report entry is keyed
//! `<binary>@<run-id>` instead of plain `<binary>`, so successive runs
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

/// How each simulated Atos run of a binary executes: the two settings
/// every cell of one invocation shares, passed by value to the framework
/// runners (`crate::bfs_nvlink_ms` and friends) and the app launch bodies.
/// Baseline frameworks ignore both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Engine shards per run from `--sim-threads K` (>= 1; default 1 —
    /// the sequential engine). With `K > 1` each Atos run executes on the
    /// sharded window-barrier runtime (`Runtime::run_sharded`):
    /// byte-identical tables, parallel host wall-clock. Orthogonal to
    /// `--threads`, which fans *independent* sweep cells.
    pub sim_threads: usize,
    /// Load-balance policy from `--load-balance {owner|steal}` (default
    /// `owner` — the paper's static owner-computes assignment), applied
    /// to every Atos run's [`atos_core::AtosConfig`].
    pub load_balance: LoadBalance,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sim_threads: 1,
            load_balance: LoadBalance::Owner,
        }
    }
}

/// Parsed command line shared by the table/figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Graph scale: `Scale::Tiny` under `--quick`, else `Scale::Full`.
    pub scale: Scale,
    /// Worker threads for the sweep (>= 1).
    pub threads: usize,
    /// Timing-report destination override from `--json PATH`.
    pub json: Option<PathBuf>,
    /// Chrome/Perfetto trace destination from `--trace PATH`: when set,
    /// the binary performs one traced reference run and writes its
    /// virtual-time timeline there (see [`crate::observability`]).
    pub trace: Option<PathBuf>,
    /// Metrics-snapshot destination from `--metrics PATH`: when set, the
    /// binary dumps a [`atos_core::MetricsRegistry`] JSON snapshot of the
    /// reference run plus host-queue contention counters.
    pub metrics: Option<PathBuf>,
    /// Flight-recorder destination from `--flight-dump PATH`: when set
    /// together with `--sim-threads K > 1`, the reference run's per-shard
    /// flight-recorder rings (last [`atos_core::FlightRecorder`] windows
    /// per shard) are dumped there as deterministic JSON.
    pub flight_dump: Option<PathBuf>,
    /// Run identity from `--run-id ID` (conventionally
    /// `<git sha>@<timestamp>`, both produced by the caller): when set,
    /// the timing-report entry is keyed `<binary>@<ID>` so the report
    /// accumulates a history instead of overwriting the binary's entry.
    pub run_id: Option<String>,
    /// `--sim-threads K` and `--load-balance POLICY`.
    pub run: RunConfig,
}

impl BenchArgs {
    /// Parse the process's argv and environment; prints an error and
    /// exits with status 2 on unknown or malformed arguments (rather than
    /// silently starting a potentially minutes-long full-scale sweep).
    pub fn parse() -> Self {
        crate::pipe_friendly();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env = std::env::var("ATOS_BENCH_THREADS").ok();
        match Self::parse_from(&args, env.as_deref(), default_threads()) {
            Ok(a) => a,
            Err(e) => exit_usage(&e),
        }
    }

    /// For a binary whose runs do not go through a sharded launch body and
    /// so cannot honour `--sim-threads` / `--load-balance`: `Err` naming
    /// the flag when either is set to a non-default value, so the run is
    /// refused instead of reported under settings it never used.
    pub fn require_default_run(&self, binary: &str) -> Result<(), String> {
        let default = RunConfig::default();
        let flag = if self.run.sim_threads != default.sim_threads {
            "--sim-threads"
        } else if self.run.load_balance != default.load_balance {
            "--load-balance"
        } else {
            return Ok(());
        };
        Err(format!(
            "{binary} does not support {flag}: it launches its runs itself, \
             sequentially and under owner-computes"
        ))
    }

    /// Pure parser: `args` is argv without the program name,
    /// `env_threads` the value of `ATOS_BENCH_THREADS` (if set), and
    /// `default_threads` the fallback thread count. Precedence for the
    /// thread count: `--threads` flag, then environment, then default;
    /// the result is clamped to at least 1.
    pub fn parse_from(
        args: &[String],
        env_threads: Option<&str>,
        default_threads: usize,
    ) -> Result<Self, String> {
        let mut scale = Scale::Full;
        let mut threads: Option<usize> = None;
        let mut json: Option<PathBuf> = None;
        let mut trace: Option<PathBuf> = None;
        let mut metrics: Option<PathBuf> = None;
        let mut flight_dump: Option<PathBuf> = None;
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
                "--flight-dump" => {
                    let v = it.next().ok_or("--flight-dump requires a path")?;
                    flight_dump = Some(PathBuf::from(v));
                }
                "--run-id" => {
                    let v = it.next().ok_or("--run-id requires a value")?;
                    run_id = Some(v.clone());
                }
                "--sim-threads" => {
                    let v = it.next().ok_or("--sim-threads requires a value")?;
                    let k: usize = v
                        .parse()
                        .map_err(|_| format!("invalid --sim-threads value `{v}`"))?;
                    run.sim_threads = k.max(1);
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
                         --json PATH, --trace PATH, --metrics PATH, --flight-dump PATH, \
                         --run-id ID, --sim-threads K, \
                         --load-balance {{owner|steal}})"
                    ))
                }
            }
        }
        let threads = match (threads, env_threads) {
            (Some(t), _) => t,
            (None, Some(e)) => e
                .trim()
                .parse()
                .map_err(|_| format!("invalid ATOS_BENCH_THREADS value `{e}`"))?,
            (None, None) => default_threads,
        };
        Ok(BenchArgs {
            scale,
            threads: threads.max(1),
            json,
            trace,
            metrics,
            flight_dump,
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

/// Host parallelism used when neither `--threads` nor
/// `ATOS_BENCH_THREADS` is given.
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

    /// Runner configured from parsed [`BenchArgs`].
    pub fn from_args(args: &BenchArgs) -> Self {
        Self::new(args.threads)
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
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
/// threads. Every binary's lives in its [`SweepReport`].
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

/// Wall-clock timer for one binary's sweep; [`SweepReport::finish`]
/// appends/updates the binary's entry in the timing report and prints a
/// one-line summary to stderr (never stdout).
pub struct SweepReport {
    /// Simulator events of every run the binary performed.
    pub events: EventTally,
    binary: String,
    threads: usize,
    sim_threads: usize,
    json: Option<PathBuf>,
    started: Instant,
}

impl SweepReport {
    /// Start timing `binary` under the parsed arguments. A `--run-id`
    /// suffixes the report key (`<binary>@<id>`) so the run lands as a
    /// new history entry instead of replacing the binary's last one.
    pub fn start(binary: &str, args: &BenchArgs) -> Self {
        let key = match &args.run_id {
            Some(id) => format!("{binary}@{id}"),
            None => binary.to_string(),
        };
        SweepReport {
            events: EventTally::default(),
            binary: key,
            threads: args.threads,
            sim_threads: args.run.sim_threads,
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
            "[sweep] {}: {:.3}s wall, {} thread{}, {} engine shard{}, {} sim events -> {}",
            self.binary,
            wall_s,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.sim_threads,
            if self.sim_threads == 1 { "" } else { "s" },
            events,
            path.display()
        );
        if let Err(e) = write_report_entry(
            &path,
            &self.binary,
            wall_s,
            self.threads,
            self.sim_threads,
            events,
        ) {
            eprintln!("[sweep] warning: could not write {}: {e}", path.display());
        }
    }
}

/// Read-modify-write one binary's entry in the line-oriented JSON report
/// (`{"<binary>": {"wall_s": ..., "threads": ..., "sim_threads": ...,
/// "sim_events": ...}}`). Existing entries for other binaries — including
/// pre-`sim_threads` history lines — are preserved verbatim; output is
/// sorted by binary name so the file is diff-stable.
pub fn write_report_entry(
    path: &Path,
    binary: &str,
    wall_s: f64,
    threads: usize,
    sim_threads: usize,
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
        binary.to_string(),
        format!(
            "{{\"wall_s\": {wall_s:.3}, \"threads\": {threads}, \
             \"sim_threads\": {sim_threads}, \"sim_events\": {sim_events}}}"
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
        let a = BenchArgs::parse_from(&[], None, 6).unwrap();
        assert_eq!(a.scale, Scale::Full);
        assert_eq!(a.threads, 6);
        assert_eq!(a.json, None);
        assert_eq!(a.trace, None);
        assert_eq!(a.metrics, None);
        assert_eq!(a.flight_dump, None);
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
                "--flight-dump",
                "/tmp/f.json",
                "--run-id",
                "abc123@2026-01-01T00:00:00Z",
                "--sim-threads",
                "4",
                "--load-balance",
                "steal",
            ]),
            None,
            1,
        )
        .unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.threads, 4);
        assert_eq!(a.json, Some(PathBuf::from("/tmp/r.json")));
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(a.metrics, Some(PathBuf::from("/tmp/m.json")));
        assert_eq!(a.flight_dump, Some(PathBuf::from("/tmp/f.json")));
        assert_eq!(a.run_id.as_deref(), Some("abc123@2026-01-01T00:00:00Z"));
        assert_eq!(
            a.run,
            RunConfig {
                sim_threads: 4,
                load_balance: LoadBalance::Steal
            }
        );
    }

    #[test]
    fn parser_accepts_both_load_balance_policies_and_no_other() {
        for lb in LoadBalance::ALL {
            let a =
                BenchArgs::parse_from(&s(&["--load-balance", lb.name()]), None, 1).unwrap();
            assert_eq!(a.run.load_balance, lb);
        }
        assert!(BenchArgs::parse_from(&s(&["--load-balance"]), None, 1).is_err());
        for gone in ["chunk", "priority", "magic"] {
            let err = BenchArgs::parse_from(&s(&["--load-balance", gone]), None, 1).unwrap_err();
            assert!(err.contains("expected owner or steal"), "{err}");
        }
    }

    #[test]
    fn require_default_run_names_the_offending_flag() {
        let parse = |args: &[&str]| BenchArgs::parse_from(&s(args), None, 1).unwrap();
        assert_eq!(parse(&["--quick", "--threads", "3"]).require_default_run("b"), Ok(()));
        // Spelling out the defaults is not a request for anything else.
        let spelled = parse(&["--sim-threads", "1", "--load-balance", "owner"]);
        assert_eq!(spelled.require_default_run("b"), Ok(()));
        let err = parse(&["--sim-threads", "4"]).require_default_run("ablation_worker");
        let err = err.unwrap_err();
        assert!(err.contains("ablation_worker does not support --sim-threads"), "{err}");
        let err = parse(&["--load-balance", "steal"]).require_default_run("ablation_worker");
        assert!(err.unwrap_err().contains("--load-balance"));
    }

    #[test]
    fn parser_clamps_sim_threads_and_rejects_garbage() {
        let a = BenchArgs::parse_from(&s(&["--sim-threads", "0"]), None, 1).unwrap();
        assert_eq!(a.run.sim_threads, 1);
        assert!(BenchArgs::parse_from(&s(&["--sim-threads"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--sim-threads", "two"]), None, 1).is_err());
    }

    #[test]
    fn parser_thread_precedence_flag_env_default() {
        // Environment overrides the default...
        let a = BenchArgs::parse_from(&[], Some("3"), 8).unwrap();
        assert_eq!(a.threads, 3);
        // ...and the flag overrides the environment.
        let a = BenchArgs::parse_from(&s(&["--threads", "2"]), Some("3"), 8).unwrap();
        assert_eq!(a.threads, 2);
        // Zero clamps to one worker.
        let a = BenchArgs::parse_from(&s(&["--threads", "0"]), None, 8).unwrap();
        assert_eq!(a.threads, 1);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(BenchArgs::parse_from(&s(&["--frobnicate"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--threads"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--threads", "many"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--json"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--trace"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--metrics"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--flight-dump"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&s(&["--run-id"]), None, 1).is_err());
        assert!(BenchArgs::parse_from(&[], Some("lots"), 1).is_err());
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
        write_report_entry(&path, "table2", 1.5, 4, 1, 100).unwrap();
        write_report_entry(&path, "table5", 2.0, 2, 4, 200).unwrap();
        // Re-running a binary replaces its entry.
        write_report_entry(&path, "table2", 9.25, 8, 2, 300).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\n  \"table2\": {\"wall_s\": 9.250, \"threads\": 8, \"sim_threads\": 2, \
             \"sim_events\": 300},\n  \
             \"table5\": {\"wall_s\": 2.000, \"threads\": 2, \"sim_threads\": 4, \
             \"sim_events\": 200}\n}\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_preserves_pre_sim_threads_entries() {
        // History lines written before the sim_threads field existed must
        // survive a merge untouched.
        let dir = std::env::temp_dir().join(format!("atos-sweep-old-{}", std::process::id()));
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            "{\n  \"fig1@old\": {\"wall_s\": 1.000, \"threads\": 1, \"sim_events\": 5}\n}\n",
        )
        .unwrap();
        write_report_entry(&path, "fig1@new", 2.0, 1, 4, 9).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"fig1@old\": {\"wall_s\": 1.000, \"threads\": 1, \"sim_events\": 5}"),
            "{text}"
        );
        assert!(
            text.contains("\"fig1@new\": {\"wall_s\": 2.000, \"threads\": 1, \"sim_threads\": 4, \"sim_events\": 9}"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_id_keys_entries_into_a_history() {
        let mut args = BenchArgs::parse_from(&[], None, 1).unwrap();
        args.run_id = Some("abc123@t0".to_string());
        let r = SweepReport::start("fig5", &args);
        assert_eq!(r.binary, "fig5@abc123@t0");

        // Two runs of the same binary under different run ids accumulate
        // as separate entries; a re-run of the same id replaces its own.
        let dir = std::env::temp_dir().join(format!("atos-sweep-runid-{}", std::process::id()));
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_report_entry(&path, "fig5@abc123@t0", 1.0, 1, 1, 10).unwrap();
        write_report_entry(&path, "fig5@def456@t1", 2.0, 1, 1, 20).unwrap();
        write_report_entry(&path, "fig5@abc123@t0", 3.0, 1, 1, 30).unwrap();
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
