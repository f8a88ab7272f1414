//! Where a simulated run's host time goes, line by line.
//!
//! A `SIGPROF` sampler (a sample per millisecond of CPU time, or per kernel
//! tick where that is longer) around the repo benchmark's four
//! single-threaded workloads, driven through the same public calls as
//! `benchmark/src/workloads.rs`, and around `bfsr`, the scale-free BFS no
//! workload runs. A sampled run is what the benchmark times: the
//! application's construction, the runtime's, the seeding and the run; the
//! graph and its partition are built once, outside. The header gives the
//! median wall time of one run. Each sample is the interrupted instruction;
//! `addr2line` turns it into its inline stack, and the report ranks the
//! *innermost frame under `crates/`* — the line of this workspace that was
//! waiting, whichever `core`/`alloc` helper it was in. A sample outside this
//! executable's image is a row too, named after the mapped object it hit
//! (`[libc.so.6]` — `memmove`, `malloc` — `[vdso]`, `[unmapped/kernel]`), and
//! what the top rows leave over is summed in a last one: the rows add up to
//! the samples taken, so no time hides between two numbers. This is the
//! attribution behind DESIGN.md §4.8: before tasks were announced ahead of
//! their `process`, a quarter to two fifths of every run sat on a task's
//! first loads (`Csr::degree`, the head of `neighbors`).
//!
//! ```bash
//! cargo run --release --example where_time_goes -- bfs        # mesh BFS, 20 runs
//! cargo run --release --example where_time_goes -- sssp 5     # bfsr | sssp | pr | prib, run count
//! cargo run --release --example where_time_goes -- pr 5 --by fn   # summed per function, or `--by file`
//! ```
//!
//! Linux x86_64 only (it reads `RIP` out of the signal's `ucontext`);
//! elsewhere it prints `unsupported` and exits 0. Line numbers need the
//! release profile's `debug = "line-tables-only"` and `addr2line` on `PATH`;
//! without the tool it prints the raw offsets.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    println!("where_time_goes: unsupported on this target (Linux x86_64 only)");
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    linux::main();
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use std::collections::BTreeMap;
    use std::ffi::c_void;
    use std::io::Write;
    use std::process::Command;
    use std::sync::Arc;
    use std::time::Instant;

    use atos::apps::pagerank::PrTask;
    use atos::apps::sssp::KIND_LIGHT;
    use atos::apps::{BfsApp, PageRankApp, SsspApp};
    use atos::core::{Application, AtosConfig, Runtime};
    use atos::graph::generators::{rmat, road_network};
    use atos::graph::partition::Partition;
    use atos::graph::reference;
    use atos::graph::weights::{dijkstra, EdgeWeights};
    use atos::graph::{Csr, VertexId};
    use atos::queue::sync::{AtomicU64, AtomicUsize, Ordering};
    use atos::sim::Fabric;

    const SEED: u64 = 23;
    const RMAT_PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
    const TOP_N: usize = 25;

    // ---- the sampler ----------------------------------------------------

    /// Room for two minutes of CPU time at a sample per millisecond.
    const MAX_SAMPLES: usize = 1 << 17;
    static RIPS: [AtomicU64; MAX_SAMPLES] = [const { AtomicU64::new(0) }; MAX_SAMPLES];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `offsetof(ucontext_t, uc_mcontext.gregs[REG_RIP])` on x86_64 Linux:
    /// `uc_flags` 8 + `uc_link` 8 + `uc_stack` 24, then `gregs[16]`.
    const UCONTEXT_RIP: usize = 40 + 16 * 8;

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    // Declared directly (rather than via `libc`) so the workspace builds
    // without registry access, as `atos_bench::pipe_friendly` does.
    // SAFETY: glibc's own prototypes, over the `repr(C)` mirrors above of the
    // x86_64 Linux structs they take.
    unsafe extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// Async-signal-safe: two atomic operations on statics, nothing else.
    extern "C" fn on_sigprof(_signum: i32, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: installed with SA_SIGINFO, so the kernel passes a valid
        // `ucontext_t` for the interrupted thread; the offset is that
        // struct's saved RIP, an aligned u64 inside it.
        let rip = unsafe { context.cast::<u8>().add(UCONTEXT_RIP).cast::<u64>().read() };
        let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(cell) = RIPS.get(slot) {
            cell.store(rip, Ordering::Relaxed);
        }
    }

    /// Arm (`period_us > 0`) or disarm (`0`) the CPU-time sampling timer.
    fn set_sampling(period_us: i64) {
        let tick = || TimeVal {
            sec: 0,
            usec: period_us,
        };
        let timer = ITimerVal {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: `timer` is a live, fully initialised `itimerval`; the old
        // value is not asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer(ITIMER_PROF)");
    }

    fn install_handler() {
        let action = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` is a live `struct sigaction` naming a handler of
        // the SA_SIGINFO signature that only touches atomics in statics.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction(SIGPROF)");
    }

    // ---- the workloads (benchmark/src/workloads.rs, by hand) --------------

    fn hub(g: &Csr) -> VertexId {
        (0..g.n_vertices() as VertexId)
            .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
            .expect("generated graphs are not empty")
    }

    /// Construct, seed and run to termination, `runs` times, all three
    /// sampled and timed, as the benchmark times its run: the application's
    /// construction (`make`, light rows and views included) is part of it.
    /// `check` sees the last finished application (outside the sampled
    /// region). Returns the median wall time of one sampled run, ms.
    fn drive<A: Application>(
        runs: usize,
        fabric: impl Fn() -> Fabric,
        cfg: AtosConfig,
        make: impl Fn() -> (A, Vec<(usize, Vec<A::Task>)>),
        check: impl FnOnce(A),
    ) -> f64 {
        let mut last = None;
        let mut wall_ms = Vec::with_capacity(runs);
        for _ in 0..runs {
            let t0 = Instant::now();
            set_sampling(1_000);
            let (app, seeds) = make();
            let mut rt = Runtime::new(app, fabric(), cfg);
            for (pe, tasks) in seeds {
                rt.seed(pe, tasks);
            }
            rt.run();
            set_sampling(0);
            wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            last = Some(rt.into_app());
        }
        check(last.expect("at least one run"));
        wall_ms.sort_by(f64::total_cmp);
        wall_ms[runs / 2]
    }

    /// Run workload `name` `runs` times: the median wall time of one run, ms,
    /// or `None` for an unknown name.
    fn run_workload(name: &str, runs: usize) -> Option<f64> {
        let wall_ms = match name {
            // The scale-free side of BFS, which no benchmark workload runs:
            // every PE's mirror turns dense within its first hub task.
            "bfsr" => {
                let g = Arc::new(rmat(18, 4_300_000, RMAT_PROBS, SEED));
                let p = Arc::new(Partition::random(g.n_vertices(), 4, SEED));
                let src = hub(&g);
                drive(
                    runs,
                    || Fabric::daisy(4),
                    AtosConfig::standard_persistent(),
                    || {
                        let seeds = vec![(p.owner(src), vec![(src, 0u32)])];
                        (BfsApp::new(g.clone(), p.clone(), src), seeds)
                    },
                    |app| assert_eq!(app.depth, reference::bfs(&g, src), "BFS depths"),
                )
            }
            "bfs" => {
                let side = 1000;
                let g = Arc::new(road_network(side, side, SEED));
                let p = Arc::new(Partition::block(g.n_vertices(), 4));
                let src = (side / 2 * side + side / 2) as VertexId;
                drive(
                    runs,
                    || Fabric::daisy(4),
                    AtosConfig::standard_persistent(),
                    || {
                        let seeds = vec![(p.owner(src), vec![(src, 0u32)])];
                        (BfsApp::new(g.clone(), p.clone(), src), seeds)
                    },
                    |app| assert_eq!(app.depth, reference::bfs(&g, src), "BFS depths"),
                )
            }
            "sssp" => {
                let g = Arc::new(rmat(18, 4_300_000, RMAT_PROBS, SEED));
                let w = Arc::new(EdgeWeights::random(&g, 64, SEED));
                let p = Arc::new(Partition::random(g.n_vertices(), 4, SEED));
                let src = hub(&g);
                drive(
                    runs,
                    || Fabric::daisy(4),
                    AtosConfig::priority_discrete(),
                    || {
                        let seeds = vec![(p.owner(src), vec![(src, 0u64, KIND_LIGHT)])];
                        (
                            SsspApp::new_split(g.clone(), w.clone(), p.clone(), src, 8),
                            seeds,
                        )
                    },
                    |app| assert_eq!(app.dist, dijkstra(&g, &w, src), "SSSP distances"),
                )
            }
            "pr" | "prib" => {
                let (scale, edges, n_pes, cfg) = match name {
                    "pr" => (16, 1_000_000, 4, AtosConfig::standard_persistent()),
                    _ => (14, 250_000, 8, AtosConfig::ib_pagerank()),
                };
                let g = Arc::new(rmat(scale, edges, RMAT_PROBS, SEED));
                let p = Arc::new(Partition::random(g.n_vertices(), n_pes, SEED));
                drive(
                    runs,
                    || match name {
                        "pr" => Fabric::daisy(n_pes),
                        _ => Fabric::ib_cluster(n_pes),
                    },
                    cfg,
                    || {
                        let seeds = (0..n_pes)
                            .map(|pe| {
                                (
                                    pe,
                                    p.vertices_of(pe).into_iter().map(PrTask::Relax).collect(),
                                )
                            })
                            .collect();
                        (PageRankApp::new(g.clone(), p.clone(), 0.85, 1e-5), seeds)
                    },
                    |app| assert!(app.converged(), "residue {} left", app.max_residue()),
                )
            }
            _ => return None,
        };
        Some(wall_ms)
    }

    // ---- symbolisation ----------------------------------------------------

    /// `/proc/self/maps` as `(start, end, path)`; the path is empty for an
    /// anonymous mapping.
    fn mappings() -> Option<Vec<(u64, u64, String)>> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        maps.lines()
            .map(|line| {
                let mut fields = line.split_whitespace();
                let (lo, hi) = fields.next()?.split_once('-')?;
                // perms, offset, device, inode; what is left is the path.
                let path = fields.skip(4).collect::<Vec<_>>().join(" ");
                Some((
                    u64::from_str_radix(lo, 16).ok()?,
                    u64::from_str_radix(hi, 16).ok()?,
                    path,
                ))
            })
            .collect()
    }

    /// Where this executable's image lies in memory: a PIE's first segment
    /// sits at ELF address 0, so `rip - base` is what `addr2line` wants.
    fn image_range(maps: &[(u64, u64, String)], exe: &str) -> Option<(u64, u64)> {
        let own = maps.iter().filter(|m| m.2 == exe);
        own.fold(None, |range, &(lo, hi, _)| {
            Some(range.map_or((lo, hi), |(a, b): (u64, u64)| (a.min(lo), b.max(hi))))
        })
    }

    /// The report's row for a sample outside this executable's image: the
    /// mapped object it hit, by file name.
    fn outside_row(maps: &[(u64, u64, String)], rip: u64) -> String {
        match maps.iter().find(|m| (m.0..m.1).contains(&rip)) {
            None => "[unmapped/kernel]".to_string(),
            Some((_, _, path)) if path.is_empty() => "[anonymous mapping]".to_string(),
            // `[vdso]`, `[heap]`, … name themselves.
            Some((_, _, path)) if path.starts_with('[') => path.clone(),
            Some((_, _, path)) => format!("[{}]", path.rsplit('/').next().unwrap_or(path)),
        }
    }

    /// What the report sums samples by (`--by`).
    #[derive(Clone, Copy)]
    enum By {
        Line,
        Function,
        File,
    }

    impl By {
        /// The report's row for a sample at `place` (`crates/…/file.rs:line`)
        /// inside `function`.
        fn row(self, place: &str, function: &str) -> String {
            let file = place.rsplit_once(':').map_or(place, |(file, _line)| file);
            match self {
                By::Line => format!("{place}  {function}"),
                By::Function => format!("{file}  {function}"),
                By::File => file.to_string(),
            }
        }
    }

    /// `offset → ("crates/…/file.rs:line", function)` for the innermost
    /// inlined frame under `crates/`, from `addr2line -a -f -C -i`; `None`
    /// when the tool is missing.
    fn symbolise(exe: &str, offsets: &[u64]) -> Option<BTreeMap<u64, (String, String)>> {
        let mut lines_of = BTreeMap::new();
        // A few thousand arguments per call stay far below ARG_MAX, and
        // `output()` drains the pipe as the tool writes.
        for chunk in offsets.chunks(4096) {
            let out = Command::new("addr2line")
                .args(["-e", exe, "-a", "-f", "-C", "-i"])
                .args(chunk.iter().map(|o| format!("{o:#x}")))
                .output()
                .ok()?;
            let text = String::from_utf8_lossy(&out.stdout);
            // Per address: its `0x…` line, then `function` / `file:line`
            // pairs, innermost frame first.
            for block in text.split("0x").skip(1) {
                let mut lines = block.lines();
                let Some(addr) = lines
                    .next()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                else {
                    continue;
                };
                let lines: Vec<&str> = lines.collect();
                let frames: Vec<(&str, &str)> =
                    lines.chunks_exact(2).map(|p| (p[0], p[1])).collect();
                let Some((depth, at)) = frames
                    .iter()
                    .enumerate()
                    .find_map(|(depth, (_, place))| Some((depth, place.find("crates/")?)))
                else {
                    continue;
                };
                let place = frames[depth].1[at..].split(' ').next().unwrap_or_default();
                // binutils pairs a *call site* with the name of the function
                // inlined there, so a location lies in the function the next
                // pair names; the outermost lies in the first pair's, the
                // concrete symbol.
                let function = frames.get(depth + 1).unwrap_or(&frames[0]).0;
                lines_of.insert(addr, (place.to_string(), function.to_string()));
            }
        }
        Some(lines_of)
    }

    pub fn main() {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let by = match args.iter().position(|a| a == "--by") {
            None => By::Line,
            Some(at) => {
                let by = match args.get(at + 1).map(String::as_str) {
                    Some("line") => By::Line,
                    Some("fn") => By::Function,
                    Some("file") => By::File,
                    _ => usage(),
                };
                args.drain(at..at + 2);
                by
            }
        };
        if args.len() > 2 {
            usage();
        }
        let name = args.first().map(String::as_str).unwrap_or("bfs");
        let runs = match args.get(1).map(|r| r.parse::<usize>()) {
            None => 20,
            Some(Ok(runs)) if runs > 0 => runs,
            Some(_) => usage(),
        };
        install_handler();
        let Some(wall_ms) = run_workload(name, runs) else {
            usage();
        };

        let taken = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
        let exe = std::env::current_exe().expect("own path");
        let exe = exe.to_str().expect("utf-8 path");
        let maps = mappings().expect("a readable /proc/self/maps");
        let (base, end) = image_range(&maps, exe).expect("own image in /proc/self/maps");
        let mut hits: BTreeMap<u64, u64> = BTreeMap::new();
        let mut share: BTreeMap<String, u64> = BTreeMap::new();
        for cell in &RIPS[..taken] {
            let rip = cell.load(Ordering::Relaxed);
            if (base..end).contains(&rip) {
                *hits.entry(rip - base).or_default() += 1;
            } else {
                *share.entry(outside_row(&maps, rip)).or_default() += 1;
            }
        }
        let inside: u64 = hits.values().sum();
        let mut report = format!(
            "where_time_goes {name}: {runs} run(s), {wall_ms:.1} ms median, {taken} samples, \
             {inside} inside this binary\n"
        );

        let offsets: Vec<u64> = hits.keys().copied().collect();
        match symbolise(exe, &offsets) {
            Some(lines_of) => {
                for (offset, count) in &hits {
                    let row = lines_of.get(offset).map_or_else(
                        || "(no frame under crates/)".to_string(),
                        |(place, function)| by.row(place, function),
                    );
                    *share.entry(row).or_default() += count;
                }
            }
            None => {
                report += "addr2line is not on PATH: raw image offsets follow\n";
                for (offset, count) in &hits {
                    share.insert(format!("{offset:#x}"), *count);
                }
            }
        }
        let mut ranked: Vec<(String, u64)> = share.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        // Samples, share of all samples taken, row; the last row sums what
        // the first `TOP_N` leave, so the column adds up to `taken`.
        let rest = ranked.split_off(TOP_N.min(ranked.len()));
        if !rest.is_empty() {
            let count = rest.iter().map(|r| r.1).sum();
            ranked.push((format!("({} more rows)", rest.len()), count));
        }
        for (line, count) in &ranked {
            let percent = 100.0 * *count as f64 / taken.max(1) as f64;
            report += &format!("{count:7} {percent:6.1} %  {line}\n");
        }
        // One write, error ignored: `… | head` may close the pipe early.
        let _ = std::io::stdout().write_all(report.as_bytes());
    }

    fn usage() -> ! {
        eprintln!("usage: where_time_goes bfs|bfsr|sssp|pr|prib [runs] [--by line|fn|file]");
        std::process::exit(2);
    }
}
