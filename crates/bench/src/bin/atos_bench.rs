//! `atos-bench <experiment> [flags]` — regenerate one table, figure or
//! ablation of the paper's evaluation, or capture the instrumented
//! `reference` run. [`atos_bench::registry::EXPERIMENTS`] is the table of
//! what it runs; an unknown or missing experiment name prints that table
//! and exits 2, as does any flag the named experiment cannot honour; exit
//! 2 means a usage error and nothing else. The table goes to stdout, one
//! wall-clock line to stderr, and no file is written except the artifacts
//! `reference` is asked for; one it cannot write exits 1, naming the path.

use std::time::Instant;

use atos_bench::registry;
use atos_bench::sweep::{exit_usage, BenchArgs};
use atos_queue::sync::host_parallelism;

fn main() {
    atos_bench::pipe_friendly();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = argv.first().and_then(|name| registry::find(name)) else {
        eprint!("{}", registry::usage());
        std::process::exit(2);
    };
    let args = BenchArgs::parse_from(&argv[1..], host_parallelism())
        .and_then(|args| exp.check_flags(&args).map(|()| args))
        .unwrap_or_else(|e| exit_usage(&e));
    let started = Instant::now();
    exp.run(&args);
    let threads = args.threads;
    eprintln!(
        "[sweep] {}: {:.3}s wall, {threads} thread{}",
        exp.name,
        started.elapsed().as_secs_f64(),
        if threads == 1 { "" } else { "s" }
    );
}
