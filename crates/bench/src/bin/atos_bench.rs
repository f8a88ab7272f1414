//! `atos-bench <experiment> [flags]` — regenerate one table, figure or
//! ablation of the paper's evaluation, or capture the instrumented
//! `reference` run. [`atos_bench::registry::EXPERIMENTS`] is the table of
//! what it runs; an unknown or missing experiment name prints that table
//! and exits 2, as does any flag the named experiment cannot honour.

use atos_bench::registry;
use atos_bench::sweep::{default_threads, exit_usage, BenchArgs, SweepReport};

fn main() {
    atos_bench::pipe_friendly();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(exp) = argv.first().and_then(|name| registry::find(name)) else {
        eprint!("{}", registry::usage());
        std::process::exit(2);
    };
    let args = BenchArgs::parse_from(&argv[1..], default_threads())
        .and_then(|args| exp.check_flags(&args).map(|()| args))
        .unwrap_or_else(|e| exit_usage(&e));
    let report = SweepReport::start(exp.name, &args);
    exp.run(&args, &report.events);
    report.finish();
}
