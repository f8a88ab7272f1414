//! `atos-profile` — bottleneck report from a sharded-run metrics snapshot.
//!
//! Usage:
//!
//! ```text
//! atos-profile METRICS.json      # read a --metrics snapshot from a file
//! atos-profile -                 # ...or from stdin
//! ```
//!
//! The snapshot comes from `atos-bench reference --sim-threads K
//! --metrics PATH` (K > 1). The report prints per-shard
//! barrier-wait quantiles, exchange volumes, an imbalance verdict, the
//! barrier-overhead fraction, and a scaling-headroom estimate; see
//! EXPERIMENTS.md "diagnosing a flat scaling curve". Exits 1 (with the
//! reason on stderr) when the snapshot is malformed or carries no sharded
//! telemetry.

use std::io::Read;

fn main() {
    atos_bench::pipe_friendly();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 1 {
        eprintln!("usage: atos-profile [METRICS.json | -]");
        std::process::exit(2);
    }
    let source = args.first().map(String::as_str).unwrap_or("-");
    let text = if source == "-" {
        let mut buf = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
            eprintln!("error: could not read stdin: {e}");
            std::process::exit(1);
        }
        buf
    } else {
        match std::fs::read_to_string(source) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: could not read {source}: {e}");
                std::process::exit(1);
            }
        }
    };
    match atos_bench::render_report(&text) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
