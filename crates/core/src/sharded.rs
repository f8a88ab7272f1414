//! Residue of the deleted K-shard engine (DESIGN.md §11), kept for one
//! caller: the `benchmark/` package is frozen to feature PRs and compiles
//! against these four names (`benchmark/README.md`, "Public functions the
//! benchmark pins"). There is one engine; nothing else in the workspace may
//! name them. ROADMAP item 2(e)'s `[benchmark]` PR deletes this file, the
//! three `impl ShardableApp` in `atos-apps` and `tests/benchmark_pins.rs`.

use atos_trace::Tracer;

use crate::app::Application;
use crate::metrics::RunStats;
use crate::runtime::Runtime;

/// The bound the benchmark puts on an application it drives. Nothing calls
/// either method, so both abort: an application implements it as
/// `impl ShardableApp for App {}`.
pub trait ShardableApp: Application + Send {
    /// A copy of the application that can process PEs `lo..hi`.
    fn fork(&self, _lo: usize, _hi: usize) -> Self
    where
        Self: Sized,
    {
        never_called("ShardableApp::fork")
    }

    /// Adopt from `shard` every result PEs `lo..hi` own.
    fn join(&mut self, _shard: Self, _lo: usize, _hi: usize)
    where
        Self: Sized,
    {
        never_called("ShardableApp::join")
    }
}

#[cold]
fn never_called(what: &str) -> ! {
    eprintln!("{what} was called: there is one engine, and run_sharded(k) is run()");
    std::process::abort()
}

/// Per-shard telemetry of a sharded run. Never constructed.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    /// Windows the shard crossed.
    pub windows: u64,
}

/// Telemetry of a sharded run. Never constructed.
#[derive(Debug, Clone)]
pub struct ShardProfile {
    /// One entry per shard.
    pub shards: Vec<ShardTelemetry>,
}

impl ShardProfile {
    /// Fraction of wall time spent in barriers.
    pub fn barrier_frac(&self) -> f64 {
        0.0
    }

    /// Median per-window `max / mean` shard events.
    pub fn imbalance_ratio(&self) -> f64 {
        1.0
    }
}

impl<A: ShardableApp, Tr: Tracer> Runtime<A, Tr> {
    /// [`Runtime::run`], whatever `k`.
    pub fn run_sharded(&mut self, _k: usize) -> RunStats {
        self.run()
    }

    /// `None`: no run collects a profile.
    pub fn take_shard_profile(&mut self) -> Option<ShardProfile> {
        None
    }
}
