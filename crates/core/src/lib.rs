//! The Atos runtime — a PGAS-style dynamic scheduling framework for
//! (simulated) multi-GPU systems.
//!
//! This crate reproduces the framework of Section III: applications are
//! written as *tasks* processed by *workers* popping from *distributed
//! queues*; newly generated tasks are pushed to the local queue or, via
//! one-sided communication, to the receive queue of the owning PE. The
//! program runs until the distributed queue system is globally empty
//! (paper Listing 3).
//!
//! The three configuration axes of the paper are all here
//! ([`config::AtosConfig`]):
//!
//! 1. **Kernel strategy** — persistent kernel (one resident kernel, no
//!    launch overhead, immediate task visibility) vs discrete kernels
//!    (per-iteration launch + host sync, new local tasks visible next
//!    kernel).
//! 2. **Queue architecture** — standard FIFO vs priority queue with
//!    `threshold` / `threshold_delta` bucket scheduling.
//! 3. **Worker shape** — thread/warp/CTA worker sizes and per-worker fetch
//!    size; the shape's cost model prices every step.
//!
//! The same value says who drives communication — the control path, in-kernel
//! or kernel-boundary sends, Gluon-style round metadata — so one
//! `AtosConfig` describes a whole framework: the presets are Atos, and the
//! Groute- and Galois-like baselines (`atos-baselines`) are two more values.
//! A [`runtime::Runtime`] is built from an application, a fabric and that
//! one value.
//!
//! Plus the communication machinery of Section III-A:
//!
//! * a GPU-resident control path ([`atos_sim::ControlPath::gpu_direct`])
//!   for one-sided pushes issued *from inside the kernel*, overlapping
//!   communication with computation;
//! * the **communication aggregator** ([`aggregator`]) that transparently
//!   bundles fine-grained messages per destination until `BATCH_SIZE`
//!   bytes or `WAIT_TIME` polls elapse — essential on InfiniBand;
//! * the path between the two ends ([`comm`]): messages charged to the
//!   fabric as they are emitted, resolved at the window barrier, and
//!   applied at the owner — from per-source receive lanes — when the owner
//!   next looks.
//!
//! Applications implement the [`app::Application`] trait; the runtime
//! ([`runtime::Runtime`]) executes them over real graph data inside the
//! discrete-event simulator, so results are bit-checkable against serial
//! references while virtual time reproduces the paper's performance
//! phenomena.
//!
//! A second backend, [`host`], executes the task-parallel model on *real
//! OS threads* over the lock-free `atos-queue` data structures — the
//! single-node CPU analog of the paper's system, with genuinely concurrent
//! one-sided pushes and quiescence-based termination. Its applications
//! implement [`HostApplication`] (shared state behind atomics, no
//! `on_receive`) and run through [`run_host`]; nothing else launches it.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aggregator;
pub mod app;
pub mod comm;
pub mod config;
pub mod emitter;
pub mod host;
pub mod metrics;
pub mod runtime;
pub mod sharded;
pub mod workqueue;

pub use app::Application;
pub use config::{AtosConfig, CommMode, KernelMode, QueueMode, WorkerConfig, WorkerSize};
pub use emitter::Emitter;
pub use host::{run_host, HostApplication, HostConfig, HostStats};
pub use metrics::RunStats;
pub use runtime::Runtime;
pub use sharded::{ShardProfile, ShardTelemetry, ShardableApp};

// Observability: re-export the tracing vocabulary so downstream crates can
// drive `Runtime::with_tracer` without naming `atos-trace` directly.
pub use atos_trace::{MetricsRegistry, NullTracer, TraceBuffer, Tracer, Track};

// The distance vocabulary of `Application::prefetch`; it lives beside the
// hint itself, in the crate whose structures implement it.
pub use atos_graph::Lookahead;
