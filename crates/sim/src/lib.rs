//! Deterministic discrete-event simulation of multi-GPU systems.
//!
//! The paper evaluates Atos on two machines this crate models:
//!
//! * **Daisy** — an NVIDIA DGX Station: 4 V100s all-to-all over NVLink, one
//!   dual-link (50 GB/s) peer and two single-link (25 GB/s) peers per GPU.
//! * **Summit** — IBM POWER9 nodes with 6 V100s (two NVLink-connected
//!   triples on separate sockets) and dual-rail EDR InfiniBand between
//!   nodes (12.5 GB/s unidirectional injection per rail). The paper uses
//!   one GPU per node so all traffic crosses InfiniBand.
//!
//! The simulator executes *real algorithms over real graphs*: application
//! code runs inside event handlers and mutates genuine state (depth arrays,
//! PageRank residuals), while this crate decides only *when* each batch of
//! compute and each message happens. Time is modeled from four calibrated
//! ingredients, each in its own module:
//!
//! * [`engine`] — virtual clock and event heap with deterministic
//!   tie-breaking.
//! * [`gpu`] — a work/span GPU compute model: kernel-launch overhead,
//!   per-task and per-edge costs, limited resident-worker parallelism.
//! * [`packet`] — wire-level framing models for NVLink, PCIe gen 3, and
//!   InfiniBand; reproduces the paper's Figure 2 bandwidth-efficiency
//!   curves and feeds link serialization.
//! * [`interconnect`] — topologies (Daisy, Summit node, IB cluster), link
//!   serialization, and the *control path*: GPU-initiated injection (Atos)
//!   vs CPU-mediated injection (Groute/Galois/Gunrock), which is the
//!   paper's headline variable.
//! * [`trace`] — the fabric-wide utilization timeline and message
//!   totals, used to show communication smoothing.

#![warn(missing_docs)]

pub mod engine;
pub mod gpu;
pub mod interconnect;
pub mod packet;
pub mod trace;

pub use engine::{Engine, Time};
pub use gpu::GpuCostModel;
pub use interconnect::{ControlPath, Fabric, PeId, PendingTransfer};
pub use packet::PacketModel;

/// Run `f` where it cannot unwind: `f` runs inside an out-of-line
/// `extern "C"` call, so a panic in it prints its message and aborts the
/// process, as a fault inside a kernel does, and the call leaves no
/// unwinding edge in its caller. Out of line, because the optimiser
/// proves a caller free of unwinding only through calls it knows cannot
/// unwind, and an inlined abort-on-unwind pad is not one. A hot path
/// (`#[atos_hot]`) uses it for two kinds of call only: a std collection's
/// growth, which fails only on capacity overflow or allocation failure,
/// and the runtime's calls into `Application` and `Tracer` code, where
/// user code runs (DESIGN.md §7).
#[inline(always)]
pub fn nounwind<R>(f: impl FnOnce() -> R) -> R {
    #[inline(never)]
    extern "C" fn call<R, F: FnOnce() -> R>(f: F) -> R {
        f()
    }
    call(f)
}

/// [`nounwind`] inlined, for a call made once per task or event, where an
/// out-of-line call costs a measurable share of the run. The inlined
/// abort-on-unwind pad makes the optimiser treat the enclosing function as
/// one that may unwind, so a hot function that uses it must be inlined
/// (always) up to a caller that is not hot: `Runtime::process_batch` into
/// `step` into `run_window`, and `Engine::pop` into `run_window`.
#[inline(always)]
pub fn nounwind_inline<R>(f: impl FnOnce() -> R) -> R {
    #[inline(always)]
    extern "C" fn call<R, F: FnOnce() -> R>(f: F) -> R {
        f()
    }
    call(f)
}

/// `f`, a std collection call that grows only when `grows`: that case runs
/// inside [`nounwind`], and the other stays inline, where the optimiser
/// sees from the same length and capacity that it cannot grow.
#[inline(always)]
pub fn nounwind_when<R>(grows: bool, f: impl FnOnce() -> R) -> R {
    if grows {
        nounwind(f)
    } else {
        f()
    }
}

/// `slice[i]` without an unwinding edge: an index out of range aborts with
/// the message a bounds panic prints. For the dense per-PE and per-link
/// arrays of the hot paths, whose indices are in range by construction.
#[inline(always)]
pub fn at<T>(slice: &[T], i: usize) -> &T {
    match slice.get(i) {
        Some(item) => item,
        None => out_of_range(i, slice.len()),
    }
}

/// `&mut slice[i]` without an unwinding edge, as [`at`].
#[inline(always)]
pub fn at_mut<T>(slice: &mut [T], i: usize) -> &mut T {
    let len = slice.len();
    match slice.get_mut(i) {
        Some(item) => item,
        None => out_of_range(i, len),
    }
}

#[cold]
#[inline(never)]
extern "C" fn out_of_range(i: usize, len: usize) -> ! {
    panic!("index out of bounds: the len is {len} but the index is {i}");
}

/// Test helper for a failure that aborts (an `extern "C"` abort helper, or
/// a panic under [`nounwind`]), which `#[should_panic]` cannot observe:
/// the test named `test` (its full libtest name) re-runs itself alone in a
/// child process, where `body` runs; the parent asserts that the child
/// died of `SIGABRT` after printing `message`.
///
/// # Panics
/// If the child exits any other way or does not print `message`.
pub fn assert_aborts(test: &str, message: &str, body: impl FnOnce()) {
    const CHILD: &str = "ATOS_ASSERT_ABORTS_CHILD";
    if std::env::var_os(CHILD).is_some() {
        body();
        return;
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = std::process::Command::new(exe)
        .args([test, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("run the test binary again");
    let stderr = String::from_utf8_lossy(&out.stderr);
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            out.status.signal(),
            Some(6),
            "`{test}` did not abort ({}):\n{stderr}",
            out.status
        );
    }
    assert!(!out.status.success(), "`{test}` passed:\n{stderr}");
    assert!(
        stderr.contains(message),
        "`{test}` aborted without printing {message:?}:\n{stderr}"
    );
}

/// Nanoseconds per millisecond, for reporting.
pub const NS_PER_MS: f64 = 1e6;

/// Convert a virtual-time duration to milliseconds for reporting.
pub fn ns_to_ms(ns: Time) -> f64 {
    ns as f64 / NS_PER_MS
}
