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

/// Nanoseconds per millisecond, for reporting.
pub const NS_PER_MS: f64 = 1e6;

/// Convert a virtual-time duration to milliseconds for reporting.
pub fn ns_to_ms(ns: Time) -> f64 {
    ns as f64 / NS_PER_MS
}
