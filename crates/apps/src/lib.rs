//! The paper's two irregular applications on the Atos runtime.
//!
//! * [`bfs`] — asynchronous *push* BFS (Section IV): workers pop vertices,
//!   propagate `depth + 1` to neighbors with an atomicMin, and push
//!   improved neighbors to the owning PE's queue. Finishes when the
//!   distributed queue system drains; converges to exact shortest depths
//!   regardless of processing order.
//! * [`pagerank`] — asynchronous *push* PageRank: vertices carry
//!   `(rank, residue)`; relaxing a vertex folds its residue into its rank
//!   and pushes `α·residue/deg` to each neighbor; a vertex re-enters the
//!   queue when its residue crosses the convergence threshold ε.
//!
//! Two extension applications exercise the framework beyond the paper's
//! evaluation pair:
//!
//! * [`sssp`] — delta-stepping shortest paths, the canonical client of
//!   the `DistributedPriorityQueues` threshold machinery;
//! * [`cc`] — asynchronous min-label connected components, which is
//!   [`BfsApp`] with a zero hop ([`BfsApp::components`]).
//!
//! All are executed by [`atos_core::Runtime`] over real graph data, so
//! every run is validated against serial references. the [`host_bfs`](fn@crate::host_bfs::host_bfs) entry point runs
//! the same BFS on the host-parallel backend — real threads over the real
//! lock-free queues — instead of the simulator.

#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod host_bfs;
pub mod pagerank;
pub mod sssp;

pub use bfs::{BfsApp, BfsRun};
pub use host_bfs::{host_bfs, HostBfsApp, HostBfsRun};
pub use cc::CcRun;
pub use pagerank::{PageRankApp, PageRankRun};
pub use sssp::{SsspApp, SsspRun};
