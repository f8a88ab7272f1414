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
pub use cc::CcRun;
pub use host_bfs::{host_bfs, HostBfsApp, HostBfsRun};
pub use pagerank::{PageRankApp, PageRankRun};
pub use sssp::{SsspApp, SsspRun};

use atos_graph::partition::Partition;
use atos_sim::Fabric;

/// The check every launch makes before it builds a runtime: one part of
/// `partition` per PE of `fabric`.
///
/// # Panics
/// If the part count is not the PE count.
#[track_caller]
pub fn assert_partition_fits(partition: &Partition, fabric: &Fabric) {
    assert_eq!(partition.n_parts(), fabric.n_pes(), "partition/fabric size");
}

#[cfg(test)]
mod tests {
    //! Every launch rejects a partition that does not fit its fabric.

    use std::sync::Arc;

    use atos_core::AtosConfig;
    use atos_graph::csr::Csr;
    use atos_graph::weights::EdgeWeights;

    use super::*;

    const CFG: AtosConfig = AtosConfig::standard_persistent();

    /// A 4-vertex ring split in two parts, for a 1-PE fabric.
    fn misfit() -> (Arc<Csr>, Arc<Partition>, Fabric) {
        let g = Arc::new(Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]));
        (g, Arc::new(Partition::block(4, 2)), Fabric::daisy(1))
    }

    #[test]
    #[should_panic(expected = "partition/fabric size")]
    fn run_bfs_checks_the_partition() {
        let (g, part, fabric) = misfit();
        bfs::run_bfs(g, part, 0, fabric, CFG);
    }

    #[test]
    #[should_panic(expected = "partition/fabric size")]
    fn run_pagerank_checks_the_partition() {
        let (g, part, fabric) = misfit();
        pagerank::run_pagerank(g, part, 0.85, 1e-3, fabric, CFG);
    }

    #[test]
    #[should_panic(expected = "partition/fabric size")]
    fn run_cc_checks_the_partition() {
        let (g, part, fabric) = misfit();
        cc::run_cc(g, part, fabric, CFG);
    }

    #[test]
    #[should_panic(expected = "partition/fabric size")]
    fn run_sssp_checks_the_partition() {
        let (g, part, fabric) = misfit();
        let w = Arc::new(EdgeWeights::random(&g, 4, 1));
        sssp::run_sssp(g, w, part, 0, 2, fabric, CFG);
    }

    #[test]
    #[should_panic(expected = "partition/fabric size")]
    fn run_sssp_delta_checks_the_partition() {
        let (g, part, fabric) = misfit();
        let w = Arc::new(EdgeWeights::random(&g, 4, 1));
        sssp::run_sssp_delta(g, w, part, 0, 2, fabric, CFG);
    }
}
