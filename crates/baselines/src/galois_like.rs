//! Galois/Gluon-like bulk-asynchronous baseline.
//!
//! Galois's distributed-GPU execution (D-Galois with the Gluon
//! communication substrate) is *bulk-asynchronous*: each host/GPU drains
//! its available worklist in rounds, then Gluon synchronizes the boundary
//! state — for every peer, it ships update metadata (which masters/mirrors
//! changed, as bitvectors and offset arrays) plus the values themselves,
//! all orchestrated by the CPU. The paper (Table V discussion): "The
//! primary difference between Galois and Atos is much more communication
//! overhead for Galois, which reduces its ability to fully utilize all
//! communication bandwidth."
//!
//! Model on the shared runtime: discrete kernels (one per round), CPU
//! control path, one bulk payload per destination per round, plus a
//! per-round metadata broadcast proportional to the owned vertex range —
//! the per-round, per-peer cost that makes Galois *slower* with more GPUs
//! on latency-bound inputs (Table V BFS road_usa: 4.4 s on 1 GPU,
//! 65 s on 8).
//!
//! Per the artifact appendix we compare against Galois's push-BFS and
//! push-PageRank lonestar-distributed variants, so the algorithms are the
//! same as Atos's; only the framework differs.

use atos_core::{AtosConfig, CommMode, KernelMode};
use atos_graph::csr::Csr;
use atos_sim::ControlPath;

/// Galois/Gluon as a framework configuration for `graph`: one discrete
/// kernel per bulk-asynchronous round, one bulk message per destination
/// per round, a host-driven control path, and Gluon's per-round metadata.
/// Pass it to `run_bfs`, `run_pagerank` or any other launch of
/// `atos-apps`.
pub fn galois_config(graph: &Csr) -> AtosConfig {
    AtosConfig {
        kernel: KernelMode::Discrete,
        comm: CommMode::Direct { group: usize::MAX },
        control: ControlPath::cpu_mediated(),
        in_kernel_comm: false,
        // Gluon per-round metadata: bitvectors and offset arrays over the
        // masters+mirrors id space (which spans the whole graph under the
        // random/edge-cut partitions used here), packed and unpacked on
        // the host. ~n/8 bytes per peer per communicating round,
        // serialized at `METADATA_CPU_NS_PER_BYTE`.
        round_metadata_bytes: (graph.n_vertices() as u64 / 8).max(64),
        ..AtosConfig::standard_persistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use atos_apps::bfs::run_bfs;
    use atos_apps::pagerank::run_pagerank;
    use atos_graph::generators::{Preset, Scale};
    use atos_graph::partition::Partition;
    use atos_sim::Fabric;

    #[test]
    fn atos_beats_galois_on_ib() {
        // Table V: Atos wins on every dataset, hugely on mesh.
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 4, 1));
        let atos = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::ib_cluster(4),
            AtosConfig::ib_bfs(),
        );
        let cfg = galois_config(&g);
        let galois = run_bfs(g, part, src, Fabric::ib_cluster(4), cfg);
        assert_eq!(atos.depth, galois.depth);
        assert!(
            galois.stats.elapsed_ns > 3 * atos.stats.elapsed_ns,
            "Atos {} ms vs Galois {} ms",
            atos.stats.elapsed_ms(),
            galois.stats.elapsed_ms()
        );
    }

    #[test]
    fn galois_pagerank_loses_to_atos_on_ib() {
        let p = Preset::by_name("soc-LiveJournal1_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 3));
        let atos = run_pagerank(
            g.clone(),
            part.clone(),
            0.85,
            1e-6,
            Fabric::ib_cluster(4),
            AtosConfig::ib_pagerank(),
        );
        let cfg = galois_config(&g);
        let galois = run_pagerank(g, part, 0.85, 1e-6, Fabric::ib_cluster(4), cfg);
        assert!(
            galois.stats.elapsed_ns > atos.stats.elapsed_ns,
            "Atos {} ms vs Galois {} ms",
            atos.stats.elapsed_ms(),
            galois.stats.elapsed_ms()
        );
    }

    #[test]
    fn galois_metadata_inflates_traffic() {
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 4, 1));
        let atos = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::ib_cluster(4),
            AtosConfig::ib_bfs(),
        );
        let cfg = galois_config(&g);
        let galois = run_bfs(g, part, src, Fabric::ib_cluster(4), cfg);
        assert!(galois.stats.payload_bytes > atos.stats.payload_bytes);
    }
}
