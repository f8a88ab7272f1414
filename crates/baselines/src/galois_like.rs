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

use std::sync::Arc;

use atos_apps::bfs::{run_bfs_tuned, BfsRun};
use atos_apps::pagerank::{run_pagerank_tuned, PageRankRun};
use atos_core::{
    AtosConfig, CommMode, KernelMode, NullTracer, QueueMode, RuntimeTuning, WorkerConfig,
};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_sim::{ControlPath, Fabric};

fn galois_config() -> AtosConfig {
    AtosConfig {
        // One discrete kernel per bulk-asynchronous round.
        kernel: KernelMode::Discrete,
        queue: QueueMode::Standard,
        worker: WorkerConfig::cta512(),
        // One bulk message per destination per round.
        comm: CommMode::Direct { group: usize::MAX },
    }
}

fn galois_tuning(graph: &Csr) -> RuntimeTuning {
    // Gluon per-round metadata: bitvectors and offset arrays over the
    // masters+mirrors id space (which spans the whole graph under the
    // random/edge-cut partitions used here), packed and unpacked on the
    // host. ~n/8 bytes per peer per communicating round, serialized at
    // the runtime's `METADATA_CPU_NS_PER_BYTE`.
    RuntimeTuning {
        control: ControlPath::cpu_mediated(),
        in_kernel_comm: false,
        round_metadata_bytes: (graph.n_vertices() as u64 / 8).max(64),
    }
}

/// Galois-like bulk-asynchronous push BFS.
pub fn galois_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
) -> BfsRun {
    let (cfg, tuning) = (galois_config(), galois_tuning(&graph));
    run_bfs_tuned(graph, partition, source, fabric, cfg, tuning, NullTracer)
}

/// Galois-like bulk-asynchronous push PageRank.
pub fn galois_pagerank(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    alpha: f64,
    epsilon: f64,
    fabric: Fabric,
) -> PageRankRun {
    let (cfg, tuning) = (galois_config(), galois_tuning(&graph));
    run_pagerank_tuned(graph, partition, alpha, epsilon, fabric, cfg, tuning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_apps::bfs::run_bfs;
    use atos_apps::pagerank::run_pagerank;
    use atos_graph::generators::{Preset, Scale};

    #[test]
    fn atos_beats_galois_on_ib(){
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
        let galois = galois_bfs(g, part, src, Fabric::ib_cluster(4));
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
        let galois = galois_pagerank(g, part, 0.85, 1e-6, Fabric::ib_cluster(4));
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
        let galois = galois_bfs(g, part, src, Fabric::ib_cluster(4));
        assert!(galois.stats.payload_bytes > atos.stats.payload_bytes);
    }
}
