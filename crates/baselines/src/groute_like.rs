//! Groute-like asynchronous baseline.
//!
//! Groute (Ben-Nun et al., PPoPP'17) runs the same asynchronous worklist
//! algorithms as Atos — the paper: "Groute and Atos use the same algorithm
//! (asynchronous BFS) and kernel strategy (persistent kernel), so these
//! factors do not contribute to the performance difference. ... Atos's
//! performance advantage comes from its lower communication latency. Why?
//! Atos sends communication immediately when communication data is
//! available. This stands in contrast to Groute's control path, which
//! passes through the CPU."
//!
//! Accordingly this baseline reuses the Atos runtime and applications with
//! exactly two framework substitutions:
//!
//! * [`ControlPath::cpu_mediated`] — every transfer is prepared and
//!   triggered by the host;
//! * kernel-boundary communication (`in_kernel_comm = false`) — data
//!   generated during a scheduling round leaves only when the round's
//!   kernel completes, in medium-grained fragments (Groute's pipelined
//!   router chunks).

use std::sync::Arc;

use atos_apps::bfs::{run_bfs_tuned, BfsRun};
use atos_apps::pagerank::{run_pagerank_tuned, PageRankRun};
use atos_core::{
    AtosConfig, CommMode, KernelMode, NullTracer, QueueMode, RuntimeTuning, WorkerConfig,
};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_sim::{ControlPath, Fabric};

/// Groute's router moves data in pipelined fragments of a few thousand
/// items rather than per-warp messages.
const GROUTE_FRAGMENT_TASKS: usize = 1024;

fn groute_config() -> AtosConfig {
    AtosConfig {
        kernel: KernelMode::Persistent,
        queue: QueueMode::Standard,
        worker: WorkerConfig::cta512(),
        comm: CommMode::Direct {
            group: GROUTE_FRAGMENT_TASKS,
        },
    }
}

fn groute_tuning() -> RuntimeTuning {
    RuntimeTuning {
        control: ControlPath::cpu_mediated(),
        in_kernel_comm: false,
        round_metadata_bytes: 0,
    }
}

/// Groute-like asynchronous BFS.
pub fn groute_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
) -> BfsRun {
    let (cfg, tuning) = (groute_config(), groute_tuning());
    run_bfs_tuned(graph, partition, source, fabric, cfg, tuning, NullTracer)
}

/// Groute-like asynchronous push PageRank.
pub fn groute_pagerank(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    alpha: f64,
    epsilon: f64,
    fabric: Fabric,
) -> PageRankRun {
    let (cfg, tuning) = (groute_config(), groute_tuning());
    run_pagerank_tuned(graph, partition, alpha, epsilon, fabric, cfg, tuning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_apps::bfs::run_bfs;
    use atos_graph::generators::{Preset, Scale};

    #[test]
    fn atos_beats_groute_on_latency_bound_mesh() {
        // Table II mesh rows: same algorithm, but Groute's CPU control
        // path slows the depth wave at every partition boundary.
        let p = Preset::by_name("osm_eur_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 4, 2));
        let atos = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        );
        let groute = groute_bfs(g, part, src, Fabric::daisy(4));
        assert_eq!(atos.depth, groute.depth);
        assert!(
            atos.stats.elapsed_ns < groute.stats.elapsed_ns,
            "Atos {} ms vs Groute {} ms",
            atos.stats.elapsed_ms(),
            groute.stats.elapsed_ms()
        );
    }

    #[test]
    fn groute_sends_fewer_larger_messages_than_atos() {
        let p = Preset::by_name("twitter_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 4));
        let atos = run_bfs(
            g.clone(),
            part.clone(),
            src,
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        );
        let groute = groute_bfs(g, part, src, Fabric::daisy(4));
        assert!(groute.stats.messages < atos.stats.messages);
        assert!(groute.stats.mean_message_bytes() > atos.stats.mean_message_bytes());
    }
}
