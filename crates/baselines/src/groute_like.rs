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

use atos_core::{AtosConfig, CommMode};
use atos_sim::ControlPath;

/// Groute's router moves data in pipelined fragments of a few thousand
/// items rather than per-warp messages.
const GROUTE_FRAGMENT_TASKS: usize = 1024;

/// Groute as a framework configuration: Atos's persistent standard-queue
/// runtime with a host-driven control path and kernel-boundary
/// communication in fragments. Pass it to `run_bfs`, `run_pagerank` or
/// any other launch of `atos-apps`.
pub fn groute_config() -> AtosConfig {
    AtosConfig {
        comm: CommMode::Direct {
            group: GROUTE_FRAGMENT_TASKS,
        },
        control: ControlPath::cpu_mediated(),
        in_kernel_comm: false,
        ..AtosConfig::standard_persistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use atos_apps::bfs::run_bfs;
    use atos_graph::generators::{Preset, Scale};
    use atos_graph::partition::Partition;
    use atos_sim::Fabric;

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
        let groute = run_bfs(g, part, src, Fabric::daisy(4), groute_config());
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
        let groute = run_bfs(g, part, src, Fabric::daisy(4), groute_config());
        assert!(groute.stats.messages < atos.stats.messages);
        assert!(groute.stats.mean_message_bytes() > atos.stats.mean_message_bytes());
    }
}
