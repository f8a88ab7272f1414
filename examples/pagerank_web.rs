//! Distributed PageRank over InfiniBand with the communication aggregator.
//!
//! PageRank is the paper's bandwidth-bound application: every relaxation
//! pushes contributions along every edge, and on an 8-node InfiniBand
//! cluster those fine-grained messages would drown in per-message
//! overhead. The aggregator bundles them per destination; this example
//! contrasts eager (WAIT_TIME = 4) and batched (WAIT_TIME = 32) modes
//! against unaggregated sends.
//!
//! ```bash
//! cargo run --release --example pagerank_web
//! ```

use std::sync::Arc;

use atos::apps::pagerank::run_pagerank;
use atos::core::{AtosConfig, CommMode};
use atos::graph::generators::rmat;
use atos::graph::partition::Partition;
use atos::graph::reference;
use atos::sim::Fabric;

const ALPHA: f64 = 0.85;
const EPS: f64 = 1e-6;

fn main() {
    // A web-crawl-like scale-free graph.
    let graph = Arc::new(rmat(15, 500_000, (0.6, 0.19, 0.16, 0.05), 3));
    let partition = Arc::new(Partition::bfs_grow(&graph, 8, 1));
    println!(
        "web graph: {} vertices, {} edges on 8 IB-connected nodes (edge cut {:.1}%)",
        graph.n_vertices(),
        graph.n_edges(),
        partition.edge_cut(&graph) * 100.0
    );

    let reference_rank = reference::pagerank_push(&graph, ALPHA, EPS).rank;

    let configs: [(&str, AtosConfig); 3] = [
        (
            "unaggregated (32-task messages)",
            AtosConfig {
                comm: CommMode::Direct { group: 32 },
                ..AtosConfig::ib_pagerank()
            },
        ),
        (
            "aggregator, eager (WAIT_TIME=4)",
            AtosConfig {
                comm: CommMode::Aggregated {
                    batch_bytes: 1 << 20,
                    wait_time: 4,
                },
                ..AtosConfig::ib_pagerank()
            },
        ),
        (
            "aggregator, batched (WAIT_TIME=32)",
            AtosConfig::ib_pagerank(),
        ),
    ];

    println!(
        "\n{:<38}{:>12}{:>12}{:>16}{:>14}",
        "communication mode", "time (ms)", "messages", "mean msg bytes", "wire MB"
    );
    for (name, cfg) in configs {
        let run = run_pagerank(
            graph.clone(),
            partition.clone(),
            ALPHA,
            EPS,
            Fabric::ib_cluster(8),
            cfg,
        );
        // Every mode converges to the same ranks.
        let err = reference::rank_l1(&run.rank, &reference_rank) / graph.n_vertices() as f64;
        assert!(err < 1e-3, "per-vertex L1 {err}");
        println!(
            "{:<38}{:>12.3}{:>12}{:>16.0}{:>14.2}",
            name,
            run.stats.elapsed_ms(),
            run.stats.messages,
            run.stats.mean_message_bytes(),
            run.stats.wire_bytes as f64 / 1e6
        );
    }

    println!("\nAggregation trades message latency for bandwidth: the batched");
    println!("mode sends orders of magnitude fewer, larger messages — the right");
    println!("trade for bandwidth-bound PageRank (the paper uses WAIT_TIME=32).");
}
