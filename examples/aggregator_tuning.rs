//! Ablation: sweep the aggregator's BATCH_SIZE and WAIT_TIME for BFS and
//! PageRank on an InfiniBand cluster — the design-space exploration behind
//! the paper's chosen settings (BFS: 1 MiB + WAIT_TIME 4; PageRank: 1 MiB
//! + WAIT_TIME 32).
//!
//! ```bash
//! cargo run --release --example aggregator_tuning
//! ```

use std::sync::Arc;

use atos::apps::bfs::run_bfs;
use atos::apps::pagerank::run_pagerank;
use atos::core::{AtosConfig, CommMode};
use atos::graph::generators::{rmat, road_network};
use atos::graph::partition::Partition;
use atos::sim::Fabric;

fn cfg(batch_bytes: u64, wait_time: u32) -> AtosConfig {
    AtosConfig {
        comm: CommMode::Aggregated {
            batch_bytes,
            wait_time,
        },
        ..AtosConfig::ib_bfs()
    }
}

fn main() {
    let n_nodes = 8;
    let batches: [u64; 4] = [1 << 14, 1 << 17, 1 << 20, 1 << 23];
    let waits: [u32; 4] = [4, 32, 256, 2048];

    // Latency-bound: BFS on a mesh.
    let mesh = Arc::new(road_network(160, 160, 2));
    let mesh_part = Arc::new(Partition::bfs_grow(&mesh, n_nodes, 1));
    println!(
        "BFS on road mesh ({} vertices) over {n_nodes} IB nodes — ms per (BATCH_SIZE x WAIT_TIME):",
        mesh.n_vertices()
    );
    print!("{:<14}", "batch \\ wait");
    for w in waits {
        print!("{w:>10}");
    }
    println!();
    for b in batches {
        print!("{:<14}", format!("{} KiB", b >> 10));
        for w in waits {
            let run = run_bfs(
                mesh.clone(),
                mesh_part.clone(),
                0,
                Fabric::ib_cluster(n_nodes),
                cfg(b, w),
            );
            print!("{:>10.2}", run.stats.elapsed_ms());
        }
        println!();
    }

    // Bandwidth-bound: PageRank on a scale-free graph.
    let web = Arc::new(rmat(14, 400_000, (0.6, 0.19, 0.16, 0.05), 4));
    let web_part = Arc::new(Partition::bfs_grow(&web, n_nodes, 1));
    println!(
        "\nPageRank on scale-free graph ({} edges) over {n_nodes} IB nodes:",
        web.n_edges()
    );
    print!("{:<14}", "batch \\ wait");
    for w in waits {
        print!("{w:>10}");
    }
    println!();
    for b in batches {
        print!("{:<14}", format!("{} KiB", b >> 10));
        for w in waits {
            let run = run_pagerank(
                web.clone(),
                web_part.clone(),
                0.85,
                1e-6,
                Fabric::ib_cluster(n_nodes),
                cfg(b, w),
            );
            print!("{:>10.2}", run.stats.elapsed_ms());
        }
        println!();
    }

    println!("\nLatency-bound BFS prefers eager flushing (small WAIT_TIME);");
    println!("bandwidth-bound PageRank tolerates batching. The paper's choices");
    println!("(1 MiB + 4 for BFS, 1 MiB + 32 for PR) sit on the knee of each curve.");
}
