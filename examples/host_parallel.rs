//! The Atos model on real threads: host-backend BFS plus a task-parallel
//! fan-out written directly against `run_host` (the paper's Listing 3 run
//! loop with a Listing 4-style `f1`).
//!
//! Everything in this example executes with genuine parallelism — shared
//! atomic depth arrays, lock-free counter-publication queues, one-sided
//! pushes into other PEs' receive queues — no simulator involved.
//!
//! ```bash
//! cargo run --release --example host_parallel
//! ```

use std::sync::Arc;

use atos::queue::sync::{AtomicU64, Ordering};

use atos::apps::host_bfs::host_bfs;
use atos::core::{run_host, HostApplication, HostConfig};
use atos::graph::generators::rmat;
use atos::graph::partition::Partition;
use atos::graph::reference;

/// Binary fan-out: each task `(depth, salt)` spawns two children, hashed
/// to their owner PEs, until depth 0.
struct FanOut {
    processed: AtomicU64,
}

impl HostApplication for FanOut {
    type Task = (u32, u32);
    fn process(
        &self,
        _pe: usize,
        (depth, salt): Self::Task,
        push: &mut dyn FnMut(usize, Self::Task),
    ) {
        self.processed.fetch_add(1, Ordering::Relaxed);
        if depth > 0 {
            for i in 0..2u32 {
                let child_salt = salt.wrapping_mul(1664525).wrapping_add(i);
                push((child_salt % 4) as usize, (depth - 1, child_salt));
            }
        }
    }
}

fn main() {
    // Part 1: parallel BFS through the high-level API.
    let graph = Arc::new(rmat(15, 600_000, (0.57, 0.19, 0.19, 0.05), 4));
    let source = (0..graph.n_vertices() as u32)
        .max_by_key(|&v| graph.degree(v))
        .unwrap();
    let partition = Arc::new(Partition::bfs_grow(&graph, 4, 1));
    println!(
        "host-parallel BFS: {} vertices, {} edges across 4 PEs",
        graph.n_vertices(),
        graph.n_edges()
    );
    let run = host_bfs(graph.clone(), partition, source, None);
    let want = reference::bfs(&graph, source);
    assert_eq!(run.depth, want);
    println!(
        "  wall time {:.2} ms, {} tasks, {} one-sided remote pushes — depths exact ✓",
        run.stats.elapsed.as_secs_f64() * 1e3,
        run.stats.tasks_per_pe.iter().sum::<u64>(),
        run.stats.remote_pushes
    );

    // Part 2: an application of its own on the host backend — a
    // task-parallel fan-out where f1 generates work for other PEs.
    let app = FanOut {
        processed: AtomicU64::new(0),
    };
    let cfg = HostConfig {
        n_pes: 4,
        workers_per_pe: 2,
        fetch: 32,
        queue_capacity: 1 << 22,
    };
    let stats = run_host(&app, cfg, vec![vec![(20u32, 7u32)], vec![], vec![], vec![]]);
    let total = app.processed.load(Ordering::Relaxed);
    println!(
        "\nfan-out: {} tasks in {:.2} ms ({} crossed PEs)",
        total,
        stats.elapsed.as_secs_f64() * 1e3,
        stats.remote_pushes
    );
    assert_eq!(total, (1u64 << 21) - 1, "complete binary tree of depth 20");
    println!("binary-tree task count exact ✓");
}
