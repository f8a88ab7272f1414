//! The yardstick: a plain breadth-first sweep of the workload's own graph,
//! timed in alternation with the runs.
//!
//! This sandbox's speed moves by tens of percent for seconds to minutes at
//! a time, so a rate in host seconds says as much about the minute it was
//! taken in as about the program. The sweep is slowed by the same minute.
//! The contract metric is therefore the program's task rate over the
//! sweep's edge rate: how many tasks the system completes while a plain
//! loop on one thread traverses one edge of the same graph.
//!
//! That holds for a run on one thread, which the machine slows as much as
//! it slows the sweep. The two workloads that keep both cores busy are
//! slowed a third as much, so for them the ratio moves more than the rate
//! it corrects, and `BENCHMARK.json` leaves them out (see
//! `workloads::LISTED`).
//!
//! The sweep runs no code of the repository: it reads its own copy of the
//! adjacency, taken once through `Csr::neighbors` outside every timed
//! region, so no change to the program can move the yardstick.

use std::hint::black_box;
use std::time::Instant;

use atos_graph::csr::{Csr, VertexId};

const UNREACHED: u32 = u32::MAX;

pub struct Sweep {
    /// `targets[offsets[v]..offsets[v + 1]]` are `v`'s neighbours.
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    source: VertexId,
}

impl Sweep {
    pub fn new(g: &Csr, source: VertexId) -> Self {
        let n = g.n_vertices();
        assert!(g.n_edges() < u32::MAX as usize, "offsets are 32-bit");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.n_edges());
        offsets.push(0);
        for v in 0..n as VertexId {
            targets.extend_from_slice(g.neighbors(v));
            offsets.push(targets.len() as u32);
        }
        Sweep {
            offsets,
            targets,
            source,
        }
    }

    /// One level-synchronous BFS from the source; the edges it traversed.
    fn once(
        &self,
        depth: &mut [u32],
        frontier: &mut Vec<VertexId>,
        next: &mut Vec<VertexId>,
    ) -> u64 {
        depth.fill(UNREACHED);
        depth[self.source as usize] = 0;
        frontier.clear();
        frontier.push(self.source);
        let (mut level, mut edges) = (0u32, 0u64);
        while !frontier.is_empty() {
            level += 1;
            for &u in frontier.iter() {
                let (lo, hi) = (self.offsets[u as usize], self.offsets[u as usize + 1]);
                edges += u64::from(hi - lo);
                for &v in &self.targets[lo as usize..hi as usize] {
                    if depth[v as usize] == UNREACHED {
                        depth[v as usize] = level;
                        next.push(v);
                    }
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        edges
    }

    /// Sweeps back to back on the caller's thread for `seconds` (at least
    /// one); edges per second.
    pub fn edges_per_s(&self, seconds: f64) -> f64 {
        let mut depth = vec![UNREACHED; self.offsets.len() - 1];
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut edges = 0u64;
        loop {
            edges += black_box(self.once(&mut depth, &mut frontier, &mut next));
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed >= seconds {
                return edges as f64 / elapsed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::rmat;
    use atos_graph::reference;

    #[test]
    fn the_sweep_is_a_breadth_first_search_of_the_same_graph() {
        let g = rmat(10, 12_000, (0.57, 0.19, 0.19, 0.05), 3);
        let sweep = Sweep::new(&g, 0);
        let mut depth = vec![0; g.n_vertices()];
        let edges = sweep.once(&mut depth, &mut Vec::new(), &mut Vec::new());
        assert_eq!(depth, reference::bfs(&g, 0));
        let reached = (0..g.n_vertices() as VertexId).filter(|&v| depth[v as usize] != UNREACHED);
        assert_eq!(edges, reached.map(|v| g.degree(v) as u64).sum::<u64>());
        assert!(sweep.edges_per_s(0.0) > 0.0);
    }
}
