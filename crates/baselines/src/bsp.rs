//! Gunrock-like bulk-synchronous scheduler.
//!
//! The traditional multi-GPU formulation from the paper's Listing 1: per
//! iteration, every GPU launches a kernel over its frontier, the host
//! synchronizes the stream, remote updates are exchanged in bulk
//! (CPU-mediated), and a merge step folds received updates into the next
//! frontier. The clock is advanced with the same
//! [`GpuCostModel`] used by Atos; the only differences are
//! the framework's own: kernel-boundary synchronization, bursty bulk
//! exchange, and a CPU control path.
//!
//! Per iteration we charge **two kernel cycles** (Gunrock's advance +
//! filter operator pair) plus one more when a merge of received updates
//! is needed.

use std::sync::Arc;

use atos_core::RunStats;
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
use atos_graph::reference::UNREACHED;
use atos_sim::{ControlPath, Fabric, GpuCostModel, PeId, Time};

/// Result of a BSP run.
#[derive(Debug, Clone)]
pub struct BspRun {
    /// Runtime measurements (tables report `elapsed_ms`).
    pub stats: RunStats,
    /// BFS: final depths. PageRank: unset.
    pub depth: Vec<u32>,
    /// PageRank: final ranks. BFS: unset.
    pub rank: Vec<f64>,
    /// BSP iterations (≈ diameter for BFS).
    pub iterations: u32,
}

struct BspClock {
    fabric: Fabric,
    cost: GpuCostModel,
    control: ControlPath,
    clock: Time,
    stats: RunStats,
}

impl BspClock {
    fn new(fabric: Fabric, cost: GpuCostModel) -> Self {
        let n = fabric.n_pes();
        BspClock {
            fabric,
            cost,
            control: ControlPath::cpu_mediated(),
            clock: 0,
            stats: RunStats::new(n),
        }
    }

    /// Charge one compute phase: every PE runs `kernels` kernel cycles
    /// plus its batch time; the barrier waits for the slowest.
    fn compute_phase(&mut self, per_pe: &[(usize, u64, u64)], kernels: u32) {
        let mut t_end = self.clock;
        for (pe, &(tasks, edges, span)) in per_pe.iter().enumerate() {
            if tasks == 0 {
                continue;
            }
            // Big levels keep every worker busy, so hubs pipeline (same
            // saturation rule the Atos runtime uses).
            let saturated = tasks >= 4 * self.cost.resident_workers;
            let busy = self.cost.step_ns(tasks, edges, span, saturated)
                + kernels as u64 * self.cost.kernel_cycle_ns();
            self.stats.busy_ns_per_pe[pe] += busy;
            self.stats.tasks_per_pe[pe] += tasks as u64;
            self.stats.edges_per_pe[pe] += edges;
            self.stats.steps_per_pe[pe] += kernels as u64;
            t_end = t_end.max(self.clock + busy);
        }
        self.clock = t_end;
    }

    /// Bulk all-to-all exchange at the barrier; returns when the last
    /// message lands.
    fn exchange(&mut self, bytes: &[Vec<u64>], task_counts: &[Vec<u64>]) {
        let mut t_end = self.clock;
        let n = bytes.len();
        for (src, row) in bytes.iter().enumerate() {
            for (dst, &b) in row.iter().enumerate() {
                if b == 0 || src == dst {
                    continue;
                }
                let arrival = self.fabric.transfer(
                    self.clock,
                    PeId(src as u32),
                    PeId(dst as u32),
                    b,
                    self.control,
                );
                self.stats.messages += 1;
                self.stats.payload_bytes += b;
                self.stats.remote_tasks += task_counts[src][dst];
                t_end = t_end.max(arrival);
            }
        }
        let _ = n;
        self.clock = t_end;
    }

    fn finish(mut self) -> RunStats {
        self.stats.elapsed_ns = self.clock;
        self.stats.wire_bytes = self.fabric.trace.total_wire_bytes();
        // Extend the traffic series to the end of the run so trailing
        // quiet time counts toward burstiness, exactly as the Atos
        // runtime does — keeps the smoothing comparison fair.
        self.fabric.trace.finish(self.clock);
        self.stats.burstiness = self.fabric.trace.burstiness();
        self.stats
    }
}

/// Level-synchronous multi-GPU BFS (Gunrock-like).
pub fn bsp_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
) -> BspRun {
    let n_pes = fabric.n_pes();
    assert_eq!(partition.n_parts(), n_pes);
    let mut clk = BspClock::new(fabric, GpuCostModel::v100());
    let n = graph.n_vertices();
    let mut depth = vec![UNREACHED; n];
    depth[source as usize] = 0;
    let mut frontier: Vec<Vec<VertexId>> = vec![Vec::new(); n_pes];
    frontier[partition.owner(source)].push(source);
    let task_bytes = 8u64;
    let mut iterations = 0u32;

    loop {
        let active: usize = frontier.iter().map(Vec::len).sum();
        if active == 0 {
            break;
        }
        iterations += 1;
        // Advance + filter kernels per PE.
        let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); n_pes];
        let mut send: Vec<Vec<Vec<(VertexId, u32)>>> =
            vec![vec![Vec::new(); n_pes]; n_pes];
        let mut shape = Vec::with_capacity(n_pes);
        for pe in 0..n_pes {
            let mut edges = 0u64;
            let mut span = 0u64;
            for &v in &frontier[pe] {
                let deg = graph.degree(v) as u64;
                edges += deg;
                span = span.max(deg);
                let nd = depth[v as usize] + 1;
                for &w in graph.neighbors(v) {
                    let owner = partition.owner(w);
                    if owner == pe {
                        if nd < depth[w as usize] {
                            depth[w as usize] = nd;
                            next[pe].push(w);
                        }
                    } else {
                        // BSP: remote updates are buffered until the
                        // barrier, applied at the destination next
                        // iteration.
                        send[pe][owner].push((w, nd));
                    }
                }
            }
            shape.push((frontier[pe].len(), edges, span));
        }
        clk.compute_phase(&shape, 2);

        // The filter kernel deduplicates the outgoing update lists (a
        // vertex reached from several parents in one level is sent once).
        for row in &mut send {
            for buf in row.iter_mut() {
                buf.sort_unstable();
                buf.dedup_by_key(|&mut (w, _)| w);
            }
        }

        // Barrier + bulk exchange.
        let bytes: Vec<Vec<u64>> = send
            .iter()
            .map(|row| row.iter().map(|v| v.len() as u64 * task_bytes).collect())
            .collect();
        let counts: Vec<Vec<u64>> = send
            .iter()
            .map(|row| row.iter().map(|v| v.len() as u64).collect())
            .collect();
        let any_comm = bytes.iter().flatten().any(|&b| b > 0);
        clk.exchange(&bytes, &counts);

        // Merge received updates (one more kernel on receiving PEs).
        if any_comm {
            let mut merge_shape = vec![(0usize, 0u64, 0u64); n_pes];
            for (src, row) in send.iter().enumerate() {
                let _ = src;
                for (dst, updates) in row.iter().enumerate() {
                    for &(w, nd) in updates {
                        merge_shape[dst].0 += 1;
                        if nd < depth[w as usize] {
                            depth[w as usize] = nd;
                            next[dst].push(w);
                        }
                    }
                }
            }
            // Merging is a flat scan of received updates (one atomicMin
            // each), not a task-scheduling round: charge it as pure edge
            // work on one saturating batch.
            let merge: Vec<(usize, u64, u64)> = merge_shape
                .iter()
                .map(|&(t, _, _)| (t.min(1), t as u64, 1u64))
                .collect();
            clk.compute_phase(&merge, 1);
        }

        // Deduplicate next frontier (filter kernel's job).
        for f in &mut next {
            f.sort_unstable();
            f.dedup();
        }
        frontier = next;
    }

    BspRun {
        stats: clk.finish(),
        depth,
        rank: Vec::new(),
        iterations,
    }
}

/// Bulk-synchronous push PageRank (Gunrock-like): all active vertices
/// relax each iteration; remote contributions cross at the barrier.
pub fn bsp_pagerank(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    alpha: f64,
    epsilon: f64,
    fabric: Fabric,
) -> BspRun {
    let n_pes = fabric.n_pes();
    assert_eq!(partition.n_parts(), n_pes);
    let mut clk = BspClock::new(fabric, GpuCostModel::v100());
    let n = graph.n_vertices();
    let mut rank = vec![0.0f64; n];
    let mut residue = vec![1.0 - alpha; n];
    let task_bytes = 8u64;
    let owned: Vec<Vec<VertexId>> = (0..n_pes).map(|pe| partition.vertices_of(pe)).collect();
    let mut iterations = 0u32;

    // Reused accumulation state. BSP PageRank is *Jacobi*: every
    // contribution — local or remote — is buffered during the iteration
    // and applied at the barrier, so each round relaxes against residues
    // from the previous round. This is what makes the bulk-synchronous
    // formulation do severalfold more relaxations than the asynchronous
    // (Gauss-Seidel-ordered) push PR the paper's Atos and Groute run.
    // Remote contributions are pre-aggregated per destination vertex (the
    // reduce in Gunrock's exchange), so message size is per-vertex.
    let mut next_residue = vec![0.0f64; n];
    let mut send_val: Vec<Vec<f64>> = vec![vec![0.0; n]; n_pes];
    let mut touched: Vec<Vec<Vec<VertexId>>> = vec![vec![Vec::new(); n_pes]; n_pes];
    loop {
        // Active = residue above threshold, found by the filter kernel.
        let mut shape = Vec::with_capacity(n_pes);
        let mut active_total = 0usize;
        for pe in 0..n_pes {
            let mut tasks = 0usize;
            let mut edges = 0u64;
            let mut span = 0u64;
            for &v in &owned[pe] {
                let r = residue[v as usize];
                if r < epsilon {
                    continue;
                }
                tasks += 1;
                active_total += 1;
                let deg = graph.degree(v) as u64;
                edges += deg;
                span = span.max(deg);
                residue[v as usize] = 0.0;
                rank[v as usize] += r;
                if deg == 0 {
                    continue;
                }
                let share = alpha * r / deg as f64;
                for &w in graph.neighbors(v) {
                    let owner = partition.owner(w);
                    if owner == pe {
                        next_residue[w as usize] += share;
                    } else {
                        if send_val[owner][w as usize] == 0.0 {
                            touched[pe][owner].push(w);
                        }
                        send_val[owner][w as usize] += share;
                    }
                }
            }
            shape.push((tasks, edges, span));
        }
        if active_total == 0 {
            break;
        }
        iterations += 1;
        clk.compute_phase(&shape, 2);

        // Barrier: fold this round's local contributions into the live
        // residues (remote ones arrive via the exchange below).
        for (w, nr) in next_residue.iter_mut().enumerate() {
            if *nr != 0.0 {
                residue[w] += *nr;
                *nr = 0.0;
            }
        }

        // Bulk exchange of per-vertex aggregated contributions.
        let counts: Vec<Vec<u64>> = touched
            .iter()
            .map(|row| row.iter().map(|t| t.len() as u64).collect())
            .collect();
        let bytes: Vec<Vec<u64>> = counts
            .iter()
            .map(|row| row.iter().map(|&c| c * task_bytes).collect())
            .collect();
        clk.exchange(&bytes, &counts);

        // Apply at destinations (flat scan; charged like the BFS merge).
        let mut merge_shape = vec![(0usize, 0u64, 0u64); n_pes];
        for row in &mut touched {
            for (dst, list) in row.iter_mut().enumerate() {
                merge_shape[dst].1 += list.len() as u64;
                merge_shape[dst].0 = 1;
                for w in list.drain(..) {
                    residue[w as usize] += send_val[dst][w as usize];
                    send_val[dst][w as usize] = 0.0;
                }
            }
        }
        clk.compute_phase(
            &merge_shape
                .iter()
                .map(|&(t, e, _)| (t.min(1) * (e > 0) as usize, e, 1u64))
                .collect::<Vec<_>>(),
            1,
        );
    }

    BspRun {
        stats: clk.finish(),
        depth: Vec::new(),
        rank,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atos_graph::generators::{Preset, Scale};

    #[test]
    fn bsp_bfs_iterations_equal_eccentricity() {
        let g = Arc::new(atos_graph::generators::grid_2d(16, 16));
        let part = Arc::new(Partition::single(g.n_vertices()));
        let run = bsp_bfs(g, part, 0, Fabric::daisy(1));
        // Corner-to-corner eccentricity is 30, so frontiers exist for
        // depths 0..=30: 31 kernel iterations (the last finds nothing new).
        assert_eq!(run.iterations, 31);
    }

    #[test]
    fn mesh_bfs_costs_diameter_times_kernel_overhead() {
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::single(g.n_vertices()));
        let run = bsp_bfs(g, part, src, Fabric::daisy(1));
        let floor = run.iterations as u64 * 2 * GpuCostModel::v100().kernel_cycle_ns();
        assert!(run.stats.elapsed_ns >= floor);
        assert!(run.iterations > 50, "mesh diameter drives iterations");
    }

    #[test]
    fn multi_gpu_bsp_pays_more_sync_on_mesh() {
        // Table II: Gunrock's road_usa runtime *increases* with GPU count.
        let p = Preset::by_name("road_usa_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let t1 = bsp_bfs(
            g.clone(),
            Arc::new(Partition::single(g.n_vertices())),
            src,
            Fabric::daisy(1),
        )
        .stats
        .elapsed_ns;
        let t4 = bsp_bfs(
            g.clone(),
            Arc::new(Partition::bfs_grow(&g, 4, 1)),
            src,
            Fabric::daisy(4),
        )
        .stats
        .elapsed_ns;
        assert!(t4 > t1, "1 GPU {t1} vs 4 GPU {t4}");
    }

    #[test]
    fn bsp_is_deterministic() {
        let p = Preset::by_name("hollywood_2009_s").unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 2, 3));
        let a = bsp_bfs(g.clone(), part.clone(), src, Fabric::daisy(2));
        let b = bsp_bfs(g, part, src, Fabric::daisy(2));
        assert_eq!(a.stats.elapsed_ns, b.stats.elapsed_ns);
        assert_eq!(a.depth, b.depth);
    }
}
