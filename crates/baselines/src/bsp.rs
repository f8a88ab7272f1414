//! Gunrock-like bulk-synchronous scheduler.
//!
//! The traditional multi-GPU formulation from the paper's Listing 1: per
//! iteration, every GPU launches a kernel over its frontier, the host
//! synchronizes the stream, remote updates are exchanged in bulk
//! (CPU-mediated), and a merge step folds received updates into the next
//! frontier. It is a *schedule*, not a second program: [`run_bsp`] runs
//! the same [`Application`]s the Atos runtime runs (IrGL's view of BSP vs
//! persistent execution), and the clock is advanced with the same
//! [`GpuCostModel`]. The only differences are the framework's own:
//! kernel-boundary synchronization, bursty bulk exchange, and a CPU
//! control path.
//!
//! Per iteration we charge **two kernel cycles** (Gunrock's advance +
//! filter operator pair) plus one more on a PE that merges received
//! updates.

use std::sync::Arc;

use atos_apps::assert_partition_fits;
use atos_apps::bfs::BfsApp;
use atos_apps::pagerank::{PageRankApp, PrTask};
use atos_core::{Application, Emitter, RunStats};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::partition::Partition;
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

    /// Bulk all-to-all exchange at the barrier of `sends[src][dst]`, at
    /// `task_bytes` per task; returns when the last message lands.
    fn exchange<T>(&mut self, sends: &[Vec<Vec<T>>], task_bytes: u64) {
        let mut t_end = self.clock;
        for (src, row) in sends.iter().enumerate() {
            for (dst, run) in row.iter().enumerate() {
                if run.is_empty() {
                    continue;
                }
                let bytes = run.len() as u64 * task_bytes;
                let (from, to) = (PeId(src as u32), PeId(dst as u32));
                let arrival = self
                    .fabric
                    .transfer(self.clock, from, to, bytes, self.control);
                self.stats.messages += 1;
                self.stats.payload_bytes += bytes;
                self.stats.remote_tasks += run.len() as u64;
                t_end = t_end.max(arrival);
            }
        }
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

/// Run `app` bulk-synchronously on `fabric` from `seeds[pe]`, PE `pe`'s
/// first frontier; returns the run's statistics and its superstep count.
///
/// Each superstep does four things, in order:
/// 1. every PE runs its whole frontier through [`Application::process`],
///    charged as two kernels (advance + filter);
/// 2. at the barrier the host ships each `(src, dst)` run in bulk over the
///    CPU control path, at [`Application::task_bytes`] per task;
/// 3. each receiver applies its runs, in source-PE order, with
///    [`Application::on_receive_run`], charged as one merge kernel;
/// 4. the local tasks and then the kept ones form the next frontier.
///
/// The run ends when every frontier is empty. The schedule calls
/// `process`, `on_receive_run`, `task_edges` and `task_bytes`, and no
/// other method: there is no priority queue (`priority`), no pop failure
/// inside a superstep (`on_idle`) and no batch pipeline (`prefetch`).
///
/// # Panics
/// If `seeds` does not hold one frontier per PE of `fabric`.
pub fn run_bsp<A: Application>(
    app: &mut A,
    fabric: Fabric,
    seeds: Vec<Vec<A::Task>>,
) -> (RunStats, u32) {
    let n_pes = fabric.n_pes();
    assert_eq!(seeds.len(), n_pes, "one seed frontier per PE");
    let mut clk = BspClock::new(fabric, GpuCostModel::v100());
    let task_bytes = app.task_bytes();
    let mut frontier = seeds;
    // `sends[src][dst]`: the run `src` ships to `dst` at this barrier.
    let mut sends: Vec<Vec<Vec<A::Task>>> = (0..n_pes)
        .map(|_| (0..n_pes).map(|_| Vec::new()).collect())
        .collect();
    let mut supersteps = 0u32;
    let mut out = Emitter::new(0, n_pes);

    while frontier.iter().any(|f| !f.is_empty()) {
        supersteps += 1;
        // Advance + filter kernels per PE.
        let mut next = Vec::with_capacity(n_pes);
        let mut shape = Vec::with_capacity(n_pes);
        for (pe, tasks) in frontier.iter().enumerate() {
            out.reset_for(pe);
            let (mut edges, mut span) = (0u64, 0u64);
            for &task in tasks {
                let e = app.task_edges(&task);
                edges += e;
                span = span.max(e);
                app.process(pe, task, &mut out);
            }
            shape.push((tasks.len(), edges, span));
            for (dst, run) in sends[pe].iter_mut().enumerate() {
                run.clear();
                out.drain_remote(dst, run);
            }
            next.push(std::mem::take(&mut out.local));
        }
        clk.compute_phase(&shape, 2);

        // Barrier + bulk exchange.
        clk.exchange(&sends, task_bytes);

        // Merge received updates. Merging is a flat scan of received
        // updates (one atomic each), not a task-scheduling round: charge
        // it as pure edge work on one saturating batch.
        let mut merge = Vec::with_capacity(n_pes);
        for (dst, keep) in next.iter_mut().enumerate() {
            let mut received = 0u64;
            for row in &sends {
                received += row[dst].len() as u64;
                app.on_receive_run(dst, &row[dst], keep);
            }
            merge.push(((received > 0) as usize, received, 1u64));
        }
        clk.compute_phase(&merge, 1);
        frontier = next;
    }

    (clk.finish(), supersteps)
}

/// Level-synchronous multi-GPU BFS (Gunrock-like): [`BfsApp`] under
/// [`run_bsp`], seeded as `run_bfs` seeds it.
pub fn bsp_bfs(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    source: VertexId,
    fabric: Fabric,
) -> BspRun {
    assert_partition_fits(&partition, &fabric);
    let mut app = BfsApp::new(graph, partition.clone(), source);
    let mut seeds = vec![Vec::new(); fabric.n_pes()];
    seeds[partition.owner(source)].push((source, 0));
    let (stats, iterations) = run_bsp(&mut app, fabric, seeds);
    BspRun {
        stats,
        depth: app.depth,
        rank: Vec::new(),
        iterations,
    }
}

/// Bulk-synchronous push PageRank (Gunrock-like): [`PageRankApp`] under
/// [`run_bsp`], every vertex seeded on its owner as `run_pagerank`
/// seeds it; remote contributions cross at the barrier.
pub fn bsp_pagerank(
    graph: Arc<Csr>,
    partition: Arc<Partition>,
    alpha: f64,
    epsilon: f64,
    fabric: Fabric,
) -> BspRun {
    assert_partition_fits(&partition, &fabric);
    let mut app = PageRankApp::new(graph, partition.clone(), alpha, epsilon);
    let seeds = (0..partition.n_parts())
        .map(|pe| {
            partition
                .vertices_of(pe)
                .into_iter()
                .map(PrTask::Relax)
                .collect()
        })
        .collect();
    let (stats, iterations) = run_bsp(&mut app, fabric, seeds);
    BspRun {
        stats,
        depth: Vec::new(),
        rank: app.rank,
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
