//! GPU compute-cost model: a calibrated work/span abstraction of one V100.
//!
//! The simulator executes application code natively and uses this model
//! only to decide how much *virtual time* a batch of work consumes. The
//! model captures the four GPU phenomena the paper's evaluation hinges on:
//!
//! 1. **Kernel launch overhead** (`kernel_launch_ns`) — why persistent
//!    kernels win on high-diameter, low-parallelism (mesh-like) graphs:
//!    Gunrock pays a launch + host sync per BFS level, thousands of times.
//! 2. **Limited parallelism** (`resident_workers`) — a frontier smaller
//!    than the number of resident workers underutilizes the GPU, so time
//!    is `max(span, work / W)`, the classic work/span bound.
//! 3. **Throughput costs** (`task_ns`, `edge_ns`) — per scheduled task and
//!    per edge expanded, calibrated so a saturated V100 traverses a few
//!    billion edges per second, matching published Gunrock/Groute rates.
//! 4. **Host synchronization** (`host_sync_ns`) — the CPU-side cost of a
//!    stream synchronize + framework logic between kernels, charged by BSP
//!    and CPU-control-path schedulers.

use crate::engine::Time;

/// Calibrated cost constants for one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuCostModel {
    /// Cost to launch one kernel (driver + hardware dispatch), ns.
    pub kernel_launch_ns: u64,
    /// CPU-side cost of a stream synchronization + scheduling logic
    /// between kernels, ns.
    pub host_sync_ns: u64,
    /// Per-worker cost to pop/schedule one task, ns.
    pub task_ns: f64,
    /// Per-worker cost to process one edge (load neighbor, atomicMin,
    /// conditional push), ns.
    pub edge_ns: f64,
    /// Concurrently resident workers (CTA-sized workers on 80 SMs).
    pub resident_workers: usize,
}

impl GpuCostModel {
    /// V100 calibration used by all experiments.
    ///
    /// `resident_workers = 160`: 80 SMs × 2 resident 512-thread CTAs.
    /// `edge_ns = 80`: one worker's amortized serial cost per edge; at
    /// saturation the GPU sustains `160 / 80 ns = 2` billion traversed
    /// edges per second, in line with measured V100 BFS rates.
    pub const fn v100() -> Self {
        GpuCostModel {
            kernel_launch_ns: 8_000,
            host_sync_ns: 9_000,
            task_ns: 400.0,
            edge_ns: 80.0,
            resident_workers: 160,
        }
    }

    /// Time for one batch of `tasks` tasks expanding `edges` edges, where
    /// the largest single task expands `max_task_edges` edges.
    ///
    /// Work/span: `max(span, work / W)`. A batch of one 9-edge road-network
    /// vertex costs its serial time; a batch of 100 k scale-free vertices
    /// runs at full throughput.
    pub fn batch_ns(&self, tasks: usize, edges: u64, max_task_edges: u64) -> Time {
        self.step_ns(tasks, edges, max_task_edges, false)
    }

    /// Like [`batch_ns`](Self::batch_ns), but when `saturated` is true the
    /// span term is dropped: with more work queued than resident workers,
    /// a long task (a scale-free hub) occupies one worker while the others
    /// pipeline into subsequent batches, so only throughput bounds the
    /// step. The span penalty remains for *partial* batches — a thin mesh
    /// frontier genuinely underutilizes the GPU.
    pub fn step_ns(&self, tasks: usize, edges: u64, max_task_edges: u64, saturated: bool) -> Time {
        if tasks == 0 {
            return 0;
        }
        let work = tasks as f64 * self.task_ns + edges as f64 * self.edge_ns;
        let throughput = work / self.resident_workers as f64;
        let t = if saturated {
            throughput
        } else {
            let span = self.task_ns + max_task_edges as f64 * self.edge_ns;
            span.max(throughput)
        };
        t.ceil() as Time
    }

    /// Overhead of one discrete-kernel invocation (launch + host sync).
    pub fn kernel_cycle_ns(&self) -> Time {
        self.kernel_launch_ns + self.host_sync_ns
    }
}

impl Default for GpuCostModel {
    fn default() -> Self {
        Self::v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_free() {
        let m = GpuCostModel::v100();
        assert_eq!(m.batch_ns(0, 0, 0), 0);
    }

    #[test]
    fn single_task_pays_span() {
        let m = GpuCostModel::v100();
        let t = m.batch_ns(1, 9, 9);
        let span = (m.task_ns + 9.0 * m.edge_ns).ceil() as u64;
        assert_eq!(t, span);
    }

    #[test]
    fn saturated_batch_pays_work_over_width() {
        let m = GpuCostModel::v100();
        let tasks = 100_000;
        let edges = 1_500_000u64;
        let t = m.batch_ns(tasks, edges, 30);
        let work = ((tasks as f64 * m.task_ns + edges as f64 * m.edge_ns)
            / m.resident_workers as f64)
            .ceil() as u64;
        assert_eq!(t, work);
    }

    #[test]
    fn underutilization_penalty_is_visible() {
        // 10 tasks × 2 edges on a mesh frontier vs the same 20 edges across
        // a saturating batch: per-edge cost differs by orders of magnitude.
        let m = GpuCostModel::v100();
        let small = m.batch_ns(10, 20, 2);
        let big = m.batch_ns(100_000, 200_000, 2);
        let small_per_edge = small as f64 / 20.0;
        let big_per_edge = big as f64 / 200_000.0;
        assert!(small_per_edge > 5.0 * big_per_edge);
    }

    #[test]
    fn skewed_task_dominates_span() {
        let m = GpuCostModel::v100();
        // One 256k-degree hub (indochina-style) bounds the batch even with
        // plenty of workers.
        let t = m.batch_ns(100, 300_000, 256_000);
        let hub = (m.task_ns + 256_000.0 * m.edge_ns).ceil() as u64;
        assert_eq!(t, hub);
    }

    #[test]
    fn calibration_is_in_v100_range() {
        let m = GpuCostModel::v100();
        // Aggregate edge throughput at saturation, edges per second.
        let teps = m.resident_workers as f64 / m.edge_ns * 1e9;
        assert!(teps > 5e8 && teps < 1e10, "teps={teps}");
        assert!(m.kernel_cycle_ns() >= 10_000);
    }
}
