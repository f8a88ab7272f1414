//! Runtime configuration: the paper's three design axes plus communication
//! mode.

/// Kernel implementation strategy (paper configuration decision 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// One kernel stays resident until the program finishes: no per-
    /// iteration launch overhead and newly pushed local tasks are visible
    /// immediately.
    Persistent,
    /// One discrete kernel per scheduler iteration: pays launch + host
    /// sync each time, and tasks generated during a kernel become visible
    /// at the next kernel.
    Discrete,
}

/// Queue architecture (paper configuration decision 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueMode {
    /// FIFO scheduling.
    Standard,
    /// Priority-bucket scheduling: only tasks with priority below the
    /// current threshold are eligible; when the eligible buckets drain the
    /// threshold advances by `threshold_delta` (the paper's
    /// `DistributedPriorityQueues` init parameters).
    Priority {
        /// Initial eligibility threshold.
        threshold: u32,
        /// Threshold increment when eligible work drains.
        threshold_delta: u32,
    },
}

/// Worker granularity (paper configuration decision 3): how many GPU
/// threads cooperate as one scheduling unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerSize {
    /// One thread per worker (`launchThread`).
    Thread,
    /// One warp (32 threads) per worker (`launchWarp`).
    Warp,
    /// One CTA of the given thread count (`launchCTA`).
    Cta(u32),
}

impl WorkerSize {
    /// Threads per worker.
    pub fn threads(self) -> u32 {
        match self {
            WorkerSize::Thread => 1,
            WorkerSize::Warp => 32,
            WorkerSize::Cta(n) => n,
        }
    }
}

/// Worker pool shape for one PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerConfig {
    /// Worker granularity.
    pub size: WorkerSize,
    /// Tasks popped per worker per scheduling round (the `FETCH_SIZE`
    /// template parameter of `launchCTA`).
    pub fetch: usize,
    /// Number of concurrently resident workers. The paper's default is
    /// the maximum residency for the kernel's resource usage.
    pub num_workers: usize,
}

impl WorkerConfig {
    /// The paper's evaluation configuration: 512-thread CTA workers at
    /// full V100 residency (80 SMs × 2 CTAs), fetch 32.
    pub const fn cta512() -> Self {
        WorkerConfig {
            size: WorkerSize::Cta(512),
            fetch: 32,
            num_workers: 160,
        }
    }

    /// Maximum tasks one scheduling round can pop on a PE.
    pub fn round_capacity(&self) -> usize {
        self.fetch * self.num_workers
    }

    /// Cost model adjusted for this worker shape (the worker-size ablation
    /// the paper defers to the single-GPU Atos paper: "we use 512-thread
    /// CTA workers, which achieve the best performance").
    ///
    /// Smaller workers lose memory coalescing on neighbor-list traversal —
    /// a thread-sized worker issues strided single-lane loads (≈4× the
    /// per-edge cost), a warp coalesces but cannot use shared-memory
    /// staging for long lists (≈1.3×). Scheduling overhead moves the other
    /// way: small workers pay their pop more often but amortize it over
    /// fewer lanes.
    pub fn cost_model(&self) -> atos_sim::GpuCostModel {
        let base = atos_sim::GpuCostModel::v100();
        let (edge_factor, task_factor) = match self.size {
            WorkerSize::Thread => (4.0, 0.25),
            WorkerSize::Warp => (1.3, 0.5),
            WorkerSize::Cta(_) => (1.0, 1.0),
        };
        atos_sim::GpuCostModel {
            edge_ns: base.edge_ns * edge_factor,
            task_ns: base.task_ns * task_factor,
            ..base
        }
    }
}

/// How remote pushes travel (Section III-A.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Fine-grained one-sided pushes straight onto the wire, coalesced at
    /// worker granularity (NVLink mode). `group` is the number of tasks
    /// coalesced into one message (warp-width 32 in the paper's BFS).
    Direct {
        /// Tasks per coalesced message.
        group: usize,
    },
    /// Route through the communication aggregator (InfiniBand mode):
    /// bundle per destination until `batch_bytes` accumulate or the
    /// aggregator has polled `wait_time` times since the bundle opened.
    Aggregated {
        /// Flush threshold in bytes (the paper's `BATCH_SIZE`, 1 MiB).
        batch_bytes: u64,
        /// Flush threshold in aggregator polls (the paper's `WAIT_TIME`).
        wait_time: u32,
    },
}

/// Aggregator poll interval, ns: how often the persistently-running
/// aggregator worker re-checks accumulation counts. `WAIT_TIME × POLL_NS`
/// is the effective bundle age limit.
pub const AGGREGATOR_POLL_NS: u64 = 1_500;

/// Complete runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtosConfig {
    /// Kernel strategy.
    pub kernel: KernelMode,
    /// Queue architecture.
    pub queue: QueueMode,
    /// Worker pool shape.
    pub worker: WorkerConfig,
    /// Communication mode.
    pub comm: CommMode,
}

impl AtosConfig {
    /// `Atos (queue + persistent kernel)` from Tables II/IV — the NVLink
    /// mesh-graph champion.
    pub const fn standard_persistent() -> Self {
        AtosConfig {
            kernel: KernelMode::Persistent,
            queue: QueueMode::Standard,
            worker: WorkerConfig::cta512(),
            comm: CommMode::Direct { group: 32 },
        }
    }

    /// `Atos (priority queue + discrete kernel)` from Table II — the
    /// NVLink scale-free champion (threshold delta 1 = process BFS depths
    /// nearly in order).
    pub const fn priority_discrete() -> Self {
        AtosConfig {
            kernel: KernelMode::Discrete,
            queue: QueueMode::Priority {
                threshold: 1,
                threshold_delta: 1,
            },
            worker: WorkerConfig::cta512(),
            comm: CommMode::Direct { group: 32 },
        }
    }

    /// `Atos (discrete kernel)` standard-queue variant from Table IV.
    pub const fn standard_discrete() -> Self {
        AtosConfig {
            kernel: KernelMode::Discrete,
            queue: QueueMode::Standard,
            worker: WorkerConfig::cta512(),
            comm: CommMode::Direct { group: 32 },
        }
    }

    /// InfiniBand BFS configuration (Section IV-B.1): 1 MiB `BATCH_SIZE`,
    /// `WAIT_TIME = 4` — eager mode, because BFS is latency-bound.
    pub const fn ib_bfs() -> Self {
        AtosConfig {
            kernel: KernelMode::Persistent,
            queue: QueueMode::Standard,
            worker: WorkerConfig::cta512(),
            comm: CommMode::Aggregated {
                batch_bytes: 1 << 20,
                wait_time: 4,
            },
        }
    }

    /// InfiniBand PageRank configuration (Section IV-B.2): 1 MiB
    /// `BATCH_SIZE`, `WAIT_TIME = 32` — favor bandwidth over latency.
    pub const fn ib_pagerank() -> Self {
        AtosConfig {
            kernel: KernelMode::Persistent,
            queue: QueueMode::Standard,
            worker: WorkerConfig::cta512(),
            comm: CommMode::Aggregated {
                batch_bytes: 1 << 20,
                wait_time: 32,
            },
        }
    }

    /// Human-readable label matching the paper's table headers.
    pub fn label(&self) -> String {
        let q = match self.queue {
            QueueMode::Standard => "queue",
            QueueMode::Priority { .. } => "priority queue",
        };
        let k = match self.kernel {
            KernelMode::Persistent => "persistent kernel",
            KernelMode::Discrete => "discrete kernel",
        };
        format!("Atos ({q}+{k})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_settings() {
        let c = AtosConfig::ib_bfs();
        assert_eq!(
            c.comm,
            CommMode::Aggregated {
                batch_bytes: 1 << 20,
                wait_time: 4
            }
        );
        let p = AtosConfig::ib_pagerank();
        if let CommMode::Aggregated { wait_time, .. } = p.comm {
            assert_eq!(wait_time, 32);
        } else {
            panic!("PR IB config must aggregate");
        }
    }

    #[test]
    fn worker_shapes() {
        assert_eq!(WorkerSize::Thread.threads(), 1);
        assert_eq!(WorkerSize::Warp.threads(), 32);
        assert_eq!(WorkerSize::Cta(512).threads(), 512);
        assert_eq!(WorkerConfig::cta512().round_capacity(), 160 * 32);
    }

    #[test]
    fn labels_match_tables() {
        assert_eq!(
            AtosConfig::standard_persistent().label(),
            "Atos (queue+persistent kernel)"
        );
        assert_eq!(
            AtosConfig::priority_discrete().label(),
            "Atos (priority queue+discrete kernel)"
        );
    }
}
