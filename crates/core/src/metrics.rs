//! Run statistics: virtual time plus the workload and traffic counters the
//! paper reports (Table III's normalized workload, communication volumes).

use atos_sim::Time;
use atos_trace::MetricsRegistry;

/// Everything measured during one runtime execution.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Virtual wall time of the whole run, ns.
    pub elapsed_ns: Time,
    /// Tasks processed per PE (`f1` invocations).
    pub tasks_per_pe: Vec<u64>,
    /// Edges expanded per PE.
    pub edges_per_pe: Vec<u64>,
    /// Busy virtual time per PE, ns.
    pub busy_ns_per_pe: Vec<Time>,
    /// Scheduling steps (kernels, in discrete mode) per PE.
    pub steps_per_pe: Vec<u64>,
    /// Application messages sent (bundles count as one).
    pub messages: u64,
    /// Application payload bytes sent.
    pub payload_bytes: u64,
    /// Wire bytes including framing (from the fabric trace).
    pub wire_bytes: u64,
    /// Remote tasks delivered.
    pub remote_tasks: u64,
    /// Aggregator bundles flushed (size- or age-triggered).
    pub agg_flushes: u64,
    /// Aggregator bundles flushed by the size trigger (`BATCH_SIZE`).
    pub agg_flushes_size: u64,
    /// Aggregator bundles flushed by the age trigger (`WAIT_TIME`).
    pub agg_flushes_age: u64,
    /// Tasks carried by aggregator bundles.
    pub agg_flushed_tasks: u64,
    /// Payload bytes carried by aggregator bundles.
    pub agg_flushed_bytes: u64,
    /// Worklist occupancy high-water mark per PE (largest queue length
    /// observed after any push).
    pub queue_hwm_per_pe: Vec<u64>,
    /// Step events dispatched by the engine.
    pub ev_steps: u64,
    /// Arrival events (doorbells) dispatched by the engine: one per
    /// delivery that reached a PE with no step coming. Arrivals a PE's next
    /// step collects from its receive lanes cause none, so on a busy
    /// receiver this is far below `messages` (which stays exact).
    pub ev_arrivals: u64,
    /// Aggregator-poll events dispatched by the engine.
    pub ev_agg_polls: u64,
    /// Message arrivals that joined the immediately preceding arrival with
    /// the same `(dst, deliver_time)` at one barrier: one delivery (one
    /// occupancy sample, one wake), not two.
    pub coalesced_arrivals: u64,
    /// Redundant aggregator wakeups avoided: flush windows that would
    /// have scheduled a timer per buffered destination but found one
    /// already pending for the PE.
    pub agg_poll_coalesced: u64,
    /// Aggregator polls that fired and found nothing due (every buffer
    /// they were armed for had already flushed on the size trigger).
    pub agg_poll_idle: u64,
    /// High-water mark of simultaneously pending engine events. Arrivals
    /// waiting in receive lanes are not engine events and are not counted.
    pub peak_pending_events: u64,
    /// Engine events popped during the run: `ev_steps + ev_arrivals +
    /// ev_agg_polls`. The sweep harness's work metric — it follows
    /// scheduling steps, not message counts (see `ev_arrivals`).
    pub sim_events: u64,
    /// Traffic burstiness (coefficient of variation; None if negligible
    /// traffic).
    pub burstiness: Option<f64>,
    /// Residue of the deleted work-stealing discipline (DESIGN.md §11),
    /// always 0: scheduling is owner-computes, so no PE ever runs another's
    /// tasks. Kept for one caller, the frozen `benchmark/` package, which
    /// reports it as `core.lb_steals`. ROADMAP item 2(e)'s `[benchmark]` PR
    /// deletes it with `lb_stolen_tasks` and `tests/benchmark_pins.rs`.
    pub lb_steals: u64,
    /// Residue, always 0, like `lb_steals` (`core.lb_stolen_tasks`).
    pub lb_stolen_tasks: u64,
}

impl RunStats {
    /// Construct zeroed stats for `n_pes`.
    pub fn new(n_pes: usize) -> Self {
        RunStats {
            tasks_per_pe: vec![0; n_pes],
            edges_per_pe: vec![0; n_pes],
            busy_ns_per_pe: vec![0; n_pes],
            steps_per_pe: vec![0; n_pes],
            queue_hwm_per_pe: vec![0; n_pes],
            ..Default::default()
        }
    }

    /// Elapsed virtual time in milliseconds (the unit of every table).
    pub fn elapsed_ms(&self) -> f64 {
        atos_sim::ns_to_ms(self.elapsed_ns)
    }

    /// Total tasks processed across PEs.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_pe.iter().sum()
    }

    /// Total edges expanded across PEs.
    pub fn total_edges(&self) -> u64 {
        self.edges_per_pe.iter().sum()
    }

    /// Table III's metric: tasks processed normalized by an ideal count
    /// (for BFS, each reachable vertex visited exactly once).
    pub fn normalized_workload(&self, ideal_tasks: u64) -> f64 {
        if ideal_tasks == 0 {
            return 0.0;
        }
        self.total_tasks() as f64 / ideal_tasks as f64
    }

    /// Mean PE utilization: busy time / elapsed, averaged over PEs.
    pub fn utilization(&self) -> f64 {
        if self.elapsed_ns == 0 || self.busy_ns_per_pe.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .busy_ns_per_pe
            .iter()
            .map(|&b| b as f64 / self.elapsed_ns as f64)
            .sum();
        sum / self.busy_ns_per_pe.len() as f64
    }

    /// Mean payload bytes per message (aggregation effectiveness).
    pub fn mean_message_bytes(&self) -> f64 {
        if self.messages == 0 {
            return 0.0;
        }
        self.payload_bytes as f64 / self.messages as f64
    }

    /// Dump every counter into `reg` under dotted namespaces
    /// (`run.*`, `comm.*`, `agg.*`, `engine.*`, `queue.*`, `pe<i>.*`) —
    /// the shape the bench binaries' `--metrics` flag serializes.
    pub fn fill_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set("run.elapsed_ns", self.elapsed_ns);
        reg.set("run.tasks", self.total_tasks());
        reg.set("run.edges", self.total_edges());
        reg.set("run.steps", self.steps_per_pe.iter().sum());
        reg.set("comm.messages", self.messages);
        reg.set("comm.payload_bytes", self.payload_bytes);
        reg.set("comm.wire_bytes", self.wire_bytes);
        reg.set("comm.remote_tasks", self.remote_tasks);
        reg.set("agg.flushes", self.agg_flushes);
        reg.set("agg.flushes_size", self.agg_flushes_size);
        reg.set("agg.flushes_age", self.agg_flushes_age);
        reg.set("agg.flushed_tasks", self.agg_flushed_tasks);
        reg.set("agg.flushed_bytes", self.agg_flushed_bytes);
        reg.set("agg.poll_coalesced", self.agg_poll_coalesced);
        reg.set("agg.poll_idle", self.agg_poll_idle);
        reg.set("engine.coalesced_arrivals", self.coalesced_arrivals);
        reg.set("engine.events", self.sim_events);
        reg.set("engine.ev_steps", self.ev_steps);
        reg.set("engine.ev_arrivals", self.ev_arrivals);
        reg.set("engine.ev_agg_polls", self.ev_agg_polls);
        reg.set("engine.peak_pending_events", self.peak_pending_events);
        reg.set(
            "queue.occupancy_hwm",
            self.queue_hwm_per_pe.iter().copied().max().unwrap_or(0),
        );
        for (pe, &hwm) in self.queue_hwm_per_pe.iter().enumerate() {
            reg.set(&format!("pe{pe}.occupancy_hwm"), hwm);
        }
        for (pe, &busy) in self.busy_ns_per_pe.iter().enumerate() {
            reg.set(&format!("pe{pe}.busy_ns"), busy);
        }
        for (pe, &tasks) in self.tasks_per_pe.iter().enumerate() {
            reg.set(&format!("pe{pe}.tasks"), tasks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s = RunStats::new(2);
        s.elapsed_ns = 2_000_000;
        s.tasks_per_pe = vec![30, 70];
        s.busy_ns_per_pe = vec![1_000_000, 2_000_000];
        s.messages = 4;
        s.payload_bytes = 400;
        assert!((s.elapsed_ms() - 2.0).abs() < 1e-12);
        assert_eq!(s.total_tasks(), 100);
        assert!((s.normalized_workload(80) - 1.25).abs() < 1e-12);
        assert!((s.utilization() - 0.75).abs() < 1e-12);
        assert!((s.mean_message_bytes() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn fill_metrics_covers_namespaces() {
        let mut s = RunStats::new(2);
        s.elapsed_ns = 1_000;
        s.tasks_per_pe = vec![3, 4];
        s.queue_hwm_per_pe = vec![10, 25];
        s.agg_flushes_size = 2;
        s.agg_flushes_age = 1;
        s.ev_steps = 9;
        s.peak_pending_events = 5;
        let mut reg = MetricsRegistry::new();
        s.fill_metrics(&mut reg);
        assert_eq!(reg.get("run.tasks"), Some(7));
        assert_eq!(reg.get("queue.occupancy_hwm"), Some(25));
        assert_eq!(reg.get("pe1.occupancy_hwm"), Some(25));
        assert_eq!(reg.get("agg.flushes_size"), Some(2));
        assert_eq!(reg.get("agg.flushes_age"), Some(1));
        assert_eq!(reg.get("engine.ev_steps"), Some(9));
        assert_eq!(reg.get("engine.peak_pending_events"), Some(5));
    }

    #[test]
    fn zero_guards() {
        let s = RunStats::new(0);
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.mean_message_bytes(), 0.0);
        assert_eq!(s.normalized_workload(0), 0.0);
    }
}
