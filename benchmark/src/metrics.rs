//! The metric inventory: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` repeats the contract part of these tables; the test
//! at the bottom keeps the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the earlier value by which a later one may be worse; 0
    /// demands exact equality.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it. A metric that is 0 on some
    /// workload, or exact by construction, cannot be listed there: it is
    /// printed by name and checked by `--check-repeat` all the same.
    pub in_contract: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    in_contract: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        in_contract,
    }
}

/// `run_s_p50` and `edges_per_s` compare runs on one input, as
/// `--check-repeat` and a parent/change pair do. Across seeds the persistent
/// kernel's redundant work varies by tens of percent on the mesh, so the
/// rate is in tasks: host time set against the simulated work it covered.
/// The contract lists that rate over the sweep's (see `sweep.rs`), because
/// this sandbox's speed moves a rate in host seconds past any bound.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("tasks_per_sweep_edge", "ratio", Better::Higher, 0.25, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25, true),
    e2e("tasks_per_s", "1/s", Better::Higher, 0.25, false),
    e2e("run_s_p50", "s", Better::Lower, 0.10, false),
    e2e("edges_per_s", "edges/s", Better::Higher, 0.10, false),
    e2e("virtual_ms", "ms", Better::Lower, 0.0, false),
    e2e("fail_share", "ratio", Better::Lower, 0.0, false),
];

/// Per-layer metrics of the traced pass, `<crate>.<metric>`, in print
/// order. Every workload reports every one; a metric whose layer the
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.generate_edges_per_s", "edges/s"),
    ("graph.weights_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.edge_cut", "ratio"),
    ("graph.reference_s", "s"),
    ("graph.slowdown_vs_reference_x", "x"),
    ("queue.counter_push_ns", "ns/task"),
    ("queue.counter_pop_ns", "ns/task"),
    ("queue.counter_mixed_t2_ns", "ns/task"),
    ("queue.cas_push_ns", "ns/task"),
    ("queue.cas_pop_ns", "ns/task"),
    ("queue.cas_mixed_t2_ns", "ns/task"),
    ("queue.broker_push_ns", "ns/task"),
    ("queue.broker_pop_ns", "ns/task"),
    ("queue.broker_mixed_t2_ns", "ns/task"),
    ("queue.cas_retries_per_op", "ratio"),
    ("queue.counter_overshoot_per_op", "ratio"),
    ("queue.host_overshoots", "count"),
    ("queue.host_occupancy_hwm", "count"),
    ("sim.virtual_ms", "ms"),
    ("sim.events", "count"),
    ("sim.events_per_task", "ratio"),
    ("sim.ev_steps", "count"),
    ("sim.ev_arrivals", "count"),
    ("sim.ev_agg_polls", "count"),
    ("sim.coalesced_arrivals", "count"),
    ("sim.peak_pending_events", "count"),
    ("sim.messages", "count"),
    ("sim.wire_bytes", "bytes"),
    ("sim.engine_ns_per_event", "ns/event"),
    ("sim.fabric_transfer_ns", "ns/call"),
    ("sim.engine_share", "ratio"),
    ("core.runtime_new_s", "s"),
    ("core.run_s", "s"),
    ("core.run_self_s", "s"),
    ("core.self_ns_per_task", "ns/task"),
    ("core.tasks", "count"),
    ("core.edges", "count"),
    ("core.steps", "count"),
    ("core.tasks_per_step", "ratio"),
    ("core.remote_tasks", "count"),
    ("core.payload_bytes", "bytes"),
    ("core.queue_hwm", "count"),
    ("core.task_imbalance", "ratio"),
    ("core.work_ratio", "ratio"),
    ("core.utilization", "ratio"),
    ("core.workqueue_fifo_ns", "ns/task"),
    ("core.workqueue_priority_ns", "ns/task"),
    ("core.agg_flushes", "count"),
    ("core.agg_flushes_size", "count"),
    ("core.agg_flushes_age", "count"),
    ("core.agg_tasks_per_flush", "ratio"),
    ("core.agg_poll_idle", "count"),
    ("core.agg_push_flush_ns", "ns/task"),
    ("core.lb_steals", "count"),
    ("core.lb_stolen_tasks", "count"),
    ("core.shard_windows", "count"),
    ("core.shard_barrier_frac", "ratio"),
    ("core.shard_imbalance_ratio", "ratio"),
    ("core.shard_speedup_x", "x"),
    ("core.host_tasks", "count"),
    ("core.host_tasks_per_s", "1/s"),
    ("core.host_work_ratio", "ratio"),
    ("core.host_remote_pushes", "count"),
    ("core.host_idle_spin_rounds", "count"),
    ("core.host_idle_yield_rounds", "count"),
    ("core.host_idle_park_rounds", "count"),
    ("core.host_scaling_x", "x"),
    ("apps.process_calls", "count"),
    ("apps.process_s", "s"),
    ("apps.on_receive_calls", "count"),
    ("apps.on_receive_s", "s"),
    ("apps.on_receive_keep_ratio", "ratio"),
    ("apps.on_idle_calls", "count"),
    ("apps.on_idle_s", "s"),
    ("apps.callback_share", "ratio"),
    ("apps.verify_s", "s"),
    ("baselines.bsp_virtual_ms", "ms"),
    ("baselines.bsp_run_s", "s"),
    ("baselines.atos_speedup_x", "x"),
    ("trace.overhead_share", "ratio"),
    ("trace.tracer_overhead_share", "ratio"),
    ("bench.runs", "count"),
    ("bench.run_s_q1", "s"),
    ("bench.run_s_q3", "s"),
    ("bench.input_vertices", "count"),
    ("bench.input_edges", "count"),
    ("bench.host_cores", "count"),
    ("bench.tasks_per_s", "1/s"),
    ("bench.sweep_edges_per_s", "edges/s"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` of every metric in `table`, in its order.
    pub fn in_order<'a>(
        &'a self,
        table: impl IntoIterator<Item = (&'static str, &'static str)> + 'a,
    ) -> impl Iterator<Item = (&'static str, f64, &'static str)> + 'a {
        table
            .into_iter()
            .map(|(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
    }

    /// Names set here that `table` does not list: a misspelt metric.
    pub fn unlisted(&self, table: &[(&str, &str)]) -> Vec<&'static str> {
        let listed = |n: &str| table.iter().any(|(t, _)| *t == n);
        self.0.keys().copied().filter(|n| !listed(n)).collect()
    }
}

/// `(q1, median, q3)` by linear interpolation between order statistics;
/// zeros when there is no sample (every run failed).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        v[lo] + (v[(lo + 1).min(v.len() - 1)] - v[lo]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for m in END_TO_END.iter().filter(|m| m.in_contract) {
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\",\"bound\":{}}}",
                m.name, m.unit, m.bound
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::workloads::LISTED {
            assert!(
                compact.contains(&format!("{{\"name\":\"{name}\",\"why\":")),
                "{name}"
            );
            assert!(crate::workloads::NAMES.contains(&name), "{name}");
        }
        let listed = compact.matches("{\"name\":").count();
        let contract = END_TO_END.iter().filter(|m| m.in_contract).count();
        assert_eq!(
            listed,
            contract + PER_LAYER.len() + crate::workloads::LISTED.len()
        );
    }
}
