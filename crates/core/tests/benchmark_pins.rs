//! The residue names the frozen `benchmark/` package compiles against: the
//! four of `crates/core/src/sharded.rs` (`ShardableApp`,
//! `Runtime::run_sharded`, `Runtime::take_shard_profile` and `ShardProfile`
//! with its `ShardTelemetry`) and the two always-zero steal counters
//! `RunStats::{lb_steals, lb_stolen_tasks}`. `cargo test --workspace` does
//! not build `benchmark/`, so a pin that breaks fails here and not only in
//! `verify.sh`'s frozen-benchmark stage. Deleted together with the residue.

use atos_core::{
    Application, AtosConfig, Emitter, Runtime, ShardProfile, ShardTelemetry, ShardableApp,
};
use atos_sim::Fabric;

/// A task `(hops, id)` on PE `pe` sends `fan` leaves around the ring and
/// forwards itself to the next PE until its hops run out.
struct Ring {
    n_pes: usize,
    fan: u32,
    received: Vec<u64>,
}

impl Application for Ring {
    type Task = (u32, u32);

    fn process(&mut self, pe: usize, (hops, id): (u32, u32), out: &mut Emitter<(u32, u32)>) {
        if hops == 0 {
            return;
        }
        for i in 0..self.fan {
            out.push(
                (pe + 1 + i as usize % (self.n_pes - 1)) % self.n_pes,
                (0, id + i),
            );
        }
        out.push((pe + 1) % self.n_pes, (hops - 1, id + self.fan));
    }

    fn on_receive(&mut self, pe: usize, task: (u32, u32)) -> Option<(u32, u32)> {
        self.received[pe] += task.1 as u64;
        Some(task)
    }

    fn task_edges(&self, _t: &(u32, u32)) -> u64 {
        1
    }
}

impl ShardableApp for Ring {}

fn ring(fabric: &Fabric, cfg: AtosConfig) -> Runtime<Ring> {
    let n_pes = fabric.n_pes();
    let app = Ring {
        n_pes,
        fan: 40,
        received: vec![0; n_pes],
    };
    let mut rt = Runtime::new(app, fabric.clone(), cfg);
    rt.seed(0, [(60u32, 0u32)]);
    rt
}

/// What `benchmark/src/single.rs` reads from a profile, spelled as it
/// spells it.
fn read(p: &ShardProfile) -> (u64, f64, f64) {
    let windows = p
        .shards
        .iter()
        .map(|s: &ShardTelemetry| s.windows)
        .max()
        .unwrap_or(0);
    (windows, p.barrier_frac(), p.imbalance_ratio())
}

#[test]
fn run_sharded_is_run_and_collects_no_profile() {
    for (name, fabric, cfg) in [
        (
            "direct",
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        ),
        (
            "aggregated",
            Fabric::ib_cluster(4),
            AtosConfig::ib_pagerank(),
        ),
    ] {
        let mut rt = ring(&fabric, cfg);
        let stats = rt.run();
        // What `benchmark/src/single.rs` reads as `core.lb_steals` and
        // `core.lb_stolen_tasks`: nothing is ever stolen.
        assert_eq!((stats.lb_steals, stats.lb_stolen_tasks), (0, 0), "{name}");
        let want = format!("{stats:?}");
        let answer = rt.into_app().received;
        assert!(answer.iter().all(|&r| r > 0), "{name}: every PE received");
        for k in [1, 2, 4] {
            let mut rt = ring(&fabric, cfg);
            assert_eq!(format!("{:?}", rt.run_sharded(k)), want, "{name}, k = {k}");
            assert!(
                rt.take_shard_profile().as_ref().map(read).is_none(),
                "{name}, k = {k}"
            );
            assert_eq!(rt.into_app().received, answer, "{name}, k = {k}");
        }
    }
}
