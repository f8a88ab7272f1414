//! Delta-stepping at the ends of `delta`'s range.
//!
//! `run_sssp_delta` on a scale-free and a road preset at `delta` = 0 (which
//! construction raises to 1), 1, 8, the largest weight, one past it and
//! `u64::MAX`, on priority buckets and on a FIFO queue. Every run must equal
//! `dijkstra`. From the largest weight on, no edge is heavy: every row is all
//! light and no vertex ever schedules a heavy co-task, so on the FIFO queue,
//! where `delta` sets no order, the three runs must agree on every `RunStats`
//! field. (Buckets of another width order tasks differently, so on priority
//! buckets they need not.)
//!
//! Each configuration also runs unsplit (`run_sssp`): its full tasks walk
//! every row through the same weight test as a heavy task, and they are the
//! ones that meet it at `u64::MAX` (a split run then has no heavy task). The
//! test compares in 64 bits as `wt ≤ delta`; spelt `wt ≥ delta + 1` it
//! overflows there, which a debug build stops on.
use std::sync::Arc;

use atos_apps::sssp::{run_sssp, run_sssp_delta};
use atos_core::AtosConfig;
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::weights::{dijkstra, EdgeWeights};
use atos_sim::Fabric;

#[test]
fn every_delta_is_exact_and_no_heavy_edge_means_one_schedule() {
    for preset in ["twitter_s", "road_usa_s"] {
        let p = Preset::by_name(preset).expect("a preset");
        let g = Arc::new(p.build(Scale::Tiny));
        let w = Arc::new(EdgeWeights::random(&g, 64, 1));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::random(g.n_vertices(), 4, 7));
        let exact = dijkstra(&g, &w, src);
        let max = w.max() as u64;
        let mut all_light = Vec::new();
        for delta in [0, 1, 8, max, max + 1, u64::MAX] {
            for (fifo, split) in [(false, false), (false, true), (true, false), (true, true)] {
                let cfg = match fifo {
                    false => AtosConfig::priority_discrete(),
                    true => AtosConfig::standard_persistent(),
                };
                let go = if split { run_sssp_delta } else { run_sssp };
                let (g, w, part) = (g.clone(), w.clone(), part.clone());
                let run = go(g, w, part, src, delta, Fabric::daisy(4), cfg);
                assert_eq!(
                    run.dist, exact,
                    "{preset}, delta {delta}, fifo {fifo}, split {split}"
                );
                if fifo && split && delta >= max {
                    all_light.push((delta, format!("{:?}", run.stats)));
                }
            }
        }
        let (first, stats) = &all_light[0];
        for (delta, other) in &all_light[1..] {
            assert_eq!(other, stats, "{preset}: delta {delta} vs {first}");
        }
    }
}
