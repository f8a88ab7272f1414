//! Whole-stack determinism: a run is a pure function of its inputs.
//!
//! The DESIGN.md guarantee — (time, sequence)-ordered events, seeded
//! generators — means two identical configurations must produce
//! byte-identical results, and *different* seeds must actually change the
//! inputs.

use std::sync::Arc;

use atos::apps::bfs::run_bfs;
use atos::apps::pagerank::run_pagerank;
use atos::core::{AtosConfig, LoadBalance};
use atos::graph::generators::{rmat, Preset, Scale};
use atos::graph::partition::Partition;
use atos::sim::Fabric;

#[test]
fn identical_runs_are_bit_identical() {
    let p = Preset::by_name("twitter_s").unwrap();
    let g = Arc::new(p.build(Scale::Tiny));
    let src = p.bfs_source(&g);
    let part = Arc::new(Partition::random(g.n_vertices(), 4, 3));
    let go = |cfg: AtosConfig, fabric: Fabric| run_bfs(g.clone(), part.clone(), src, fabric, cfg);

    for cfg in [
        AtosConfig::standard_persistent(),
        AtosConfig::priority_discrete(),
    ] {
        let a = go(cfg, Fabric::daisy(4));
        let b = go(cfg, Fabric::daisy(4));
        assert_eq!(a.stats.elapsed_ns, b.stats.elapsed_ns);
        assert_eq!(a.stats.messages, b.stats.messages);
        assert_eq!(a.stats.payload_bytes, b.stats.payload_bytes);
        assert_eq!(a.stats.tasks_per_pe, b.stats.tasks_per_pe);
        assert_eq!(a.depth, b.depth);
    }

    let a = go(AtosConfig::ib_bfs(), Fabric::ib_cluster(4));
    let b = go(AtosConfig::ib_bfs(), Fabric::ib_cluster(4));
    assert_eq!(a.stats.elapsed_ns, b.stats.elapsed_ns);
    assert_eq!(a.stats.wire_bytes, b.stats.wire_bytes);
}

#[test]
fn pagerank_runs_are_bit_identical() {
    let g = Arc::new(rmat(9, 4000, (0.57, 0.19, 0.19, 0.05), 1));
    let part = Arc::new(Partition::bfs_grow(&g, 3, 2));
    let go = || {
        run_pagerank(
            g.clone(),
            part.clone(),
            0.85,
            1e-6,
            Fabric::daisy(3),
            AtosConfig::standard_persistent(),
        )
    };
    let a = go();
    let b = go();
    assert_eq!(a.rank, b.rank, "float results identical, not just close");
    assert_eq!(a.stats.elapsed_ns, b.stats.elapsed_ns);
}

#[test]
fn seeds_change_graphs_but_not_invariants() {
    let a = rmat(10, 8000, (0.57, 0.19, 0.19, 0.05), 1);
    let b = rmat(10, 8000, (0.57, 0.19, 0.19, 0.05), 2);
    assert_ne!(a, b, "different seeds → different graphs");
    assert_eq!(a.n_vertices(), b.n_vertices());

    // Partitions are seed-deterministic too.
    let pa = Partition::bfs_grow(&a, 4, 7);
    let pb = Partition::bfs_grow(&a, 4, 7);
    assert_eq!(pa, pb);
    let pc = Partition::bfs_grow(&a, 4, 8);
    assert_ne!(pa, pc);
}

#[test]
fn gpu_count_changes_time_but_not_results() {
    let p = Preset::by_name("hollywood_2009_s").unwrap();
    let g = Arc::new(p.build(Scale::Tiny));
    let src = p.bfs_source(&g);
    let mut depths = Vec::new();
    for n in [1usize, 2, 3, 4] {
        let part = if n == 1 {
            Arc::new(Partition::single(g.n_vertices()))
        } else {
            Arc::new(Partition::bfs_grow(&g, n, 5))
        };
        let run = run_bfs(
            g.clone(),
            part,
            src,
            Fabric::daisy(n),
            AtosConfig::standard_persistent(),
        );
        depths.push(run.depth);
    }
    for d in &depths[1..] {
        assert_eq!(d, &depths[0]);
    }
}

/// `LoadBalance::Steal`'s schedule, pinned: `(elapsed_ns, lb_steals,
/// lb_stolen_tasks, total_tasks)` as captured on b6c9886, before the steal
/// policy moved into `loadbalance.rs` and a steal became one `pop_batch`.
/// On FIFO queues the two are the same schedule; a change here is a change
/// of policy, not a refactor.
#[test]
fn steal_schedule_is_pinned() {
    let cfg = AtosConfig::standard_persistent().with_lb(LoadBalance::Steal);
    let fingerprint = |s: &atos::core::RunStats| {
        (s.elapsed_ns, s.lb_steals, s.lb_stolen_tasks, s.total_tasks())
    };
    let bfs = |name: &str| {
        let p = Preset::by_name(name).unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let part = Arc::new(Partition::bfs_grow(&g, 4, 42));
        let src = p.bfs_source(&g);
        fingerprint(&run_bfs(g, part, src, Fabric::daisy(4), cfg).stats)
    };
    assert_eq!(bfs("soc-LiveJournal1_s"), (41621, 5, 97, 777));
    assert_eq!(bfs("road_usa_s"), (45701, 43, 219, 2571));

    let p = Preset::by_name("twitter_s").unwrap();
    let g = Arc::new(p.build(Scale::Tiny));
    let part = Arc::new(Partition::bfs_grow(&g, 4, 42));
    let pr = run_pagerank(g, part, 0.85, 1e-5, Fabric::daisy(4), cfg);
    assert_eq!(fingerprint(&pr.stats), (2822904, 118, 2953, 110796));
}
