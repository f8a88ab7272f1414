//! Cross-crate integration: every scheduler, every fabric, same answers.
//!
//! These tests exercise the full stack — generators → partitioners →
//! simulator → runtime/baselines → reference validation — at test scale.

use std::sync::Arc;

use atos::apps::bfs::run_bfs;
use atos::apps::cc::run_cc;
use atos::apps::pagerank::run_pagerank;
use atos::apps::sssp::{run_sssp, run_sssp_delta};
use atos::baselines::{bsp_bfs, bsp_pagerank, galois_bfs, galois_pagerank, groute_bfs, groute_pagerank};
use atos::core::{AtosConfig, LoadBalance};
use atos::graph::generators::{Preset, Scale};
use atos::graph::partition::Partition;
use atos::graph::reference;
use atos::graph::weights::{dijkstra, EdgeWeights};
use atos::sim::Fabric;

const ALPHA: f64 = 0.85;
const EPS: f64 = 1e-6;

/// Every framework on every preset agrees with serial BFS (4 GPUs,
/// NVLink for the single-node frameworks, IB for Galois).
#[test]
fn all_frameworks_agree_on_bfs() {
    for p in Preset::ALL {
        let g = Arc::new(p.build(Scale::Tiny));
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 4, 11));
        let want = reference::bfs(&g, src);

        let gunrock = bsp_bfs(g.clone(), part.clone(), src, Fabric::daisy(4));
        assert_eq!(gunrock.depth, want, "Gunrock {}", p.name);

        let groute = groute_bfs(g.clone(), part.clone(), src, Fabric::daisy(4));
        assert_eq!(groute.depth, want, "Groute {}", p.name);

        let galois = galois_bfs(g.clone(), part.clone(), src, Fabric::ib_cluster(4));
        assert_eq!(galois.depth, want, "Galois {}", p.name);

        for cfg in [
            AtosConfig::standard_persistent(),
            AtosConfig::priority_discrete(),
            AtosConfig::ib_bfs(),
        ] {
            let fabric = match cfg.comm {
                atos::core::CommMode::Aggregated { .. } => Fabric::ib_cluster(4),
                _ => Fabric::daisy(4),
            };
            let run = run_bfs(g.clone(), part.clone(), src, fabric, cfg);
            assert_eq!(run.depth, want, "Atos {:?} {}", cfg.label(), p.name);
        }
    }
}

/// Every framework converges PageRank to the same fixed point.
#[test]
fn all_frameworks_agree_on_pagerank() {
    let p = Preset::by_name("soc-LiveJournal1_s").unwrap();
    let g = Arc::new(p.build(Scale::Tiny));
    let part = Arc::new(Partition::bfs_grow(&g, 4, 12));
    let want = reference::pagerank_push(&g, ALPHA, EPS).rank;
    let n = g.n_vertices() as f64;
    let check = |rank: &[f64], who: &str| {
        let err = reference::rank_l1(rank, &want) / n;
        assert!(err < 1e-3, "{who}: per-vertex L1 {err}");
    };

    check(
        &bsp_pagerank(g.clone(), part.clone(), ALPHA, EPS, Fabric::daisy(4)).rank,
        "Gunrock",
    );
    check(
        &groute_pagerank(g.clone(), part.clone(), ALPHA, EPS, Fabric::daisy(4)).rank,
        "Groute",
    );
    check(
        &galois_pagerank(g.clone(), part.clone(), ALPHA, EPS, Fabric::ib_cluster(4)).rank,
        "Galois",
    );
    check(
        &run_pagerank(
            g.clone(),
            part.clone(),
            ALPHA,
            EPS,
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        )
        .rank,
        "Atos persistent",
    );
    check(
        &run_pagerank(
            g.clone(),
            part,
            ALPHA,
            EPS,
            Fabric::ib_cluster(4),
            AtosConfig::ib_pagerank(),
        )
        .rank,
        "Atos IB aggregated",
    );
}

/// Work stealing moves busy time between PEs, never answers: every
/// application stays exact under `LoadBalance::Steal` on a scale-free and
/// a mesh graph, on FIFO and priority queues, and a rerun repeats bit for
/// bit.
#[test]
fn stealing_preserves_every_applications_answer() {
    // Steals seen per queue kind (FIFO, priority).
    let mut steals = [0u64; 2];
    for name in ["soc-LiveJournal1_s", "road_usa_s"] {
        let p = Preset::by_name(name).unwrap();
        let g = Arc::new(p.build(Scale::Tiny));
        let sym = Arc::new(g.symmetrize());
        let src = p.bfs_source(&g);
        let part = Arc::new(Partition::bfs_grow(&g, 4, 11));
        let weights = Arc::new(EdgeWeights::random(&g, 16, 9));
        let fabric = || Fabric::daisy(4);
        let want_depth = reference::bfs(&g, src);
        let want_dist = dijkstra(&g, &weights, src);
        let want_rank = reference::pagerank_push(&g, ALPHA, EPS).rank;
        let bases = [AtosConfig::standard_persistent(), AtosConfig::priority_discrete()];
        for (queue_kind, base) in bases.into_iter().enumerate() {
            let cfg = base.with_lb(LoadBalance::Steal);
            let want_label = run_cc(sym.clone(), part.clone(), fabric(), base).label;
            let what = format!("{name} {}", cfg.label());
            // One pass over the five applications: their answers and the
            // schedule each ran.
            let pass = || {
                let bfs = run_bfs(g.clone(), part.clone(), src, fabric(), cfg);
                let sssp =
                    run_sssp(g.clone(), weights.clone(), part.clone(), src, 4, fabric(), cfg);
                let delta =
                    run_sssp_delta(g.clone(), weights.clone(), part.clone(), src, 4, fabric(), cfg);
                let cc = run_cc(sym.clone(), part.clone(), fabric(), cfg);
                let pr = run_pagerank(g.clone(), part.clone(), ALPHA, EPS, fabric(), cfg);
                let schedule = [&bfs.stats, &sssp.stats, &delta.stats, &cc.stats, &pr.stats]
                    .map(|s| (s.elapsed_ns, s.lb_steals, s.lb_stolen_tasks, s.total_tasks()));
                (bfs.depth, sssp.dist, delta.dist, cc.label, pr.rank, schedule)
            };
            let first = pass();
            assert_eq!(first.0, want_depth, "BFS {what}");
            assert_eq!(first.1, want_dist, "SSSP {what}");
            assert_eq!(first.2, want_dist, "delta-split SSSP {what}");
            assert_eq!(first.3, want_label, "CC vs the owner run {what}");
            let err = reference::rank_l1(&first.4, &want_rank) / g.n_vertices() as f64;
            assert!(err < 1e-3, "PageRank {what}: per-vertex L1 {err}");
            assert!(pass() == first, "{what}: a rerun is not bit-identical");
            steals[queue_kind] += first.5.iter().map(|f| f.1).sum::<u64>();
        }
    }
    assert!(
        steals.iter().all(|&n| n > 0),
        "a queue kind never stole (FIFO, priority: {steals:?}): the test is vacuous"
    );
}

/// The paper's headline qualitative results hold at test scale.
#[test]
fn paper_shapes_hold() {
    // 1. Mesh BFS: Atos-persistent beats the BSP baseline badly.
    let p = Preset::by_name("osm_eur_s").unwrap();
    let g = Arc::new(p.build(Scale::Tiny));
    let src = p.bfs_source(&g);
    let part = Arc::new(Partition::bfs_grow(&g, 4, 1));
    let bsp = bsp_bfs(g.clone(), part.clone(), src, Fabric::daisy(4));
    let atos = run_bfs(
        g.clone(),
        part.clone(),
        src,
        Fabric::daisy(4),
        AtosConfig::standard_persistent(),
    );
    assert!(
        atos.stats.elapsed_ns * 3 < bsp.stats.elapsed_ns,
        "mesh: Atos {} ms vs BSP {} ms",
        atos.stats.elapsed_ms(),
        bsp.stats.elapsed_ms()
    );

    // 2. Gunrock anti-scales on mesh BFS; Atos does not degrade as much.
    let single = Arc::new(Partition::single(g.n_vertices()));
    let bsp1 = bsp_bfs(g.clone(), single.clone(), src, Fabric::daisy(1));
    assert!(
        bsp.stats.elapsed_ns > bsp1.stats.elapsed_ns,
        "BSP should slow down with more GPUs on mesh"
    );

    // 3. Atos communication is smoother (less bursty) than BSP's.
    if let (Some(ba), Some(bb)) = (atos.stats.burstiness, bsp.stats.burstiness) {
        assert!(ba < bb, "Atos burstiness {ba} vs BSP {bb}");
    }

    // 4. On IB, Galois pays for bulk rounds: slower than Atos on mesh.
    let galois = galois_bfs(g.clone(), part.clone(), src, Fabric::ib_cluster(4));
    let atos_ib = run_bfs(
        g.clone(),
        part,
        src,
        Fabric::ib_cluster(4),
        AtosConfig::ib_bfs(),
    );
    assert!(
        atos_ib.stats.elapsed_ns < galois.stats.elapsed_ns,
        "IB mesh: Atos {} ms vs Galois {} ms",
        atos_ib.stats.elapsed_ms(),
        galois.stats.elapsed_ms()
    );
}

/// Facade re-exports are usable as documented in the README.
#[test]
fn facade_paths_compile_and_run() {
    let g = Arc::new(atos::graph::generators::grid_2d(8, 8));
    let part = Arc::new(atos::graph::Partition::single(g.n_vertices()));
    let run = atos::apps::bfs::run_bfs(
        g,
        part,
        0,
        atos::sim::Fabric::daisy(1),
        atos::core::AtosConfig::standard_persistent(),
    );
    assert_eq!(run.reachable, 64);
}
