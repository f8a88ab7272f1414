//! Cross-crate integration: the paper's headline shapes at test scale, and
//! the facade paths the README documents. Exactness across configurations
//! is `tests/differential.rs`'s.

use std::sync::Arc;

use atos::apps::bfs::run_bfs;
use atos::baselines::{bsp_bfs, galois_config};
use atos::core::AtosConfig;
use atos::graph::generators::{Preset, Scale};
use atos::graph::partition::Partition;
use atos::sim::Fabric;

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
    let galois = run_bfs(
        g.clone(),
        part.clone(),
        src,
        Fabric::ib_cluster(4),
        galois_config(&g),
    );
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
