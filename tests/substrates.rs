//! Integration tests for the supporting substrates through the facade:
//! file IO round trips, owner-grouped sharding, weighted SSSP on the
//! simulator, the host backend and the worker cost models.

use std::sync::Arc;

use atos::apps::host_bfs::host_bfs;
use atos::apps::sssp::run_sssp;
use atos::core::AtosConfig;
use atos::graph::generators::{rmat, road_network, Preset, Scale};
use atos::graph::grouped::OwnerGrouped;
use atos::graph::io::{read_dimacs, read_matrix_market, write_dimacs, write_matrix_market};
use atos::graph::partition::Partition;
use atos::graph::reference;
use atos::graph::weights::{dijkstra, EdgeWeights};
use atos::sim::Fabric;

#[test]
fn io_roundtrip_through_files() {
    let g = rmat(9, 3000, (0.57, 0.19, 0.19, 0.05), 12);
    let dir = std::env::temp_dir().join("atos-io-test");
    std::fs::create_dir_all(&dir).unwrap();

    let mm = dir.join("graph.mtx");
    write_matrix_market(&g, std::fs::File::create(&mm).unwrap()).unwrap();
    let back = read_matrix_market(std::fs::File::open(&mm).unwrap()).unwrap();
    assert_eq!(back, g);

    let gr = dir.join("graph.gr");
    write_dimacs(&g, std::fs::File::create(&gr).unwrap()).unwrap();
    let back = read_dimacs(std::fs::File::open(&gr).unwrap()).unwrap();
    assert_eq!(back, g);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn imported_graph_runs_the_full_pipeline() {
    // Export a preset, reimport it, shard it, BFS it on the simulator and
    // on the host backend — all answers agree.
    let p = Preset::by_name("hollywood_2009_s").unwrap();
    let g0 = p.build(Scale::Tiny);
    let mut buf = Vec::new();
    write_matrix_market(&g0, &mut buf).unwrap();
    let g = Arc::new(read_matrix_market(&buf[..]).unwrap());
    assert_eq!(*g, g0);

    let part = Arc::new(Partition::bfs_grow(&g, 3, 4));
    let adj = OwnerGrouped::build(&g, &part);
    assert!((0..g.n_vertices() as u32).all(|v| adj.degree(v) == g.degree(v)));

    let src = p.bfs_source(&g);
    let want = reference::bfs(&g, src);
    let sim = atos::apps::bfs::run_bfs(
        g.clone(),
        part.clone(),
        src,
        Fabric::daisy(3),
        AtosConfig::standard_persistent(),
    );
    assert_eq!(sim.depth, want);
    let host = host_bfs(g, part, src, None);
    assert_eq!(host.depth, want);
}

#[test]
fn weighted_sssp_on_ib_with_aggregator() {
    let g = Arc::new(road_network(40, 40, 6));
    let w = Arc::new(EdgeWeights::random(&g, 32, 2));
    let part = Arc::new(Partition::block(g.n_vertices(), 4));
    let run = run_sssp(
        g.clone(),
        w.clone(),
        part,
        0,
        8,
        Fabric::ib_cluster(4),
        AtosConfig::ib_bfs(),
    );
    assert_eq!(run.dist, dijkstra(&g, &w, 0));
    assert!(run.stats.messages > 0, "aggregated bundles flowed");
}

#[test]
fn worker_cost_models_order_correctly() {
    use atos::core::{WorkerConfig, WorkerSize};
    let thread = WorkerConfig {
        size: WorkerSize::Thread,
        fetch: 1,
        num_workers: 160,
    }
    .cost_model();
    let warp = WorkerConfig {
        size: WorkerSize::Warp,
        fetch: 32,
        num_workers: 160,
    }
    .cost_model();
    let cta = WorkerConfig::cta512().cost_model();
    assert!(thread.edge_ns > warp.edge_ns);
    assert!(warp.edge_ns > cta.edge_ns);
}

/// Every configuration the tables run prices its steps as the V100 model
/// does, field for field: deriving the cost model from the configuration
/// moved no virtual time.
#[test]
fn every_preset_and_baseline_prices_steps_as_the_v100() {
    use atos::baselines::{galois_config, groute_config};
    use atos::sim::GpuCostModel;
    let g = road_network(8, 8, 1);
    for cfg in [
        AtosConfig::standard_persistent(),
        AtosConfig::priority_discrete(),
        AtosConfig::standard_discrete(),
        AtosConfig::ib_bfs(),
        AtosConfig::ib_pagerank(),
        groute_config(),
        galois_config(&g),
    ] {
        assert_eq!(cfg.worker.cost_model(), GpuCostModel::v100(), "{cfg:?}");
    }
}
