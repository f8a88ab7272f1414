//! Golden fingerprints of whole SSSP runs.
//!
//! The constants were captured on the commit *before* delta-stepping got
//! light rows and the per-PE view (`LightEdges`, DESIGN.md §4.9), so a pass
//! here means that rewrite moved no distance and no simulated quantity —
//! split and unsplit, FIFO and priority buckets, direct and aggregated.
//!
//! To re-capture after an *intentional* model change:
//! `cargo test -p atos-apps --test sssp_golden -- --nocapture`
//! prints every row before asserting.

use std::sync::Arc;

use atos_apps::sssp::{KIND_FULL, KIND_LIGHT};
use atos_apps::SsspApp;
use atos_core::{AtosConfig, CommMode, Runtime};
use atos_graph::csr::Csr;
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::weights::{dijkstra, EdgeWeights};
use atos_sim::Fabric;

const MAX_WEIGHT: u32 = 64;
const DELTA: u64 = 8;

/// FNV-1a over the distances.
fn fingerprint(dist: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in dist.iter().flat_map(|d| d.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// `[elapsed_ns, sim_events, total_tasks, total_edges, messages,
/// wire_bytes, remote_tasks, queue_hwm, fnv(dist)]`.
type Row = [u64; 9];

fn cases() -> Vec<(&'static str, Fabric, AtosConfig)> {
    let aggregated = |base: AtosConfig| AtosConfig {
        comm: CommMode::Aggregated {
            batch_bytes: 4096,
            wait_time: 4,
        },
        ..base
    };
    let (fifo, prio) = (AtosConfig::standard_persistent(), AtosConfig::priority_discrete());
    vec![
        ("daisy4/persistent", Fabric::daisy(4), fifo),
        ("daisy4/priority", Fabric::daisy(4), prio),
        ("ib8/persistent", Fabric::ib_cluster(8), aggregated(fifo)),
        ("ib8/priority", Fabric::ib_cluster(8), aggregated(prio)),
    ]
}

struct Input {
    graph: Arc<Csr>,
    weights: Arc<EdgeWeights>,
    source: u32,
    exact: Vec<u64>,
}

fn input(preset: &str) -> Input {
    let p = Preset::by_name(preset).unwrap();
    let graph = Arc::new(p.build(Scale::Tiny));
    let weights = Arc::new(EdgeWeights::random(&graph, MAX_WEIGHT, 1));
    let source = p.bfs_source(&graph);
    let exact = dijkstra(&graph, &weights, source);
    Input { graph, weights, source, exact }
}

/// The row and the run's `peak_pending_events`.
fn run(input: &Input, split: bool, fabric: Fabric, cfg: AtosConfig) -> (Row, u64) {
    let (g, w, src) = (input.graph.clone(), input.weights.clone(), input.source);
    let part = Arc::new(Partition::random(g.n_vertices(), fabric.n_pes(), 7));
    let (app, kind) = if split {
        (SsspApp::new_split(g, w, part.clone(), src, DELTA), KIND_LIGHT)
    } else {
        (SsspApp::new(g, w, part.clone(), src, DELTA), KIND_FULL)
    };
    let mut rt = Runtime::new(app, fabric, cfg);
    rt.seed(part.owner(src), [(src, 0u64, kind)]);
    let s = rt.run();
    let dist = rt.into_app().dist;
    assert_eq!(dist, input.exact, "distances must be exact");
    let row = [
        s.elapsed_ns,
        s.sim_events,
        s.total_tasks(),
        s.total_edges(),
        s.messages,
        s.wire_bytes,
        s.remote_tasks,
        s.queue_hwm_per_pe.iter().copied().max().unwrap_or(0),
        fingerprint(&dist),
    ];
    (row, s.peak_pending_events)
}

#[test]
fn sssp_runs_match_parent_commit_fingerprints() {
    let mut got: Vec<(String, Row)> = Vec::new();
    for preset in ["twitter_s", "road_usa_s"] {
        let input = input(preset);
        for (mode, split) in [("new", false), ("new_split", true)] {
            for (name, fabric, cfg) in cases() {
                let n_pes = fabric.n_pes() as u64;
                let (row, peak) = run(&input, split, fabric, cfg);
                // The bound that makes a binary heap enough for the engine:
                // per PE, at most its `step_scheduled` step, its
                // `agg_poll_scheduled` poll and one belled doorbell per lane
                // head (`Rx::ring_next`) are pending. Per-message engine
                // events would break it.
                let id = format!("{preset}/{mode}/{name}/1");
                assert!(peak <= n_pes * (n_pes + 2), "{id}: {peak} pending events");
                println!("    (\"{id}\", {row:?}),");
                got.push((id, row));
            }
        }
    }
    let golden: Vec<_> = GOLDEN.iter().map(|&(n, r)| (n.to_string(), r)).collect();
    assert_eq!(got, golden);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("twitter_s/new/daisy4/persistent/1", [203966, 59, 7901, 236365, 531, 209200, 15330, 1046, 1286837142196524013]),
    ("twitter_s/new/daisy4/priority/1", [743222, 82, 4845, 157556, 352, 123024, 8879, 1014, 1286837142196524013]),
    ("twitter_s/new/ib8/persistent/1", [279278, 733, 7180, 196077, 533, 650172, 25748, 343, 1286837142196524013]),
    ("twitter_s/new/ib8/priority/1", [806000, 730, 4927, 150715, 705, 423468, 15882, 551, 1286837142196524013]),
    ("twitter_s/new_split/daisy4/persistent/1", [166807, 73, 6415, 66912, 323, 129280, 8486, 814, 1286837142196524013]),
    ("twitter_s/new_split/daisy4/priority/1", [601680, 122, 4520, 51894, 276, 92688, 5986, 572, 1286837142196524013]),
    ("twitter_s/new_split/ib8/persistent/1", [217568, 773, 8127, 81901, 628, 493668, 17538, 416, 1286837142196524013]),
    ("twitter_s/new_split/ib8/priority/1", [657634, 896, 4589, 54535, 715, 323258, 10783, 298, 1286837142196524013]),
    ("road_usa_s/new/daisy4/persistent/1", [130864, 736, 33815, 116889, 3026, 842720, 58982, 140, 14913478705938353580]),
    ("road_usa_s/new/daisy4/priority/1", [3868762, 872, 2922, 10205, 1901, 117744, 4598, 45, 14913478705938353580]),
    ("road_usa_s/new/ib8/persistent/1", [707631, 6016, 24659, 85264, 3318, 1538232, 55798, 85, 14913478705938353580]),
    ("road_usa_s/new/ib8/priority/1", [3786880, 5967, 3192, 11159, 4423, 424524, 6631, 26, 14913478705938353580]),
    ("road_usa_s/new_split/daisy4/persistent/1", [169706, 973, 35916, 59028, 2635, 542208, 32547, 106, 14913478705938353580]),
    ("road_usa_s/new_split/daisy4/priority/1", [6848166, 1546, 5162, 8298, 2116, 128400, 4539, 42, 14913478705938353580]),
    ("road_usa_s/new_split/ib8/persistent/1", [658589, 9767, 50101, 82796, 4051, 1832986, 61151, 57, 14913478705938353580]),
    ("road_usa_s/new_split/ib8/priority/1", [6236035, 7327, 5355, 8579, 4615, 440362, 6287, 24, 14913478705938353580]),
];
