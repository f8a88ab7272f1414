//! Golden fingerprints of whole PageRank runs.
//!
//! The constants were computed on the commit *before* the remote path
//! started moving per-destination runs (per-destination emitter buffers,
//! run-filled aggregator bundles, owner-grouped adjacency), so a pass here
//! means that rewrite changed no `rank`/`residue` bit and no simulated
//! quantity.
//!
//! The `sim_events` column alone was re-pinned when arrivals stopped being
//! engine events (receive lanes, DESIGN.md §4.7): it counts engine pops,
//! and an arrival whose receiver has a step coming no longer causes one. Every
//! other column is still the parent's.
//!
//! To re-capture after an *intentional* model change:
//! `cargo test -p atos-apps --test pagerank_golden -- --nocapture`
//! prints every row before asserting.

use std::sync::Arc;

use atos_apps::pagerank::PrTask;
use atos_apps::PageRankApp;
use atos_core::{AtosConfig, CommMode, Runtime};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_sim::Fabric;

/// FNV-1a over the bit patterns of `rank` then `residue`.
fn fingerprint(app: &PageRankApp) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in app.rank.iter().chain(&app.residue) {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `[fingerprint, elapsed_ns, sim_events, messages, wire_bytes,
/// agg_flushes, agg_flushes_size, agg_flushes_age]`.
type Row = [u64; 8];

fn cases() -> Vec<(&'static str, Fabric, AtosConfig)> {
    let eager = AtosConfig {
        comm: CommMode::Aggregated {
            batch_bytes: 4096,
            wait_time: 4,
        },
        ..AtosConfig::ib_pagerank()
    };
    vec![
        (
            "daisy4/persistent",
            Fabric::daisy(4),
            AtosConfig::standard_persistent(),
        ),
        (
            "daisy4/discrete",
            Fabric::daisy(4),
            AtosConfig::standard_discrete(),
        ),
        (
            "ib8/ib_pagerank",
            Fabric::ib_cluster(8),
            AtosConfig::ib_pagerank(),
        ),
        ("ib4/wait4", Fabric::ib_cluster(4), eager),
    ]
}

/// The row and the run's `peak_pending_events`.
fn run(fabric: Fabric, cfg: AtosConfig) -> (Row, u64) {
    let g = Arc::new(
        Preset::by_name("soc-LiveJournal1_s")
            .unwrap()
            .build(Scale::Tiny),
    );
    let part = Arc::new(Partition::random(g.n_vertices(), fabric.n_pes(), 7));
    let app = PageRankApp::new(g, part.clone(), 0.85, 1e-6);
    let mut rt = Runtime::new(app, fabric, cfg);
    for pe in 0..part.n_parts() {
        rt.seed(pe, part.vertices_of(pe).into_iter().map(PrTask::Relax));
    }
    let s = rt.run();
    let row = [
        fingerprint(rt.app()),
        s.elapsed_ns,
        s.sim_events,
        s.messages,
        s.wire_bytes,
        s.agg_flushes,
        s.agg_flushes_size,
        s.agg_flushes_age,
    ];
    (row, s.peak_pending_events)
}

#[test]
fn pagerank_runs_match_parent_commit_fingerprints() {
    let mut got: Vec<(String, Row)> = Vec::new();
    for (name, fabric, cfg) in cases() {
        let n_pes = fabric.n_pes() as u64;
        let (row, peak) = run(fabric, cfg);
        // The bound that makes a binary heap enough for the engine: per PE,
        // at most its `step_scheduled` step, its `agg_poll_scheduled` poll
        // and one belled doorbell per lane head (`Rx::ring_next`) are
        // pending. Per-message engine events would break it.
        assert!(peak <= n_pes * (n_pes + 2), "{name}: {peak} pending events");
        println!("    (\"{name}/1\", {row:?}),");
        got.push((format!("{name}/1"), row));
    }
    let golden: Vec<_> = GOLDEN.iter().map(|&(n, r)| (n.to_string(), r)).collect();
    assert_eq!(got, golden);
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("daisy4/persistent/1", [7756162498593278328, 1310640, 444, 16880, 4720384, 0, 0, 0]),
    ("daisy4/discrete/1", [16168691235436804750, 2754779, 382, 15260, 4269712, 0, 0, 0]),
    ("ib8/ib_pagerank/1", [6608448951903192120, 4212114, 6480, 4179, 26835540, 4179, 0, 4179]),
    ("ib4/wait4/1", [15842192610460789458, 1926787, 1958, 2391, 11884036, 2391, 542, 1849]),
];
