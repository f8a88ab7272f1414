//! Golden schedule of `run_bsp`, field by field.
//!
//! BFS and PageRank under the bulk-synchronous schedule on a tiny preset at
//! 2 and 4 PEs. Each row pins what the schedule decides — supersteps,
//! messages, remote tasks, wire bytes and virtual time — so a change to how
//! a superstep's runs leave the emitter, cross the barrier or are merged
//! shows here by name, not as a moved table cell.
//!
//! To re-capture after an *intentional* model change:
//! `cargo test -p atos-baselines --test bsp_golden -- --nocapture` prints
//! every row before asserting.

use std::sync::Arc;

use atos_baselines::bsp::{bsp_bfs, bsp_pagerank, BspRun};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_sim::Fabric;

/// One run's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    supersteps: u32,
    messages: u64,
    remote_tasks: u64,
    wire_bytes: u64,
    virtual_ns: u64,
}

impl Row {
    fn of(run: &BspRun) -> Self {
        Row {
            supersteps: run.iterations,
            messages: run.stats.messages,
            remote_tasks: run.stats.remote_tasks,
            wire_bytes: run.stats.wire_bytes,
            virtual_ns: run.stats.elapsed_ns,
        }
    }
}

fn run(app: &str, n_pes: usize) -> Row {
    let preset = Preset::by_name("soc-LiveJournal1_s").unwrap();
    let g = Arc::new(preset.build(Scale::Tiny));
    let part = Arc::new(Partition::random(g.n_vertices(), n_pes, 7));
    let fabric = Fabric::daisy(n_pes);
    let run = match app {
        "bfs" => bsp_bfs(g.clone(), part, preset.bfs_source(&g), fabric),
        "pagerank" => bsp_pagerank(g, part, 0.85, 1e-6, fabric),
        _ => unreachable!("no case runs {app}"),
    };
    Row::of(&run)
}

#[test]
fn bsp_schedule_is_pinned_field_by_field() {
    let mut got = Vec::new();
    for app in ["bfs", "pagerank"] {
        for n_pes in [2, 4] {
            let row = run(app, n_pes);
            println!("    (\"{app}\", {n_pes}, {row:?}),");
            got.push((app, n_pes, row));
        }
    }
    assert_eq!(got, GOLDEN);
}

/// Captured before the emitter's remote runs became pooled chunks.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, Row)] = &[
    ("bfs", 2, Row { supersteps: 4, messages: 5, remote_tasks: 653, wire_bytes: 6000, virtual_ns: 264921 }),
    ("bfs", 4, Row { supersteps: 4, messages: 29, remote_tasks: 1533, wire_bytes: 14400, virtual_ns: 294006 }),
    ("pagerank", 2, Row { supersteps: 85, messages: 167, remote_tasks: 268239, wire_bytes: 2417648, virtual_ns: 7275302 }),
    ("pagerank", 4, Row { supersteps: 88, messages: 1017, remote_tasks: 447801, wire_bytes: 4049856, virtual_ns: 7526694 }),
];
