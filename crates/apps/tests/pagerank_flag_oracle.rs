//! `PageRankApp` decides a push from the residue alone; the application it
//! replaced kept an explicit in-queue flag per vertex. [`FlaggedPageRank`]
//! is that application as it stood on the commit before (ee21d12: the flag,
//! the branchy per-edge loops, per-task receive and nothing else), and every
//! run here is made twice, once with each: every `RunStats` field, every
//! `rank` bit and every `residue` bit must agree.
//!
//! * whole runs, sampled from graphs × partitions × ε × configurations —
//!   including an ε above the starting residue `1 − α`, where nothing may
//!   run at all;
//! * single messages, `PageRankApp::on_receive_run` against the flagged
//!   per-task loop, on runs that hit one vertex many times.

use std::sync::Arc;

use proptest::prelude::*;

use atos_apps::pagerank::PrTask;
use atos_apps::PageRankApp;
use atos_core::{assert_owner, Application, AtosConfig, CommMode, Emitter, RunStats, Runtime};
use atos_graph::generators::{Preset, Scale};
use atos_graph::grouped::OwnerGrouped;
use atos_graph::partition::Partition;
use atos_graph::{Csr, VertexId};
use atos_sim::Fabric;

const ALPHA: f64 = 0.85;

/// The parent commit's `PageRankApp`, field for field and line for line.
struct FlaggedPageRank {
    adj: Arc<OwnerGrouped>,
    partition: Arc<Partition>,
    rank: Vec<f64>,
    residue: Vec<f64>,
    in_queue: Vec<bool>,
    alpha: f64,
    epsilon: f64,
}

impl FlaggedPageRank {
    fn new(graph: Arc<Csr>, partition: Arc<Partition>, alpha: f64, epsilon: f64) -> Self {
        let n = graph.n_vertices();
        assert_eq!(partition.n_vertices(), n);
        FlaggedPageRank {
            adj: Arc::new(OwnerGrouped::build(&graph, &partition)),
            partition,
            rank: vec![0.0; n],
            residue: vec![1.0 - alpha; n],
            in_queue: vec![true; n],
            alpha,
            epsilon,
        }
    }
}

impl Application for FlaggedPageRank {
    type Task = PrTask;

    fn process(&mut self, pe: usize, task: PrTask, out: &mut Emitter<PrTask>) {
        let v = match task {
            PrTask::Relax(v) => v,
            PrTask::Contrib(..) => unreachable!("contributions are applied in on_receive"),
        };
        debug_assert_eq!(self.partition.owner(v), pe);
        self.in_queue[v as usize] = false;
        let r = self.residue[v as usize];
        if r < self.epsilon {
            return;
        }
        self.residue[v as usize] = 0.0;
        self.rank[v as usize] += r;
        let deg = self.adj.degree(v);
        if deg == 0 {
            return;
        }
        let share = self.alpha * r / deg as f64;
        let contrib = share as f32;
        for (owner, segment) in self.adj.segments(v) {
            if owner == pe {
                for &w in segment {
                    assert_owner!(self.partition, w, pe);
                    let res = &mut self.residue[w as usize];
                    *res += share;
                    if *res >= self.epsilon && !self.in_queue[w as usize] {
                        self.in_queue[w as usize] = true;
                        out.push_local(PrTask::Relax(w));
                    }
                }
            } else {
                out.extend_remote(owner, segment.iter().map(|&w| PrTask::contrib(w, contrib)));
            }
        }
    }

    fn on_receive(&mut self, pe: usize, task: PrTask) -> Option<PrTask> {
        match task {
            PrTask::Contrib(w, c) => {
                let w = PrTask::target(w);
                assert_owner!(self.partition, w, pe);
                let res = &mut self.residue[w as usize];
                *res += c as f64;
                if *res >= self.epsilon && !self.in_queue[w as usize] {
                    self.in_queue[w as usize] = true;
                    Some(PrTask::Relax(w))
                } else {
                    None
                }
            }
            PrTask::Relax(v) => Some(PrTask::Relax(v)),
        }
    }

    fn task_edges(&self, task: &PrTask) -> u64 {
        match task {
            PrTask::Relax(v) => self.adj.degree(*v) as u64,
            PrTask::Contrib(..) => 0,
        }
    }

    fn task_bytes(&self) -> u64 {
        8
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Seed every vertex on its owner and run to termination.
fn drive<A: Application<Task = PrTask>>(
    app: A,
    partition: &Partition,
    fabric: Fabric,
    cfg: AtosConfig,
) -> (A, RunStats) {
    let mut rt = Runtime::new(app, fabric, cfg);
    for pe in 0..partition.n_parts() {
        rt.seed(pe, partition.vertices_of(pe).into_iter().map(PrTask::Relax));
    }
    let stats = rt.run();
    (rt.into_app(), stats)
}

/// The two Tiny presets (0, 1), and a graph with what generators avoid (2):
/// self-loops (0, 5, 9), a vertex nothing points at (6), one with no way
/// out (7), isolated ones (10, 11), and parallel edges in the input
/// (`Csr::from_edges` merges them; a message that names one vertex twice is
/// the second property's business).
fn graph(which: usize) -> Csr {
    let preset = |name: &str| Preset::by_name(name).unwrap().build(Scale::Tiny);
    match which {
        0 => preset("soc-LiveJournal1_s"),
        1 => preset("road_usa_s"),
        #[rustfmt::skip]
        _ => Csr::from_edges(12, &[
            (0, 0), (0, 1), (0, 1), (0, 2), (1, 2), (1, 2), (1, 2), (2, 0), (2, 3),
            (3, 4), (3, 5), (4, 3), (4, 3), (5, 5), (5, 0), (6, 0), (6, 7), (8, 7),
            (3, 8), (8, 9), (9, 9), (9, 8), (2, 9),
        ]),
    }
}

/// `pagerank_golden.rs`' four: direct persistent, direct discrete, the
/// paper's IB aggregator, and one that also flushes on size.
fn configurations() -> [(Fabric, AtosConfig); 4] {
    let eager = AtosConfig {
        comm: CommMode::Aggregated {
            batch_bytes: 4096,
            wait_time: 4,
        },
        ..AtosConfig::ib_pagerank()
    };
    [
        (Fabric::daisy(4), AtosConfig::standard_persistent()),
        (Fabric::daisy(4), AtosConfig::standard_discrete()),
        (Fabric::ib_cluster(8), AtosConfig::ib_pagerank()),
        (Fabric::ib_cluster(4), eager),
    ]
}

/// 1e-3 and 1e-6 converge after many re-queues; 0.2 is above `1 − α`.
const EPSILONS: [f64; 3] = [1e-3, 1e-6, 0.2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn whole_runs_agree_with_the_flagged_application(
        graph_id in 0usize..3,
        partitioner in 0usize..3,
        epsilon in 0usize..3,
        configuration in 0usize..4,
        seed in 0u64..1000,
    ) {
        let g = Arc::new(graph(graph_id));
        let (fabric, cfg) = configurations()[configuration].clone();
        let n_pes = fabric.n_pes();
        let part = Arc::new(match partitioner {
            0 => Partition::random(g.n_vertices(), n_pes, seed),
            1 => Partition::block(g.n_vertices(), n_pes),
            _ => Partition::bfs_grow(&g, n_pes, seed),
        });
        let epsilon = EPSILONS[epsilon];

        let flagged = FlaggedPageRank::new(g.clone(), part.clone(), ALPHA, epsilon);
        let (flagged, want) = drive(flagged, &part, fabric.clone(), cfg);
        let app = PageRankApp::new(g.clone(), part.clone(), ALPHA, epsilon);
        let (app, got) = drive(app, &part, fabric, cfg);

        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "a statistic moved");
        prop_assert_eq!(bits(&app.rank), bits(&flagged.rank), "a rank bit moved");
        prop_assert_eq!(bits(&app.residue), bits(&flagged.residue), "a residue bit moved");
        if epsilon > 1.0 - ALPHA {
            prop_assert_eq!(got.total_tasks(), g.n_vertices() as u64, "only the seeds are popped");
            prop_assert!(app.rank.iter().all(|&r| r == 0.0), "nothing may be folded");
            prop_assert_eq!(got.messages, 0, "nothing may be sent");
        } else {
            prop_assert!(got.total_tasks() > g.n_vertices() as u64, "no vertex was re-queued");
        }
    }

    #[test]
    fn a_message_is_applied_as_the_flagged_per_task_loop_applies_it(
        arrivals in proptest::collection::vec((0u32..8, 0u32..16, 1u32..6), 1..120),
        message_len in 1usize..40,
    ) {
        // Sixteen vertices and no edge: relaxing every seed leaves all
        // residues at 0 and all flags down, and a relaxation sends nothing.
        const N: usize = 16;
        let epsilon = 1e-3;
        let g = Arc::new(Csr::from_edges(N, &[]));
        let part = Arc::new(Partition::single(N));
        let mut flagged = FlaggedPageRank::new(g.clone(), part.clone(), ALPHA, epsilon);
        let mut app = PageRankApp::new(g, part, ALPHA, epsilon);
        let mut out = Emitter::new(0, 1);
        for v in 0..N as VertexId {
            flagged.process(0, PrTask::Relax(v), &mut out);
            app.process(0, PrTask::Relax(v), &mut out);
        }
        prop_assert!(out.local.is_empty());

        // Quarters of ε, so a vertex crosses on its first to fourth hit and
        // is hit again after it crossed; now and then a relaxation arrives
        // as a task and passes through.
        let tasks: Vec<PrTask> = arrivals
            .iter()
            .map(|&(kind, w, quarters)| match kind {
                0 => PrTask::Relax(w),
                _ => PrTask::contrib(w, (quarters as f64 * epsilon / 4.0) as f32),
            })
            .collect();
        let sentinel = PrTask::Relax(VertexId::MAX);
        for message in tasks.chunks(message_len) {
            let mut want = vec![sentinel];
            for &task in message {
                want.extend(flagged.on_receive(0, task));
            }
            // Appended, whatever `keep` already holds.
            let mut got = vec![sentinel];
            app.on_receive_run(0, message, &mut got);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "message {message:?}");
            prop_assert_eq!(bits(&app.residue), bits(&flagged.residue));
            // What was kept is popped before the next message lands.
            for &task in &got[1..] {
                flagged.process(0, task, &mut out);
                app.process(0, task, &mut out);
            }
            prop_assert_eq!(bits(&app.rank), bits(&flagged.rank));
        }
    }
}
