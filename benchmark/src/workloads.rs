//! The six workloads: what each generates from the seed, which public
//! entry points it drives, and how its output is checked.
//!
//! Why each exists is recorded in `BENCHMARK.json` and `README.md`.

use std::sync::Arc;
use std::time::Instant;

use atos_apps::pagerank::PrTask;
use atos_apps::sssp::KIND_LIGHT;
use atos_apps::{host_bfs, BfsApp, PageRankApp, SsspApp};
use atos_core::{
    Application, AtosConfig, HostConfig, HostStats, RunStats, Runtime, ShardProfile, ShardableApp,
};
use atos_graph::csr::{Csr, VertexId};
use atos_graph::generators::{rmat, road_network};
use atos_graph::partition::Partition;
use atos_graph::reference::{self, UNREACHED};
use atos_graph::weights::{dijkstra, EdgeWeights, UNREACHED_DIST};
use atos_sim::Fabric;

use crate::spans::Spans;
use crate::timed::{Tally, Timed};

pub const NAMES: [&str; 6] = [
    "bfs_mesh_nvlink",
    "pr_scalefree_nvlink",
    "pr_scalefree_sharded2",
    "pr_ib_aggregated",
    "sssp_delta_priority",
    "host_bfs_threads",
];

/// The workloads `BENCHMARK.json` lists: those that run on one thread, for
/// which the sweep is a yardstick (see `sweep.rs`). The other two keep both
/// of this sandbox's cores busy; they are run, printed and held to their
/// bounds by `--check-repeat` like the rest. The program treats all six
/// alike; only the test that keeps `BENCHMARK.json` in step reads this.
#[cfg(test)]
pub const LISTED: [&str; 4] = [
    "bfs_mesh_nvlink",
    "pr_scalefree_nvlink",
    "pr_ib_aggregated",
    "sssp_delta_priority",
];

const RMAT_PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
pub const PR_ALPHA: f64 = 0.85;
pub const PR_EPSILON: f64 = 1e-5;
/// Bound on PageRank's L1 distance per vertex, the one the in-repo tests use.
const PR_TOLERANCE: f64 = 1e-3;
const SSSP_MAX_WEIGHT: u32 = 64;
const SSSP_DELTA: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bfs,
    PageRank,
    SsspDelta,
    HostBfs,
}

#[derive(Debug, Clone, Copy)]
enum GraphSpec {
    /// `road_network(side, side, seed)`, `Partition::block` (bands of
    /// rows), BFS from the grid's centre: every degree is about 4, so the
    /// largest is no landmark, and a source near the border would double
    /// the depth. `bfs_grow` is left out here too: where its seeded regions
    /// fall about the source moves the persistent kernel's redundant work,
    /// and with it the cost of a task, by a sixth from seed to seed.
    Road { side: usize },
    /// `rmat(scale, edges, .., seed)`, `Partition::random`, BFS/SSSP from
    /// the vertex of largest out-degree. `bfs_grow` is left out here: on
    /// R-MAT its edge cut falls anywhere from 0.15 to 0.62 with the seed,
    /// and the work done with it.
    Rmat { scale: u32, edges: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    /// `Fabric::daisy`.
    NvlinkDaisy,
    /// `Fabric::ib_cluster`.
    IbCluster,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    graph: GraphSpec,
    net: Net,
    pub n_pes: usize,
    cfg: AtosConfig,
    /// Engine shards (simulator) the run is split over.
    pub shards: usize,
}

/// The workload called `name`; `smoke` shrinks its input to test size.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    use GraphSpec::{Rmat, Road};
    let rmat_at = |scale: u32, edges: usize| match smoke {
        true => Rmat {
            scale: 10,
            edges: 12_000,
        },
        false => Rmat { scale, edges },
    };
    let i = NAMES.iter().position(|&n| n == name)?;
    let base = Spec {
        name: NAMES[i],
        kind: Kind::Bfs,
        graph: Road {
            side: if smoke { 64 } else { 1000 },
        },
        net: Net::NvlinkDaisy,
        n_pes: 4,
        cfg: AtosConfig::standard_persistent(),
        shards: 1,
    };
    let pr = Spec {
        kind: Kind::PageRank,
        graph: rmat_at(16, 1_000_000),
        ..base
    };
    let rmat18 = rmat_at(18, 4_300_000);
    Some(match i {
        0 => base,
        1 => pr,
        2 => Spec { shards: 2, ..pr },
        3 => Spec {
            graph: rmat_at(14, 250_000),
            net: Net::IbCluster,
            n_pes: 8,
            cfg: AtosConfig::ib_pagerank(),
            ..pr
        },
        4 => Spec {
            kind: Kind::SsspDelta,
            graph: rmat18,
            cfg: AtosConfig::priority_discrete(),
            ..base
        },
        _ => Spec {
            kind: Kind::HostBfs,
            graph: rmat18,
            n_pes: 2,
            ..base
        },
    })
}

/// Generated input of one workload. The program sees only this.
#[derive(Clone)]
pub struct Input {
    pub graph: Arc<Csr>,
    pub weights: Option<Arc<EdgeWeights>>,
    pub partition: Arc<Partition>,
    /// BFS/SSSP source.
    pub source: VertexId,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub weights_s: f64,
    pub partition_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.weights_s + self.partition_s
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Depth(Vec<u32>),
    Dist(Vec<u64>),
    Rank(Vec<f64>),
}

impl Answer {
    /// Whether `self` is a correct answer given the reference solution.
    pub fn check(&self, reference: &Answer) -> Result<(), String> {
        match (self, reference) {
            (Answer::Depth(a), Answer::Depth(b)) if a == b => Ok(()),
            (Answer::Dist(a), Answer::Dist(b)) if a == b => Ok(()),
            (Answer::Rank(a), Answer::Rank(b)) if a.len() == b.len() => {
                let per_vertex = reference::rank_l1(a, b) / a.len() as f64;
                if per_vertex < PR_TOLERANCE {
                    Ok(())
                } else {
                    Err(format!("per-vertex rank L1 {per_vertex} >= {PR_TOLERANCE}"))
                }
            }
            _ => Err("output differs from the reference".to_string()),
        }
    }

    /// Make the answer wrong at one seeded position (the fault-injection
    /// self-test: verification must catch it).
    pub fn corrupt(&mut self, seed: u64) {
        match self {
            Answer::Depth(v) => {
                let i = seed as usize % v.len();
                v[i] = v[i].wrapping_add(1);
            }
            Answer::Dist(v) => {
                let i = seed as usize % v.len();
                v[i] = v[i].wrapping_add(1);
            }
            Answer::Rank(v) => {
                // One vertex takes a whole graph's worth of rank.
                let i = seed as usize % v.len();
                v[i] += v.len() as f64;
            }
        }
    }
}

/// What one run returned: the answer, to be verified and dropped, and the
/// facts about the run, which are kept.
pub struct RunResult {
    pub answer: Answer,
    pub facts: RunFacts,
}

/// The run's own phase timings and the statistics it reported.
pub struct RunFacts {
    /// `Runtime::new` + `Runtime::seed` (simulator workloads).
    pub runtime_new_s: f64,
    /// `Runtime::run_sharded` / `run_host`'s parallel section.
    pub run_s: f64,
    /// When that call began (for `host_bfs`, which times itself: when it
    /// was called).
    pub run_started: Instant,
    pub sim: Option<RunStats>,
    pub host: Option<HostStats>,
    pub tally: Option<Tally>,
    pub shard: Option<ShardProfile>,
    /// Task count of a run without redundant work.
    pub ideal_tasks: u64,
}

impl RunFacts {
    /// Tasks the run processed: exact on the simulator, dependent on the
    /// thread schedule on the host backend.
    pub fn tasks(&self) -> u64 {
        let per_pe = match (&self.sim, &self.host) {
            (Some(s), _) => &s.tasks_per_pe,
            (None, Some(h)) => &h.tasks_per_pe,
            (None, None) => return 0,
        };
        per_pe.iter().sum()
    }

    /// The virtual-time outcome, which must not vary between runs, shard
    /// counts or hosts.
    pub fn fingerprint(&self) -> Option<(u64, u64, u64)> {
        self.sim
            .as_ref()
            .map(|s| (s.elapsed_ns, s.sim_events, s.total_tasks()))
    }
}

/// What the runtime returned besides the application.
struct Driven {
    stats: RunStats,
    shard: Option<ShardProfile>,
    runtime_new_s: f64,
    run_s: f64,
    run_started: Instant,
}

fn drive<A: ShardableApp>(
    app: A,
    seeds: Vec<(usize, Vec<A::Task>)>,
    fabric: Fabric,
    cfg: AtosConfig,
    shards: usize,
) -> (A, Driven) {
    let t0 = Instant::now();
    let mut rt = Runtime::new(app, fabric, cfg);
    for (pe, tasks) in seeds {
        rt.seed(pe, tasks);
    }
    let t1 = Instant::now();
    let stats = rt.run_sharded(shards);
    let run_s = t1.elapsed().as_secs_f64();
    let shard = rt.take_shard_profile();
    let driven = Driven {
        stats,
        shard,
        runtime_new_s: (t1 - t0).as_secs_f64(),
        run_s,
        run_started: t1,
    };
    (rt.into_app(), driven)
}

fn span_timed<R>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    spans.enter(name);
    let t = Instant::now();
    let r = f();
    let s = t.elapsed().as_secs_f64();
    spans.exit();
    (r, s)
}

impl Spec {
    pub fn fabric(&self) -> Fabric {
        match self.net {
            Net::NvlinkDaisy => Fabric::daisy(self.n_pes),
            Net::IbCluster => Fabric::ib_cluster(self.n_pes),
        }
    }

    pub fn is_simulated(&self) -> bool {
        self.kind != Kind::HostBfs
    }

    /// Generate the input from `seed`: graph, then weights, then partition,
    /// each under its own span.
    pub fn setup(&self, seed: u64, spans: &mut Spans) -> (Input, SetupTimes) {
        let mut times = SetupTimes::default();
        let (graph, s) = span_timed(spans, "graph.generate", || match self.graph {
            GraphSpec::Road { side } => road_network(side, side, seed),
            GraphSpec::Rmat { scale, edges } => rmat(scale, edges, RMAT_PROBS, seed),
        });
        times.generate_s = s;

        let weights = (self.kind == Kind::SsspDelta).then(|| {
            let (w, s) = span_timed(spans, "graph.weights", || {
                EdgeWeights::random(&graph, SSSP_MAX_WEIGHT, seed)
            });
            times.weights_s = s;
            Arc::new(w)
        });

        let (partition, s) = span_timed(spans, "graph.partition", || match self.graph {
            GraphSpec::Road { .. } => Partition::block(graph.n_vertices(), self.n_pes),
            GraphSpec::Rmat { .. } => Partition::random(graph.n_vertices(), self.n_pes, seed),
        });
        times.partition_s = s;

        let source = match self.graph {
            GraphSpec::Road { side } => (side / 2 * side + side / 2) as VertexId,
            GraphSpec::Rmat { .. } => (0..graph.n_vertices() as VertexId)
                .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v)))
                .expect("generated graphs are not empty"),
        };
        let (graph, partition) = (Arc::new(graph), Arc::new(partition));
        (
            Input {
                graph,
                weights,
                partition,
                source,
            },
            times,
        )
    }

    /// The plain single-threaded solve of the same problem.
    pub fn reference(&self, input: &Input) -> Answer {
        match self.kind {
            Kind::Bfs | Kind::HostBfs => Answer::Depth(reference::bfs(&input.graph, input.source)),
            Kind::PageRank => {
                Answer::Rank(reference::pagerank_push(&input.graph, PR_ALPHA, PR_EPSILON).rank)
            }
            Kind::SsspDelta => {
                let w = input.weights.as_ref().expect("SSSP input has weights");
                Answer::Dist(dijkstra(&input.graph, w, input.source))
            }
        }
    }

    /// The same problem on one shard / one host PE: what a parallel
    /// workload's speed-up is measured against.
    pub fn companion(&self, input: &Input) -> Option<(Spec, Input)> {
        if self.kind == Kind::HostBfs {
            let partition = Arc::new(Partition::single(input.graph.n_vertices()));
            Some((
                Spec { n_pes: 1, ..*self },
                Input {
                    partition,
                    ..input.clone()
                },
            ))
        } else if self.shards > 1 {
            Some((Spec { shards: 1, ..*self }, input.clone()))
        } else {
            None
        }
    }

    /// Run `app` on the simulator, bare or inside the [`Timed`] wrapper;
    /// `take` turns the finished application into its answer and the task
    /// count of a run without redundant work.
    fn simulate<A: ShardableApp>(
        &self,
        app: A,
        timed: bool,
        seeds: Vec<(usize, Vec<A::Task>)>,
        take: impl FnOnce(A) -> (Answer, u64),
    ) -> RunResult {
        let (fabric, cfg, shards) = (self.fabric(), self.cfg, self.shards);
        let (app, d, tally) = if timed {
            let (Timed { inner, tally }, d) = drive(Timed::new(app), seeds, fabric, cfg, shards);
            (inner, d, Some(tally))
        } else {
            let (app, d) = drive(app, seeds, fabric, cfg, shards);
            (app, d, None)
        };
        let (answer, ideal_tasks) = take(app);
        let facts = RunFacts {
            runtime_new_s: d.runtime_new_s,
            run_s: d.run_s,
            run_started: d.run_started,
            sim: Some(d.stats),
            host: None,
            tally,
            shard: d.shard,
            ideal_tasks,
        };
        RunResult { answer, facts }
    }

    /// One run: construct the application and the runtime (or the host
    /// queues), seed, run to termination and take the result. `timed`
    /// wraps the application in [`Timed`].
    pub fn run(&self, input: &Input, timed: bool) -> RunResult {
        let (g, p, src) = (input.graph.clone(), input.partition.clone(), input.source);
        let n = g.n_vertices();
        assert_eq!(p.n_parts(), self.n_pes, "partition/fabric size");
        match self.kind {
            Kind::Bfs => {
                let app = BfsApp::new(g, p.clone(), src);
                let seeds = vec![(p.owner(src), vec![(src, 0u32)])];
                self.simulate(app, timed, seeds, |app| {
                    let reached = app.reached() as u64;
                    (Answer::Depth(app.depth), reached)
                })
            }
            Kind::PageRank => {
                let app = PageRankApp::new(g, p.clone(), PR_ALPHA, PR_EPSILON);
                let seeds = (0..self.n_pes)
                    .map(|pe| {
                        (
                            pe,
                            p.vertices_of(pe).into_iter().map(PrTask::Relax).collect(),
                        )
                    })
                    .collect();
                self.simulate(app, timed, seeds, |app| {
                    assert!(
                        app.converged(),
                        "queue drained with residue above epsilon: {}",
                        app.max_residue()
                    );
                    (Answer::Rank(app.rank), n as u64)
                })
            }
            Kind::SsspDelta => {
                let w = input.weights.clone().expect("SSSP input has weights");
                let app = SsspApp::new_split(g, w, p.clone(), src, SSSP_DELTA);
                let seeds = vec![(p.owner(src), vec![(src, 0u64, KIND_LIGHT)])];
                self.simulate(app, timed, seeds, |app| {
                    let reached = app.dist.iter().filter(|&&d| d != UNREACHED_DIST).count();
                    (Answer::Dist(app.dist), reached as u64)
                })
            }
            Kind::HostBfs => {
                let cfg = HostConfig {
                    n_pes: self.n_pes,
                    workers_per_pe: 1,
                    fetch: 32,
                    queue_capacity: 4 * g.n_edges() + n + 64,
                };
                let run_started = Instant::now();
                let run = host_bfs(g, p, src, Some(cfg));
                let facts = RunFacts {
                    ideal_tasks: run.depth.iter().filter(|&&d| d != UNREACHED).count() as u64,
                    runtime_new_s: 0.0,
                    run_s: run.stats.elapsed.as_secs_f64(),
                    run_started,
                    sim: None,
                    host: Some(run.stats),
                    tally: None,
                    shard: None,
                };
                RunResult {
                    answer: Answer::Depth(run.depth),
                    facts,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_input(name: &str) -> (Spec, Input) {
        let spec = spec(name, true).unwrap();
        let (input, _) = spec.setup(7, &mut Spans::new(name, false));
        (spec, input)
    }

    #[test]
    fn the_timed_wrapper_is_transparent() {
        for name in NAMES.iter().filter(|&&n| n != "host_bfs_threads") {
            let (spec, input) = smoke_input(name);
            let (bare, timed) = (spec.run(&input, false), spec.run(&input, true));
            assert!(bare.facts.tally.is_none());
            assert_eq!(
                bare.facts.fingerprint(),
                timed.facts.fingerprint(),
                "{name}"
            );
            assert_eq!(bare.answer, timed.answer, "{name}");
            assert_eq!(bare.facts.ideal_tasks, timed.facts.ideal_tasks, "{name}");
            // Every call was counted, on every shard.
            let tally = timed.facts.tally.unwrap();
            let stats = timed.facts.sim.unwrap();
            assert_eq!(tally.process.calls, stats.total_tasks(), "{name}");
            assert!(
                tally.on_receive.calls >= stats.remote_tasks.min(1),
                "{name}"
            );
            assert!(tally.received_kept <= tally.on_receive.calls, "{name}");
            assert!(tally.process.total_s() > 0.0, "{name}");
        }
    }

    #[test]
    fn every_kind_of_answer_can_be_told_wrong() {
        for name in [
            "bfs_mesh_nvlink",
            "pr_scalefree_nvlink",
            "sssp_delta_priority",
        ] {
            let (spec, input) = smoke_input(name);
            let reference = spec.reference(&input);
            let mut answer = spec.run(&input, false).answer;
            assert_eq!(answer.check(&reference), Ok(()), "{name}");
            answer.corrupt(12_345);
            assert!(answer.check(&reference).is_err(), "{name}");
        }
        let depth = Answer::Depth(vec![0, 1]);
        assert!(
            depth.check(&Answer::Dist(vec![0, 1])).is_err(),
            "kinds do not mix"
        );
    }

    #[test]
    fn the_companion_solves_the_same_problem_on_one_shard_or_pe() {
        let (spec, input) = smoke_input("pr_scalefree_sharded2");
        let (one, one_input) = spec.companion(&input).unwrap();
        assert_eq!((spec.shards, one.shards), (2, 1));
        assert_eq!(
            spec.run(&input, false).facts.fingerprint(),
            one.run(&one_input, false).facts.fingerprint()
        );

        let (spec, input) = smoke_input("host_bfs_threads");
        let (one, one_input) = spec.companion(&input).unwrap();
        assert_eq!((one.n_pes, one_input.partition.n_parts()), (1, 1));
        assert_eq!(
            spec.run(&input, false).answer,
            one.run(&one_input, false).answer
        );
        assert!(smoke_input("bfs_mesh_nvlink").0.companion(&input).is_none());
    }

    #[test]
    fn the_seed_decides_the_input() {
        let spec = spec("sssp_delta_priority", true).unwrap();
        let setup = |seed| spec.setup(seed, &mut Spans::new("t", false)).0;
        let (a, b, c) = (setup(1), setup(1), setup(2));
        let edges = |i: &Input| i.graph.edges().collect::<Vec<_>>();
        assert_eq!(edges(&a), edges(&b));
        assert_eq!(a.source, b.source);
        assert_ne!(edges(&a), edges(&c));
    }
}
