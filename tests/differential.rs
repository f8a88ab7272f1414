//! Differential fuzzer over the whole system: every case draws a graph, a
//! partition, a fabric, a runtime configuration and an application, runs
//! it twice, and holds it against the serial references.
//!
//! Each case checks four properties:
//! 1. the answer equals `reference::bfs`, `dijkstra` or
//!    `connected_components`; PageRank's is within a per-vertex L1 of 1e-3
//!    of `reference::pagerank_push`;
//! 2. a second run is bit-identical: the answer and the `RunStats` fields
//!    `elapsed_ns`, `sim_events`, `messages`, `wire_bytes` and
//!    `tasks_per_pe` (`host_bfs` runs on real threads: answers only);
//! 3. `peak_pending_events ≤ n_pes·(n_pes+2)`;
//! 4. nothing panics — the generator draws no input that a `# Panics`
//!    section rules out.
//!
//! A case is a pure function of its index (`TestRng::for_case`), so a
//! failure prints the index and the drawn input, and rerunning the test
//! replays it. The proptest shim cannot shrink, so sizes ramp with the
//! index instead: the first case to fail is about the smallest that does.

use std::ops::Range;
use std::sync::Arc;

use atos::apps::bfs::{run_bfs_tuned, BfsApp};
use atos::apps::cc::run_cc;
use atos::apps::host_bfs::host_bfs;
use atos::apps::pagerank::run_pagerank_tuned;
use atos::apps::sssp::{run_sssp, run_sssp_delta, SsspApp, KIND_FULL, KIND_LIGHT};
use atos::baselines::{
    bsp_bfs, bsp_pagerank, galois_bfs, galois_pagerank, groute_bfs, groute_pagerank, run_bsp,
};
use atos::core::{
    AtosConfig, CommMode, KernelMode, NullTracer, QueueMode, RunStats, RuntimeTuning,
    WorkerConfig, WorkerSize,
};
use atos::graph::csr::{Csr, VertexId};
use atos::graph::generators::{grid_2d, rmat, road_network, uniform};
use atos::graph::partition::Partition;
use atos::graph::reference;
use atos::graph::weights::{connected_components, dijkstra, EdgeWeights};
use atos::sim::{ControlPath, Fabric};
use proptest::{Strategy, TestRng};

/// Cases per run. Sizes ramp from a handful of vertices at case 0 to
/// about `MAX_VERTICES` at the last.
const CASES: u32 = 640;
const MAX_VERTICES: usize = 400;
/// Test threads: cases are independent, so they are dealt round-robin.
const THREADS: u32 = 2;

/// PageRank's threshold: ranks within `EPS / (1 − α)` per vertex of the
/// fixed point, well inside the 1e-3 the answers are held to.
const EPS: f64 = 1e-5;

#[derive(Debug, Clone)]
enum GraphSpec {
    Rmat { scale: u32, edges: usize, seed: u64 },
    Road { w: usize, h: usize, seed: u64 },
    Grid { w: usize, h: usize },
    Uniform { n: usize, edges: usize, seed: u64 },
    /// An explicit edge list: isolated vertices, self-loops, duplicates.
    Edges { n: usize, edges: Vec<(VertexId, VertexId)> },
}

#[derive(Debug, Clone, Copy)]
enum Split {
    Random(u64),
    Block,
    BfsGrow(u64),
    Single,
}

#[derive(Debug, Clone, Copy)]
enum Net {
    Daisy(usize),
    Summit(usize),
    Ib(usize),
}

/// Who runs a case: the Atos runtime under the drawn configuration and
/// tuning, or one of the baselines under its own. Groute- and Galois-like
/// exist for BFS and PageRank only; the bulk-synchronous schedule
/// (`run_bsp`) runs every simulated application.
#[derive(Debug, Clone, Copy)]
enum Framework {
    Atos,
    Groute,
    Galois,
    Bsp,
}

#[derive(Debug, Clone, Copy)]
enum App {
    Bfs(Framework),
    PageRank { framework: Framework, alpha: f64 },
    Cc(Framework),
    Sssp { framework: Framework, split: bool, delta: u64, max_weight: u32, seed: u64 },
    /// BFS on real threads (`atos-core`'s host backend).
    HostBfs,
}

#[derive(Debug, Clone)]
struct Case {
    graph: GraphSpec,
    split: Split,
    net: Net,
    cfg: AtosConfig,
    tuning: RuntimeTuning,
    app: App,
    source: VertexId,
}

/// A value uniform over `range`.
fn draw<T>(rng: &mut TestRng, range: Range<T>) -> T
where
    Range<T>: Strategy<Value = T>,
{
    range.generate(rng)
}

/// One of `from`, uniformly.
fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[draw(rng, 0..from.len())]
}

impl GraphSpec {
    fn draw(rng: &mut TestRng, size: usize) -> Self {
        let seed = draw(rng, 0u64..1 << 20);
        let side = || (size as f64).sqrt() as usize + 1;
        match draw(rng, 0..5) {
            0 => {
                let scale = draw(rng, 0..(size.ilog2() + 1));
                let edges = draw(rng, 0..(8 << scale) + 1);
                GraphSpec::Rmat { scale, edges, seed }
            }
            1 => GraphSpec::Road { w: draw(rng, 1..side() + 1), h: draw(rng, 1..side() + 1), seed },
            2 => GraphSpec::Grid { w: draw(rng, 0..side() + 1), h: draw(rng, 0..side() + 1) },
            3 => {
                let n = draw(rng, 1..size + 1);
                GraphSpec::Uniform { n, edges: draw(rng, 0..4 * n + 1), seed }
            }
            _ => {
                // Small id spaces: 0 or 1 vertices, and lists dense in
                // self-loops and repeats.
                let n = draw(rng, 0..size.min(24) + 1);
                let m = if n == 0 { 0 } else { draw(rng, 0..3 * n + 1) };
                let mut edges = Vec::with_capacity(m);
                for _ in 0..m {
                    let u = draw(rng, 0..n as u32);
                    let v = if draw(rng, 0..4) == 0 { u } else { draw(rng, 0..n as u32) };
                    edges.push((u, v));
                    if draw(rng, 0..4) == 0 {
                        edges.push((u, v));
                    }
                }
                GraphSpec::Edges { n, edges }
            }
        }
    }

    fn n_vertices(&self) -> usize {
        match *self {
            GraphSpec::Rmat { scale, .. } => 1 << scale,
            GraphSpec::Road { w, h, .. } | GraphSpec::Grid { w, h } => w * h,
            GraphSpec::Uniform { n, .. } | GraphSpec::Edges { n, .. } => n,
        }
    }

    fn build(&self) -> Csr {
        match *self {
            GraphSpec::Rmat { scale, edges, seed } => {
                rmat(scale, edges, (0.57, 0.19, 0.19, 0.05), seed)
            }
            GraphSpec::Road { w, h, seed } => road_network(w, h, seed),
            GraphSpec::Grid { w, h } => grid_2d(w, h),
            GraphSpec::Uniform { n, edges, seed } => uniform(n, edges, seed),
            GraphSpec::Edges { n, ref edges } => Csr::from_edges(n, edges),
        }
    }
}

impl Net {
    fn n_pes(self) -> usize {
        match self {
            Net::Daisy(n) | Net::Summit(n) | Net::Ib(n) => n,
        }
    }

    fn build(self) -> Fabric {
        match self {
            Net::Daisy(n) => Fabric::daisy(n),
            Net::Summit(n) => Fabric::summit_node(n),
            Net::Ib(n) => Fabric::ib_cluster(n),
        }
    }
}

impl Split {
    fn build(self, g: &Csr, n_pes: usize) -> Partition {
        match self {
            Split::Random(seed) => Partition::random(g.n_vertices(), n_pes, seed),
            Split::Block => Partition::block(g.n_vertices(), n_pes),
            Split::BfsGrow(seed) => Partition::bfs_grow(g, n_pes, seed),
            Split::Single => Partition::single(g.n_vertices()),
        }
    }
}

fn draw_config(rng: &mut TestRng) -> AtosConfig {
    let kernel = pick(rng, &[KernelMode::Persistent, KernelMode::Discrete]);
    let queue = match draw(rng, 0..2) {
        0 => QueueMode::Standard,
        _ => QueueMode::Priority {
            threshold: pick(rng, &[0, 1, 2, 5, u32::MAX]),
            threshold_delta: pick(rng, &[0, 1, 2, 5, u32::MAX]),
        },
    };
    // A persistent kernel pops `fetch × num_workers` per round, so neither
    // may be 0 there (`Runtime::with_tracer` rejects it); a discrete kernel
    // pops its whole queue whatever they are.
    let floor = (kernel == KernelMode::Persistent) as usize;
    let sizes = [WorkerSize::Thread, WorkerSize::Warp, WorkerSize::Cta(128), WorkerSize::Cta(512)];
    let worker = WorkerConfig {
        size: pick(rng, &sizes),
        fetch: draw(rng, floor..40),
        num_workers: draw(rng, floor..200),
    };
    let comm = match draw(rng, 0..2) {
        0 => CommMode::Direct { group: pick(rng, &[0, 1, 2, 7, 32, 1024, usize::MAX]) },
        _ => CommMode::Aggregated {
            batch_bytes: pick(rng, &[0, 8, 64, 1000, 1 << 20]),
            wait_time: draw(rng, 0..40),
        },
    };
    AtosConfig { kernel, queue, worker, comm }
}

fn draw_tuning(rng: &mut TestRng) -> RuntimeTuning {
    RuntimeTuning {
        control: ControlPath { inject_ns: draw(rng, 0..20_000) },
        in_kernel_comm: draw(rng, 0..2) == 0,
        round_metadata_bytes: pick(rng, &[0, 0, 64, 4096]),
    }
}

impl Case {
    fn draw(case: u32) -> Self {
        let mut rng = TestRng::for_case("differential", case);
        let size = 2 + case as usize * MAX_VERTICES / CASES as usize;
        let graph = GraphSpec::draw(&mut rng, size);
        let net = match draw(&mut rng, 0..3) {
            0 => Net::Daisy(draw(&mut rng, 1..5)),
            1 => Net::Summit(draw(&mut rng, 1..7)),
            _ => Net::Ib(draw(&mut rng, 1..9)),
        };
        let split = match (net.n_pes(), draw(&mut rng, 0..4)) {
            (1, 0) => Split::Single,
            (_, 0 | 1) => Split::Random(draw(&mut rng, 0..1 << 20)),
            (_, 2) => Split::Block,
            _ => Split::BfsGrow(draw(&mut rng, 0..1 << 20)),
        };
        let cfg = draw_config(&mut rng);
        let tuning = draw_tuning(&mut rng);
        let n = graph.n_vertices();
        let frameworks = [Framework::Atos, Framework::Groute, Framework::Galois, Framework::Bsp];
        let framework = pick(&mut rng, &frameworks);
        // CC and SSSP have no Groute- or Galois-like configuration.
        let schedule = pick(&mut rng, &[Framework::Atos, Framework::Bsp]);
        // `PageRankApp::new` takes any damping in [0, 1].
        let alpha = pick(&mut rng, &[0.0, 0.5, 0.7, 0.85, 1.0]);
        let max_weight = draw(&mut rng, 1..40);
        let delta = draw(&mut rng, 0..2 * max_weight as u64);
        let seed = draw(&mut rng, 0..1 << 20);
        let sssp = |split| App::Sssp { framework: schedule, split, delta, max_weight, seed };
        // CC and PageRank are the applications that need no source vertex.
        let app = match draw(&mut rng, 0..6) {
            _ if n == 0 => pick(&mut rng, &[App::Cc(schedule), App::PageRank { framework, alpha }]),
            0 => App::Bfs(framework),
            1 => App::PageRank { framework, alpha },
            2 => App::Cc(schedule),
            3 => sssp(false),
            4 => sssp(true),
            _ => App::HostBfs,
        };
        let source = if n == 0 { 0 } else { draw(&mut rng, 0..n as VertexId) };
        Case { graph, split, net, cfg, tuning, app, source }
    }
}

/// What a run computed, compared bit for bit between two runs.
#[derive(Debug, PartialEq)]
enum Answer {
    Depth(Vec<u32>),
    Dist(Vec<u64>),
    Label(Vec<u32>),
    /// PageRank, as bits: equal means bit-identical.
    Rank(Vec<u64>),
}

/// The `RunStats` fields two runs of one case must agree on.
fn schedule(s: &RunStats) -> (u64, u64, u64, u64, Vec<u64>) {
    (s.elapsed_ns, s.sim_events, s.messages, s.wire_bytes, s.tasks_per_pe.clone())
}

/// One run of `case`: its answer and, on the simulator, its stats.
fn run(case: &Case, g: &Arc<Csr>, part: &Arc<Partition>) -> (Answer, Option<RunStats>) {
    let (g, part, fabric) = (g.clone(), part.clone(), case.net.build());
    let (cfg, tuning, src) = (case.cfg, case.tuning, case.source);
    let (answer, stats) = match case.app {
        App::Bfs(framework) => {
            let (depth, stats) = match framework {
                Framework::Atos => {
                    let r = run_bfs_tuned(g, part, src, fabric, cfg, tuning, NullTracer);
                    (r.depth, r.stats)
                }
                Framework::Groute => {
                    let r = groute_bfs(g, part, src, fabric);
                    (r.depth, r.stats)
                }
                Framework::Galois => {
                    let r = galois_bfs(g, part, src, fabric);
                    (r.depth, r.stats)
                }
                Framework::Bsp => {
                    let r = bsp_bfs(g, part, src, fabric);
                    (r.depth, r.stats)
                }
            };
            (Answer::Depth(depth), stats)
        }
        App::PageRank { framework, alpha } => {
            let (rank, stats) = match framework {
                Framework::Atos => {
                    let r = run_pagerank_tuned(g, part, alpha, EPS, fabric, cfg, tuning);
                    (r.rank, r.stats)
                }
                Framework::Groute => {
                    let r = groute_pagerank(g, part, alpha, EPS, fabric);
                    (r.rank, r.stats)
                }
                Framework::Galois => {
                    let r = galois_pagerank(g, part, alpha, EPS, fabric);
                    (r.rank, r.stats)
                }
                Framework::Bsp => {
                    let r = bsp_pagerank(g, part, alpha, EPS, fabric);
                    (r.rank, r.stats)
                }
            };
            (Answer::Rank(rank.iter().map(|x| x.to_bits()).collect()), stats)
        }
        App::Cc(framework) => {
            let g = Arc::new(g.symmetrize());
            let (label, stats) = match framework {
                Framework::Bsp => {
                    let mut app = BfsApp::components(g, part.clone());
                    let seeds = (0..part.n_parts())
                        .map(|pe| part.vertices_of(pe).into_iter().map(|v| (v, v)).collect())
                        .collect();
                    let (stats, _) = run_bsp(&mut app, fabric, seeds);
                    (app.depth, stats)
                }
                _ => {
                    let r = run_cc(g, part, fabric, cfg);
                    (r.label, r.stats)
                }
            };
            (Answer::Label(label), stats)
        }
        App::Sssp { framework, split, delta, max_weight, seed } => {
            let w = Arc::new(EdgeWeights::random(&g, max_weight, seed));
            let (dist, stats) = match framework {
                Framework::Bsp => {
                    let mut seeds = vec![Vec::new(); part.n_parts()];
                    let (mut app, kind) = if split {
                        (SsspApp::new_split(g, w, part.clone(), src, delta), KIND_LIGHT)
                    } else {
                        (SsspApp::new(g, w, part.clone(), src, delta), KIND_FULL)
                    };
                    seeds[part.owner(src)].push((src, 0, kind));
                    let (stats, _) = run_bsp(&mut app, fabric, seeds);
                    (app.dist, stats)
                }
                _ => {
                    let go = if split { run_sssp_delta } else { run_sssp };
                    let r = go(g, w, part, src, delta, fabric, cfg);
                    (r.dist, r.stats)
                }
            };
            (Answer::Dist(dist), stats)
        }
        App::HostBfs => return (Answer::Depth(host_bfs(g, part, src, None).depth), None),
    };
    (answer, Some(stats))
}

/// Property 1: the answer the serial reference computes.
fn check_answer(case: &Case, g: &Csr, answer: &Answer) {
    match (case.app, answer) {
        (App::Sssp { max_weight, seed, .. }, Answer::Dist(dist)) => {
            let w = EdgeWeights::random(g, max_weight, seed);
            assert_eq!(dist, &dijkstra(g, &w, case.source), "distances");
        }
        (_, Answer::Depth(depth)) => assert_eq!(depth, &reference::bfs(g, case.source), "depths"),
        (_, Answer::Label(label)) => assert_eq!(label, &connected_components(g), "labels"),
        (App::PageRank { alpha, .. }, Answer::Rank(bits)) => {
            let got: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let want = reference::pagerank_push(g, alpha, EPS).rank;
            let per_vertex = reference::rank_l1(&got, &want) / g.n_vertices().max(1) as f64;
            assert!(per_vertex < 1e-3, "PageRank per-vertex L1 {per_vertex}");
        }
        (app, answer) => unreachable!("{app:?} answered {answer:?}"),
    }
}

fn check(case: &Case) {
    let g = Arc::new(case.graph.build());
    let n_pes = case.net.n_pes();
    let part = Arc::new(case.split.build(&g, n_pes));
    let (answer, stats) = run(case, &g, &part);
    check_answer(case, &g, &answer);
    let Some(stats) = stats else { return };
    let (again, stats_again) = run(case, &g, &part);
    assert!(again == answer, "a rerun's answer differs");
    let stats_again = stats_again.expect("a simulated rerun has stats");
    assert_eq!(schedule(&stats_again), schedule(&stats), "a rerun's schedule differs");
    let bound = (n_pes * (n_pes + 2)) as u64;
    let peak = stats.peak_pending_events;
    assert!(peak <= bound, "{peak} pending events, more than n_pes·(n_pes+2) = {bound}");
}

/// Prints the failing case, index and input, while its check unwinds.
struct Report<'a>(u32, &'a Case);

impl Drop for Report<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("differential: case {} of {CASES} failed: {:#?}", self.0, self.1);
        }
    }
}

#[test]
fn every_configuration_matches_the_references() {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in (t..CASES).step_by(THREADS as usize) {
                    let case = Case::draw(i);
                    let _report = Report(i, &case);
                    check(&case);
                }
            });
        }
    });
}
