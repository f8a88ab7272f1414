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
//!
//! Those graphs stay under `MAX_VERTICES`, below the 1 024 vertices at
//! which a quarter of the graph first holds a page of a `BfsApp` mirror, so
//! every mirror they build turns dense at its first page. A second test
//! draws `MESH_CASES` road networks and grids above that size on a block
//! partition, for BFS and CC, checks them the same way, and asserts that
//! some run ends with a mirror still paged.

use std::ops::Range;
use std::sync::Arc;

use atos::apps::bfs::{run_bfs, BfsApp};
use atos::apps::cc::run_cc;
use atos::apps::host_bfs::host_bfs;
use atos::apps::pagerank::run_pagerank;
use atos::apps::sssp::{run_sssp, run_sssp_delta, SsspApp, KIND_FULL, KIND_LIGHT};
use atos::baselines::{bsp_bfs, bsp_pagerank, galois_config, groute_config, run_bsp};
use atos::core::{
    AtosConfig, CommMode, KernelMode, QueueMode, RunStats, Runtime, WorkerConfig, WorkerSize,
};
use atos::graph::csr::{Csr, VertexId};
use atos::graph::generators::{grid_2d, rmat, road_network};
use atos::graph::partition::Partition;
use atos::graph::reference;
use atos::graph::weights::{connected_components, dijkstra, EdgeWeights};
use atos::sim::{ControlPath, Fabric};
use proptest::{Strategy, TestRng};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per run. Sizes ramp from a handful of vertices at case 0 to
/// about `MAX_VERTICES` at the last.
const CASES: u32 = 640;
const MAX_VERTICES: usize = 400;
/// Test threads: cases are independent, so they are dealt round-robin.
const THREADS: u32 = 2;
/// Mesh cases (`Case::draw_mesh`), 1 089 to 5 041 vertices each.
const MESH_CASES: u32 = 8;

/// PageRank's threshold: ranks within `EPS / (1 − α)` per vertex of the
/// fixed point, well inside the 1e-3 the answers are held to.
const EPS: f64 = 1e-5;

#[derive(Debug, Clone)]
enum GraphSpec {
    Rmat {
        scale: u32,
        edges: usize,
        seed: u64,
    },
    Road {
        w: usize,
        h: usize,
        seed: u64,
    },
    Grid {
        w: usize,
        h: usize,
    },
    Uniform {
        n: usize,
        edges: usize,
        seed: u64,
    },
    /// An explicit edge list: isolated vertices, self-loops, duplicates.
    Edges {
        n: usize,
        edges: Vec<(VertexId, VertexId)>,
    },
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

/// Who runs a simulated case: the Atos runtime under the drawn
/// configuration, or under Groute's or Galois's, or the bulk-synchronous
/// schedule (`run_bsp`). Each runs every simulated application.
#[derive(Debug, Clone, Copy)]
enum Framework {
    Atos,
    Groute,
    Galois,
    Bsp,
}

const FRAMEWORKS: [Framework; 4] = [
    Framework::Atos,
    Framework::Groute,
    Framework::Galois,
    Framework::Bsp,
];

#[derive(Debug, Clone, Copy)]
enum App {
    Bfs,
    PageRank {
        alpha: f64,
    },
    Cc,
    Sssp {
        split: bool,
        delta: u64,
        max_weight: u32,
        seed: u64,
    },
    /// BFS on real threads (`atos-core`'s host backend).
    HostBfs,
}

#[derive(Debug, Clone)]
struct Case {
    graph: GraphSpec,
    split: Split,
    net: Net,
    cfg: AtosConfig,
    framework: Framework,
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
            1 => GraphSpec::Road {
                w: draw(rng, 1..side() + 1),
                h: draw(rng, 1..side() + 1),
                seed,
            },
            2 => GraphSpec::Grid {
                w: draw(rng, 0..side() + 1),
                h: draw(rng, 0..side() + 1),
            },
            3 => {
                let n = draw(rng, 1..size + 1);
                GraphSpec::Uniform {
                    n,
                    edges: draw(rng, 0..4 * n + 1),
                    seed,
                }
            }
            _ => {
                // Small id spaces: 0 or 1 vertices, and lists dense in
                // self-loops and repeats.
                let n = draw(rng, 0..size.min(24) + 1);
                let m = if n == 0 { 0 } else { draw(rng, 0..3 * n + 1) };
                let mut edges = Vec::with_capacity(m);
                for _ in 0..m {
                    let u = draw(rng, 0..n as u32);
                    let v = if draw(rng, 0..4) == 0 {
                        u
                    } else {
                        draw(rng, 0..n as u32)
                    };
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

/// A uniform random (Erdős–Rényi G(n, m)) directed graph: `m` endpoint
/// pairs drawn from one seeded `SmallRng`.
fn uniform(n: usize, m: usize, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut id = || rng.gen_range(0..n) as VertexId;
    let edges: Vec<_> = (0..m).map(|_| (id(), id())).collect();
    Csr::from_edges(n, &edges)
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
    let sizes = [WorkerSize::Thread, WorkerSize::Warp, WorkerSize::Cta];
    let worker = WorkerConfig {
        size: pick(rng, &sizes),
        fetch: draw(rng, floor..40),
        num_workers: draw(rng, floor..200),
    };
    let comm = match draw(rng, 0..2) {
        0 => CommMode::Direct {
            group: pick(rng, &[0, 1, 2, 7, 32, 1024, usize::MAX]),
        },
        _ => CommMode::Aggregated {
            batch_bytes: pick(rng, &[0, 8, 64, 1000, 1 << 20]),
            wait_time: draw(rng, 0..40),
        },
    };
    AtosConfig {
        kernel,
        queue,
        worker,
        comm,
        control: ControlPath {
            inject_ns: draw(rng, 0..20_000),
        },
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
        let n = graph.n_vertices();
        let framework = pick(&mut rng, &FRAMEWORKS);
        // `PageRankApp::new` takes any damping in [0, 1].
        let alpha = pick(&mut rng, &[0.0, 0.5, 0.7, 0.85, 1.0]);
        let max_weight = draw(&mut rng, 1..40);
        let delta = draw(&mut rng, 0..2 * max_weight as u64);
        let seed = draw(&mut rng, 0..1 << 20);
        let sssp = |split| App::Sssp {
            split,
            delta,
            max_weight,
            seed,
        };
        // CC and PageRank are the applications that need no source vertex.
        let app = match draw(&mut rng, 0..6) {
            _ if n == 0 => pick(&mut rng, &[App::Cc, App::PageRank { alpha }]),
            0 => App::Bfs,
            1 => App::PageRank { alpha },
            2 => App::Cc,
            3 => sssp(false),
            4 => sssp(true),
            _ => App::HostBfs,
        };
        let source = if n == 0 {
            0
        } else {
            draw(&mut rng, 0..n as VertexId)
        };
        Case {
            graph,
            split,
            net,
            cfg,
            framework,
            app,
            source,
        }
    }

    /// A mesh case: a road network or a full grid of 33 to 71 vertices a
    /// side on `Partition::block` over 2 to 8 PEs, running BFS or CC. A
    /// block's PE offers only into the bands next to its own, so its mirror
    /// can stay paged.
    fn draw_mesh(case: u32) -> Self {
        let mut rng = TestRng::for_case("differential_mesh", case);
        let (w, h) = (draw(&mut rng, 33..72), draw(&mut rng, 33..72));
        let graph = match draw(&mut rng, 0..2) {
            0 => GraphSpec::Road {
                w,
                h,
                seed: draw(&mut rng, 0..1 << 20),
            },
            _ => GraphSpec::Grid { w, h },
        };
        let net = match draw(&mut rng, 0..3) {
            0 => Net::Daisy(draw(&mut rng, 2..5)),
            1 => Net::Summit(draw(&mut rng, 2..7)),
            _ => Net::Ib(draw(&mut rng, 2..9)),
        };
        let cfg = draw_config(&mut rng);
        let framework = pick(&mut rng, &FRAMEWORKS);
        let app = pick(&mut rng, &[App::Bfs, App::Cc]);
        let source = draw(&mut rng, 0..(w * h) as VertexId);
        Case {
            graph,
            split: Split::Block,
            net,
            cfg,
            framework,
            app,
            source,
        }
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
    (
        s.elapsed_ns,
        s.sim_events,
        s.messages,
        s.wire_bytes,
        s.tasks_per_pe.clone(),
    )
}

/// The configuration `case` runs under on the Atos runtime; `None` for
/// the bulk-synchronous schedule.
fn config(case: &Case, g: &Csr) -> Option<AtosConfig> {
    match case.framework {
        Framework::Atos => Some(case.cfg),
        Framework::Groute => Some(groute_config()),
        Framework::Galois => Some(galois_config(g)),
        Framework::Bsp => None,
    }
}

/// One run of `case`: its answer and, on the simulator, its stats.
fn run(case: &Case, g: &Arc<Csr>, part: &Arc<Partition>) -> (Answer, Option<RunStats>) {
    let (g, part, fabric) = (g.clone(), part.clone(), case.net.build());
    let (cfg, src) = (config(case, &g), case.source);
    let (answer, stats) = match case.app {
        App::Bfs => {
            let (depth, stats) = match cfg {
                Some(cfg) => {
                    let r = run_bfs(g, part, src, fabric, cfg);
                    (r.depth, r.stats)
                }
                None => {
                    let r = bsp_bfs(g, part, src, fabric);
                    (r.depth, r.stats)
                }
            };
            (Answer::Depth(depth), stats)
        }
        App::PageRank { alpha } => {
            let (rank, stats) = match cfg {
                Some(cfg) => {
                    let r = run_pagerank(g, part, alpha, EPS, fabric, cfg);
                    (r.rank, r.stats)
                }
                None => {
                    let r = bsp_pagerank(g, part, alpha, EPS, fabric);
                    (r.rank, r.stats)
                }
            };
            (
                Answer::Rank(rank.iter().map(|x| x.to_bits()).collect()),
                stats,
            )
        }
        App::Cc => {
            let g = Arc::new(g.symmetrize());
            let (label, stats) = match cfg {
                Some(cfg) => {
                    let r = run_cc(g, part, fabric, cfg);
                    (r.label, r.stats)
                }
                None => {
                    let mut app = BfsApp::components(g, part.clone());
                    let (stats, _) = run_bsp(&mut app, fabric, cc_seeds(&part));
                    (app.depth, stats)
                }
            };
            (Answer::Label(label), stats)
        }
        App::Sssp {
            split,
            delta,
            max_weight,
            seed,
        } => {
            let w = Arc::new(EdgeWeights::random(&g, max_weight, seed));
            let (dist, stats) = match cfg {
                Some(cfg) => {
                    let go = if split { run_sssp_delta } else { run_sssp };
                    let r = go(g, w, part, src, delta, fabric, cfg);
                    (r.dist, r.stats)
                }
                None => {
                    let mut seeds = vec![Vec::new(); part.n_parts()];
                    let (mut app, kind) = if split {
                        (
                            SsspApp::new_split(g, w, part.clone(), src, delta),
                            KIND_LIGHT,
                        )
                    } else {
                        (SsspApp::new(g, w, part.clone(), src, delta), KIND_FULL)
                    };
                    seeds[part.owner(src)].push((src, 0, kind));
                    let (stats, _) = run_bsp(&mut app, fabric, seeds);
                    (app.dist, stats)
                }
            };
            (Answer::Dist(dist), stats)
        }
        App::HostBfs => return (Answer::Depth(host_bfs(g, part, src, None).depth), None),
    };
    (answer, Some(stats))
}

/// Every vertex labelled with itself, on its owner: CC's seeds.
fn cc_seeds(part: &Partition) -> Vec<Vec<(VertexId, u32)>> {
    (0..part.n_parts())
        .map(|pe| part.vertices_of(pe).into_iter().map(|v| (v, v)).collect())
        .collect()
}

/// One more run of a BFS or CC `case`, as `run` makes it, returning the
/// finished application for its mirrors.
fn finished_bfs_app(case: &Case, g: &Arc<Csr>, part: &Arc<Partition>) -> BfsApp {
    let (mut app, seeds) = match case.app {
        App::Bfs => {
            let mut seeds = vec![Vec::new(); part.n_parts()];
            seeds[part.owner(case.source)].push((case.source, 0));
            (BfsApp::new(g.clone(), part.clone(), case.source), seeds)
        }
        App::Cc => (
            BfsApp::components(Arc::new(g.symmetrize()), part.clone()),
            cc_seeds(part),
        ),
        app => unreachable!("{app:?} keeps no BfsApp mirror"),
    };
    match config(case, g) {
        Some(cfg) => {
            let mut rt = Runtime::new(app, case.net.build(), cfg);
            for (pe, tasks) in seeds.into_iter().enumerate() {
                rt.seed(pe, tasks);
            }
            rt.run();
            rt.into_app()
        }
        None => {
            run_bsp(&mut app, case.net.build(), seeds);
            app
        }
    }
}

/// Property 1: the answer the serial reference computes.
fn check_answer(case: &Case, g: &Csr, answer: &Answer) {
    match (case.app, answer) {
        (
            App::Sssp {
                max_weight, seed, ..
            },
            Answer::Dist(dist),
        ) => {
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
    assert_eq!(
        schedule(&stats_again),
        schedule(&stats),
        "a rerun's schedule differs"
    );
    let bound = (n_pes * (n_pes + 2)) as u64;
    let peak = stats.peak_pending_events;
    assert!(
        peak <= bound,
        "{peak} pending events, more than n_pes·(n_pes+2) = {bound}"
    );
}

/// Prints the failing case, index, case count and input, while its check
/// unwinds.
struct Report<'a>(u32, u32, &'a Case);

impl Drop for Report<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "differential: case {} of {} failed: {:#?}",
                self.0, self.1, self.2
            );
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
                    let _report = Report(i, CASES, &case);
                    check(&case);
                }
            });
        }
    });
}

#[test]
fn meshes_keep_some_bfs_mirror_paged() {
    let mut paged = 0;
    for i in 0..MESH_CASES {
        let case = Case::draw_mesh(i);
        let _report = Report(i, MESH_CASES, &case);
        check(&case);
        let g = Arc::new(case.graph.build());
        let n_pes = case.net.n_pes();
        let part = Arc::new(case.split.build(&g, n_pes));
        // Every mirror dense holds at least `n` slots per PE.
        let dense = n_pes * g.n_vertices() * std::mem::size_of::<u32>();
        paged += (finished_bfs_app(&case, &g, &part).mirror_bytes() < dense) as u32;
    }
    assert!(
        paged > 0,
        "all {MESH_CASES} mesh cases ended with every mirror dense"
    );
}
