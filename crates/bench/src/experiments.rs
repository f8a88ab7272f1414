//! The experiments that are not framework grids: one function per
//! artifact, each `fn(&BenchArgs)` as [`crate::registry::Body::Custom`]
//! expects. They print their table to stdout (byte-identical at any
//! `--threads`) and leave timing to `atos-bench`.

use std::sync::Arc;

use atos_apps::bfs::{run_bfs, BfsApp};
use atos_apps::pagerank::run_pagerank;
use atos_apps::sssp::{run_sssp, run_sssp_delta};
use atos_baselines::{bsp_bfs, bsp_pagerank, groute_bfs};
use atos_core::{AtosConfig, RunStats, Runtime, WorkerConfig, WorkerSize};
use atos_graph::generators::{GraphKind, Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::stats::stats;
use atos_graph::weights::EdgeWeights;
use atos_queue::bench_harness::{run as queue_run, Experiment, QueueKind, OPS_PER_VIRTUAL_THREAD};
use atos_sim::packet::{figure2_series, PacketModel};
use atos_sim::{ControlPath, Fabric, PeId};

use crate::sweep::{BenchArgs, SweepRunner};
use crate::{relative_speedup, Dataset, ALPHA, EPSILON};

/// Table I: vertex/edge counts, estimated diameter, degree extremes and
/// the structural family of each scaled preset, to be compared against
/// the paper's originals (EXPERIMENTS.md holds the side-by-side).
/// Dataset construction + statistics are the cost, so each preset is one
/// sweep cell.
pub fn table1_datasets(args: &BenchArgs) {
    println!("Table I: summary of the datasets (scaled presets, {:?})", args.scale);
    println!(
        "{:<22}{:>10}{:>12}{:>8}{:>12}{:>12}{:>8}  type",
        "Dataset", "Vertices", "Edges", "Diam.", "Max indeg", "Max outdeg", "Avg",
    );
    let rows = SweepRunner::new(args.threads).run(&Preset::ALL, |_, preset| {
        let ds = Dataset::build(*preset, args.scale);
        let s = stats(&ds.graph);
        format!(
            "{:<22}{:>10}{:>12}{:>8}{:>12}{:>12}{:>8.1}  {}",
            ds.preset.name,
            s.vertices,
            s.edges,
            s.diameter_est,
            s.max_in_degree,
            s.max_out_degree,
            s.avg_degree,
            match ds.preset.kind {
                GraphKind::ScaleFree => "scale-free",
                GraphKind::MeshLike => "mesh-like",
            }
        )
    });
    for row in rows {
        println!("{row}");
    }
}

/// Delta-stepping bucket width for Table III's SSSP block (weights are
/// 1..=64, so delta 8 leaves most edges heavy — the regime where the
/// light/heavy split matters).
const SSSP_DELTA: u64 = 8;
/// Maximum edge weight for the SSSP block's synthetic weights.
const SSSP_MAX_WEIGHT: u32 = 64;
/// Seed for the SSSP block's synthetic weights.
const SSSP_WEIGHT_SEED: u64 = 1;

/// Table III: normalized BFS workload without → with the priority queue,
/// plus the same priority story told end-to-end for SSSP.
///
/// The BFS block counts total vertex visits normalized by an ideal
/// traversal that visits each reachable vertex exactly once, for the
/// scale-free datasets on 1–4 NVLink GPUs. The paper's claim: speculation
/// causes redundant work that grows with GPU count, and depth-ordered
/// priority scheduling reduces it. The SSSP block compares Dijkstra-order
/// SSSP (priority queue, delta = 1 — work-optimal but serializing)
/// against light/heavy split delta-stepping (delta = 8) in virtual ms;
/// both are asserted to produce identical distances before either number
/// is printed.
pub fn table3_priority_workload(args: &BenchArgs) {
    let gpus = [1usize, 2, 3, 4];
    let datasets: Vec<Dataset> = Dataset::all(args.scale)
        .into_iter()
        .filter(|ds| ds.preset.kind == GraphKind::ScaleFree)
        .collect();
    let cells: Vec<(usize, usize)> = (0..datasets.len())
        .flat_map(|d| gpus.iter().map(move |&g| (d, g)))
        .collect();
    let header = |width: usize| {
        print!("{:<22}", "Dataset");
        for g in gpus {
            print!("{:>width$}", format!("{g} GPU{}", if g > 1 { "s" } else { "" }));
        }
        println!();
    };
    let body = |width: usize, pairs: &[(f64, f64)]| {
        for (ds, row) in datasets.iter().zip(pairs.chunks(gpus.len())) {
            print!("{:<22}", ds.preset.name);
            for (without, with) in row {
                print!("{:>width$}", format!("{without:.3} -> {with:.3}"));
            }
            println!();
        }
    };

    let pairs = SweepRunner::new(args.threads).run(&cells, |_, &(d, g)| {
        let ds = &datasets[d];
        let part = ds.partition(g);
        let bfs = |cfg: AtosConfig| {
            let (graph, part, fabric) = (ds.graph.clone(), part.clone(), Fabric::daisy(g));
            run_bfs(graph, part, ds.source, fabric, cfg)
        };
        let fifo = bfs(AtosConfig::standard_persistent());
        let prio = bfs(AtosConfig::priority_discrete());
        (fifo.normalized_workload(), prio.normalized_workload())
    });
    println!("Table III: normalized workload without -> with priority queue");
    header(18);
    body(18, &pairs);

    let sssp_pairs = SweepRunner::new(args.threads).run(&cells, |_, &(d, g)| {
        let ds = &datasets[d];
        let part = ds.partition(g);
        let weights = Arc::new(EdgeWeights::random(&ds.graph, SSSP_MAX_WEIGHT, SSSP_WEIGHT_SEED));
        let cfg = AtosConfig::priority_discrete();
        let dij = run_sssp(
            ds.graph.clone(),
            weights.clone(),
            part.clone(),
            ds.source,
            1,
            Fabric::daisy(g),
            cfg,
        );
        let delta = run_sssp_delta(
            ds.graph.clone(),
            weights,
            part,
            ds.source,
            SSSP_DELTA,
            Fabric::daisy(g),
            cfg,
        );
        assert_eq!(
            delta.dist, dij.dist,
            "delta-stepping diverged from Dijkstra-order on {} at {g} GPUs",
            ds.preset.name
        );
        (dij.stats.elapsed_ms(), delta.stats.elapsed_ms())
    });
    println!();
    println!("SSSP: Dijkstra-order (delta=1) -> delta-stepping (delta={SSSP_DELTA}), virtual ms");
    header(22);
    body(22, &sssp_pairs);
}

/// Figure 1: runtime of concurrent push / pop / pop-and-push vs. thread
/// count for the counter queue (warp and CTA workers), the broker queue,
/// and the CAS queue (warp and CTA).
///
/// The one experiment that runs on *real host threads and atomics*, not
/// the simulator. The measurement loop stays serial regardless of
/// `--threads`: fanning contention measurements over sweep workers would
/// have them steal each other's cores and corrupt the timings.
pub fn fig1_queue(args: &BenchArgs) {
    let points: Vec<usize> = if args.scale == Scale::Tiny {
        vec![1 << 10, 1 << 13]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 96 * 1024, 128 * 1024]
    };
    println!(
        "Figure 1: queue microbenchmarks ({} ops per virtual thread)",
        OPS_PER_VIRTUAL_THREAD
    );
    for exp in Experiment::ALL {
        println!("\n== {} ==", exp.label());
        print!("{:<18}", "#threads");
        for kind in QueueKind::ALL {
            print!("{:>18}", kind.label());
        }
        println!();
        for &n in &points {
            print!("{n:<18}");
            for kind in QueueKind::ALL {
                // Median of 3 to damp scheduler noise.
                let mut ts: Vec<f64> = (0..3)
                    .map(|_| queue_run(kind, exp, n).elapsed.as_secs_f64() * 1e3)
                    .collect();
                ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
                print!("{:>18}", format!("{:.3} ms", ts[1]));
            }
            println!();
        }
    }
}

/// Figure 2: bandwidth efficiency (fraction of wire bytes that are
/// payload) vs. requested bytes, on PCIe gen 3 and NVLink — closed-form
/// packet-model evaluations.
pub fn fig2_efficiency(_args: &BenchArgs) {
    println!("Figure 2: bandwidth efficiency vs requested bytes");
    println!("{:<18}{:>14}{:>14}", "requested bytes", "PCIe gen 3", "NVLink");
    let pcie = figure2_series(PacketModel::PcieGen3);
    let nv = figure2_series(PacketModel::NvLink);
    for (p, n) in pcie.iter().zip(&nv) {
        assert_eq!(p.0, n.0);
        println!("{:<18}{:>13.1}%{:>13.1}%", p.0, p.1 * 100.0, n.1 * 100.0);
    }
}

/// Figure 4: message latency and achieved bandwidth vs. message size on
/// the InfiniBand system; identifies the batch-size sweet spot the
/// aggregator uses (the paper picks 2^20 B).
///
/// "each send is performed as a blocking send operation followed by a
/// system memory fence ... and a remote counter update" — modeled as a
/// GPU-initiated transfer of the payload followed by an 8-byte counter
/// update on the same path. Each message size is one sweep cell (a fresh
/// two-node fabric per point, so cells are independent).
pub fn fig4_ib_sweep(args: &BenchArgs) {
    println!("Figure 4: IB latency and bandwidth vs message size");
    println!(
        "{:<14}{:>16}{:>18}",
        "log2(bytes)", "latency (ms)", "bandwidth (GB/s)"
    );
    let cp = ControlPath::gpu_direct();
    let sizes: Vec<u32> = (0..=30u32).collect();
    let points = SweepRunner::new(args.threads).run(&sizes, |_, &lg| {
        let bytes = 1u64 << lg;
        let mut fabric = Fabric::ib_cluster(2);
        let arrive = fabric.transfer(0, PeId(0), PeId(1), bytes, cp);
        // Trailing 8-byte counter update (flag the receiver).
        let done = fabric.transfer(arrive, PeId(0), PeId(1), 8, cp);
        let latency_ms = done as f64 / 1e6;
        let bw = bytes as f64 / (done as f64); // bytes/ns == GB/s
        (latency_ms, bw)
    });
    let mut best = (0u32, f64::MAX);
    for (lg, &(latency_ms, bw)) in sizes.iter().zip(&points) {
        println!("{lg:<14}{latency_ms:>16.4}{bw:>18.3}");
        // Score the latency/bandwidth knee like the paper: smallest size
        // within 90% of peak bandwidth.
        if bw > 0.9 * 12.5 && latency_ms < best.1 {
            best = (*lg, latency_ms);
        }
    }
    println!(
        "\nKnee: 2^{} bytes reaches >90% of peak injection bandwidth at {:.3} ms latency",
        best.0, best.1
    );
    println!("(The paper selects BATCH_SIZE = 2^20 B = 1 MiB.)");
}

/// Figures 6 & 7: latency tolerance across NVLink topologies.
///
/// Figure 6 contrasts the all-to-all Daisy topology with a Summit node's
/// dual-socket layout, where cross-socket traffic pays X-bus latency.
/// Figure 7 strong-scales Gunrock vs Atos on one Summit node (1–6 GPUs)
/// for BFS and PageRank on soc-LiveJournal1 and indochina, showing
/// Gunrock's scaling collapse beyond 3 GPUs and Atos's latency tolerance.
/// Not a [`crate::registry::GridSpec`] row: the fabric, the two-framework
/// pairing and the always-BFS-grown partition are this figure's alone.
pub fn fig7_summit_node(args: &BenchArgs) {
    let gpus = [1usize, 2, 3, 4, 5, 6];
    let names = ["soc-LiveJournal1_s", "indochina_2004_s"];
    let apps = ["BFS", "PageRank"];
    let frameworks = ["Gunrock", "Atos"];
    let datasets: Vec<Dataset> = names.iter().map(|n| Dataset::named(n, args.scale)).collect();

    let mut cells: Vec<(usize, usize, usize, usize)> = Vec::new();
    for d in 0..datasets.len() {
        for a in 0..apps.len() {
            for f in 0..frameworks.len() {
                for &g in &gpus {
                    cells.push((d, a, f, g));
                }
            }
        }
    }
    let ms = SweepRunner::new(args.threads).run(&cells, |_, &(d, a, f, g)| {
        let ds = &datasets[d];
        let graph = ds.graph.clone();
        let part = if g == 1 {
            Arc::new(Partition::single(graph.n_vertices()))
        } else {
            Arc::new(Partition::bfs_grow(&graph, g, 42))
        };
        let fabric = Fabric::summit_node(g);
        let stats = match (frameworks[f], apps[a]) {
            ("Gunrock", "BFS") => bsp_bfs(graph, part, ds.source, fabric).stats,
            ("Gunrock", _) => bsp_pagerank(graph, part, ALPHA, EPSILON, fabric).stats,
            (_, "BFS") => {
                let cfg = AtosConfig::priority_discrete();
                run_bfs(graph, part, ds.source, fabric, cfg).stats
            }
            _ => {
                let cfg = AtosConfig::standard_discrete();
                run_pagerank(graph, part, ALPHA, EPSILON, fabric, cfg).stats
            }
        };
        stats.elapsed_ms()
    });

    println!("Figure 7: strong scaling on one Summit node (dual-socket NVLink)");
    println!("(Figure 6's two topologies are Fabric::daisy and Fabric::summit_node.)");
    let mut series = ms.chunks(gpus.len());
    for name in names {
        for app in apps {
            println!("\n-- {app}-{name} --");
            print!("{:<22}", "framework");
            for g in gpus {
                print!("{:>10}", format!("{g} GPU"));
            }
            println!();
            for fw in frameworks {
                print!("{fw:<22}");
                for r in relative_speedup(series.next().expect("one series per framework")) {
                    print!("{r:>10.2}");
                }
                println!();
            }
        }
    }
}

/// Ablation: communication smoothing.
///
/// The paper's claim (Sections I and IV): Atos's spread-out, fine-grained
/// communication "smooths the spikes in network communication that
/// typically occur when communication is isolated in a single phase".
/// This quantifies it: traffic burstiness (coefficient of variation of
/// wire bytes per [`atos_sim::trace::BUCKET_NS`] bucket) and wire volume
/// for each framework on the same workload. The five framework runs are
/// independent; each is one sweep cell.
pub fn ablation_smoothing(args: &BenchArgs) {
    let ds = Dataset::named("soc-LiveJournal1_s", args.scale);
    let part = ds.partition(4);

    println!("Communication smoothing, BFS + PageRank on soc-LiveJournal1_s, 4 GPUs\n");
    println!(
        "{:<42}{:>12}{:>12}{:>14}{:>16}",
        "framework", "time (ms)", "messages", "burstiness", "wire MB"
    );
    let labels = [
        "BFS: Gunrock-like (BSP)",
        "BFS: Groute-like",
        "BFS: Atos (queue+persistent)",
        "PR: Gunrock-like (BSP)",
        "PR: Atos (queue+persistent)",
    ];
    let cells: Vec<usize> = (0..labels.len()).collect();
    let atos_cfg = AtosConfig::standard_persistent();
    let runs: Vec<RunStats> = SweepRunner::new(args.threads).run(&cells, |_, &which| {
        let (graph, part, fabric) = (ds.graph.clone(), part.clone(), Fabric::daisy(4));
        match which {
            0 => bsp_bfs(graph, part, ds.source, fabric).stats,
            1 => groute_bfs(graph, part, ds.source, fabric).stats,
            2 => run_bfs(graph, part, ds.source, fabric, atos_cfg).stats,
            3 => bsp_pagerank(graph, part, ALPHA, EPSILON, fabric).stats,
            _ => run_pagerank(graph, part, ALPHA, EPSILON, fabric, atos_cfg).stats,
        }
    });
    for (label, stats) in labels.iter().zip(&runs) {
        println!(
            "{:<42}{:>12.3}{:>12}{:>14.2}{:>16.1}",
            label,
            stats.elapsed_ms(),
            stats.messages,
            stats.burstiness.unwrap_or(f64::NAN),
            stats.wire_bytes as f64 / 1e6,
        );
    }

    println!("\nLower burstiness = smoother interconnect usage. BSP isolates all");
    println!("traffic at iteration barriers; Atos issues one-sided pushes from");
    println!("inside the kernel, spreading bytes across the whole runtime.");
}

/// Ablation: worker granularity (thread / warp / CTA) and fetch size.
///
/// The paper fixes 512-thread CTA workers ("which achieve the best
/// performance for both BFS and PageRank") citing its single-GPU
/// predecessor for the sweep; this reproduces that sweep on the
/// simulator's cost model: smaller workers lose neighbor-list coalescing
/// (higher per-edge cost), larger fetch amortizes pops but delays
/// communication. Each point builds its own `Runtime` on the worker
/// shape's cost model under its own configuration.
pub fn ablation_worker(args: &BenchArgs) {
    let ds = Dataset::named("soc-LiveJournal1_s", args.scale);
    let part = ds.partition(4);

    println!("Worker-shape ablation: BFS soc-LiveJournal1_s, 4 NVLink GPUs\n");
    println!(
        "{:<14}{:>8}{:>14}{:>14}{:>12}",
        "worker", "fetch", "time (ms)", "steps", "messages"
    );
    let shapes = [
        ("thread", WorkerSize::Thread),
        ("warp", WorkerSize::Warp),
        ("cta-256", WorkerSize::Cta(256)),
        ("cta-512", WorkerSize::Cta(512)),
    ];
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for s in 0..shapes.len() {
        for fetch in [8usize, 32, 128] {
            cells.push((s, fetch));
        }
    }
    let rows = SweepRunner::new(args.threads).run(&cells, |_, &(s, fetch)| {
        let worker = WorkerConfig {
            size: shapes[s].1,
            fetch,
            num_workers: 160,
        };
        let cfg = AtosConfig {
            worker,
            ..AtosConfig::standard_persistent()
        };
        let app = BfsApp::new(ds.graph.clone(), part.clone(), ds.source);
        let mut rt = Runtime::with_cost_model(app, Fabric::daisy(4), cfg, worker.cost_model());
        rt.seed(part.owner(ds.source), [(ds.source, 0u32)]);
        let stats = rt.run();
        format!(
            "{:<14}{:>8}{:>14.3}{:>14}{:>12}",
            shapes[s].0,
            fetch,
            stats.elapsed_ms(),
            stats.steps_per_pe.iter().sum::<u64>(),
            stats.messages
        )
    });
    for r in rows {
        println!("{r}");
    }
    println!("\nCTA workers win on scale-free graphs: coalesced neighbor-list");
    println!("reads dominate, and the per-pop overhead amortizes across lanes.");
}
