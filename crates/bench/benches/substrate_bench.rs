//! Criterion benchmarks for the substrates themselves (host wall-clock):
//! graph generation, CSR construction, partitioning, the event engine,
//! the runtime's allocation-free dispatch path, and end-to-end simulated
//! runs at test scale. These guard against performance regressions in the
//! simulator — the virtual-time results in the tables are only cheap to
//! regenerate if the simulator stays fast.
//!
//! Shared inputs (the RMAT graph, the preset graph + partition) are built
//! through the sweep harness so setup fans out when host cores allow;
//! measurements themselves run serially for stable numbers.

use std::sync::Arc;

use criterion::Criterion;

use atos_apps::bfs::run_bfs;
use atos_bench::sweep::{default_threads, BenchArgs, SweepReport, SweepRunner};
use atos_core::{Application, AtosConfig, CommMode, Emitter, Runtime};
use atos_graph::csr::Csr;
use atos_graph::generators::{rmat, Preset, Scale};
use atos_graph::partition::Partition;
use atos_sim::{Engine, Fabric};

fn bench_generators(c: &mut Criterion) {
    c.bench_function("rmat_scale14_200k_edges", |b| {
        b.iter(|| rmat(14, 200_000, (0.57, 0.19, 0.19, 0.05), 1))
    });
    c.bench_function("road_network_128x128", |b| {
        b.iter(|| atos_graph::generators::road_network(128, 128, 1))
    });
}

fn bench_partitioners(c: &mut Criterion, g: &Csr) {
    c.bench_function("partition_bfs_grow_4", |b| {
        b.iter(|| Partition::bfs_grow(g, 4, 1))
    });
    c.bench_function("partition_random_4", |b| {
        b.iter(|| Partition::random(g.n_vertices(), 4, 1))
    });
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine_100k_events", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            for i in 0..100_000u64 {
                e.schedule_at(i % 977, i);
            }
            let mut n = 0u64;
            while e.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    c.bench_function("engine_100k_events_batched", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            e.schedule_batch((0..100_000u64).map(|i| (i % 977, i)));
            let mut n = 0u64;
            while e.pop().is_some() {
                n += 1;
            }
            n
        })
    });
}

/// Relay task bouncing between two PEs: every hop is one remote message,
/// so this isolates the dispatch/send/arrive path the allocation work
/// targeted (per-PE staging + pooled payloads; see runtime.rs).
struct Relay;

impl Application for Relay {
    type Task = u32;

    fn process(&mut self, pe: usize, task: u32, out: &mut Emitter<u32>) {
        if task > 0 {
            out.push(1 - pe, task - 1);
        }
    }

    fn on_receive(&mut self, _pe: usize, task: u32) -> Option<u32> {
        Some(task)
    }

    fn task_edges(&self, _t: &u32) -> u64 {
        1
    }
}

fn bench_dispatch(c: &mut Criterion) {
    c.bench_function("runtime_relay_20k_hops_direct", |b| {
        b.iter(|| {
            let mut rt = Runtime::new(
                Relay,
                Fabric::daisy(2),
                AtosConfig {
                    comm: CommMode::Direct { group: 32 },
                    ..AtosConfig::standard_persistent()
                },
            );
            rt.seed(0, [20_000u32]);
            rt.run().messages
        })
    });
}

/// Tracing overhead on the same relay workload: `NullTracer` (the
/// default, must cost nothing beyond `runtime_relay_20k_hops_direct`)
/// vs a live [`atos_core::TraceBuffer`] recording every step span and
/// message instant.
fn bench_tracer_overhead(c: &mut Criterion) {
    use atos_core::{NullTracer, RuntimeTuning, TraceBuffer};
    use atos_sim::GpuCostModel;

    let cfg = || AtosConfig {
        comm: CommMode::Direct { group: 32 },
        ..AtosConfig::standard_persistent()
    };
    c.bench_function("runtime_relay_20k_hops_null_tracer", |b| {
        b.iter(|| {
            let mut rt = Runtime::with_tracer(
                Relay,
                Fabric::daisy(2),
                cfg(),
                GpuCostModel::v100(),
                RuntimeTuning::default(),
                NullTracer,
            );
            rt.seed(0, [20_000u32]);
            rt.run().messages
        })
    });
    c.bench_function("runtime_relay_20k_hops_trace_buffer", |b| {
        b.iter(|| {
            let mut rt = Runtime::with_tracer(
                Relay,
                Fabric::daisy(2),
                cfg(),
                GpuCostModel::v100(),
                RuntimeTuning::default(),
                TraceBuffer::new(),
            );
            rt.seed(0, [20_000u32]);
            let msgs = rt.run().messages;
            (msgs, rt.tracer().len())
        })
    });
}

fn bench_end_to_end(c: &mut Criterion, g: Arc<Csr>, src: atos_graph::csr::VertexId, part: Arc<Partition>) {
    c.bench_function("sim_bfs_tiny_4gpu_persistent", |b| {
        b.iter(|| {
            run_bfs(
                g.clone(),
                part.clone(),
                src,
                Fabric::daisy(4),
                AtosConfig::standard_persistent(),
            )
        })
    });
}

/// Parallel-built shared inputs (one sweep cell each).
enum Setup {
    Rmat(Csr),
    EndToEnd(Arc<Csr>, atos_graph::csr::VertexId, Arc<Partition>),
}

fn main() {
    let args = BenchArgs {
        scale: Scale::Tiny,
        threads: default_threads(),
        json: None,
        trace: None,
        metrics: None,
        flight_dump: None,
        run_id: None,
        run: atos_bench::RunConfig::default(),
    };
    let report = SweepReport::start("substrate_bench", &args);
    let mut built = SweepRunner::from_args(&args).run(&[0usize, 1], |_, &which| match which {
        0 => Setup::Rmat(rmat(14, 200_000, (0.57, 0.19, 0.19, 0.05), 1)),
        _ => {
            let p = Preset::by_name("soc-LiveJournal1_s").unwrap();
            let g = Arc::new(p.build(Scale::Tiny));
            let src = p.bfs_source(&g);
            let part = Arc::new(Partition::bfs_grow(&g, 4, 1));
            Setup::EndToEnd(g, src, part)
        }
    });
    let Setup::EndToEnd(g, src, part) = built.pop().unwrap() else {
        unreachable!()
    };
    let Setup::Rmat(rmat_graph) = built.pop().unwrap() else {
        unreachable!()
    };

    let mut c = Criterion::default().sample_size(10);
    bench_generators(&mut c);
    bench_partitioners(&mut c, &rmat_graph);
    bench_engine(&mut c);
    bench_dispatch(&mut c);
    bench_tracer_overhead(&mut c);
    bench_end_to_end(&mut c, g, src, part);
    report.finish();
}
