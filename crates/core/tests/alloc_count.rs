//! Allocation accounting for every hot function: the one allocation guard.
//!
//! The dispatcher used to build a `BTreeMap<usize, Vec<Task>>` per flush
//! and `to_vec()` every chunk it sent — at least two heap allocations per
//! message. Now a destination's run is written into pooled chunks that
//! leave the emitter as trains, messages are 40-byte cars, and emptied
//! chunks return to their class in the pool: the steady state sends and
//! receives without touching the allocator. This test pins that down with a counting global allocator.
//!
//! Every function that says it is hot (`#[atos_hot]` / `// atos-lint:
//! hot`, read by `atos_lint::lints::hot_marker`) in the runtime's crates
//! runs inside one of the counted windows below, and [`COVERED`] names
//! which. A runtime window runs the same scenario at `n` and `2n` tasks and
//! its counts may differ by at most [`GROWTH`] — warm-up growth of queues,
//! lanes, heap and pool, about one allocation per doubling — so an
//! allocation on any message, however rare, fails it. The queue, hint and
//! engine windows own no growable storage and read exactly 0.
//!
//! One `#[test]`: the counter is process-global, so nothing else in this
//! binary may allocate while a window is open. The coverage check parses
//! source and runs first, before any window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
#[allow(
    clippy::disallowed_types,
    reason = "the counting allocator's counter, below"
)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use atos_apps::pagerank::PrTask;
use atos_apps::sssp::{KIND_FULL, KIND_HEAVY, KIND_LIGHT};
use atos_apps::{BfsApp, PageRankApp, SsspApp};
use atos_core::{
    run_host, Application, AtosConfig, CommMode, Emitter, HostApplication, HostConfig, Lookahead,
    NullTracer, Runtime,
};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::prefetch::prefetch;
use atos_graph::weights::EdgeWeights;
use atos_lint::{lints::hot_marker, Workspace};
use atos_queue::broker::BrokerQueue;
use atos_queue::cas::CasQueue;
use atos_queue::counter::CounterQueue;
use atos_queue::{ConcurrentQueue, PopState, QueueFull};
use atos_sim::{Engine, Fabric};

struct CountingAlloc;

#[allow(
    clippy::disallowed_types,
    reason = "the counting allocator is a measurement instrument; routing its counter through \
              the facade would make it depend on the machinery it measures around"
)]
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only addition is
// a Relaxed counter bump, which does not allocate or touch the layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; delegated unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract, same layout, delegated to System.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; delegated unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (System underneath).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; delegated unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator; layout/new_size forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls made while `f` runs, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let r = f();
    (ALLOC_CALLS.load(Ordering::Relaxed) - before, r)
}

/// How far a window's count may move when its task count doubles. Warm-up
/// grows by about one allocation per doubling (direct relay at 10 k / 20 k
/// / 40 k hops: 30 / 31 / 32).
const GROWTH: u64 = 4;

/// Run `window` at `n` and `2n` tasks: the allocation counts may differ by
/// at most [`GROWTH`].
fn assert_no_growth(name: &str, n: u32, window: impl Fn(u32) -> u64) {
    let (at_n, at_2n) = (window(n), window(2 * n));
    assert!(
        at_2n.abs_diff(at_n) <= GROWTH,
        "{name}: {at_n} allocations at {n} tasks, {at_2n} at {}: the count grows with the work",
        2 * n
    );
}

/// Every hot-marked function in `crates/{core,sim,queue,graph,apps}/src`,
/// as `file::fn` under `crates/`, with the window that runs it. A trait
/// forwarder has its own row under its inherent method's name.
const COVERED: &[(&str, &str)] = &[
    ("core/src/runtime.rs::note_queue_depth", "every relay: depth accounting on every push/pop"),
    ("core/src/runtime.rs::wake", "every relay: remote arrivals wake the idle peer PE"),
    ("core/src/runtime.rs::step", "every relay: every scheduling step"),
    ("core/src/runtime.rs::process_batch", "every relay: each batch; busy-receiver relay: batches long enough to hint"),
    ("core/src/runtime.rs::absorb_local", "every relay: emitter drain after each step"),
    ("core/src/runtime.rs::run_window", "every relay: every execution window drains through it"),
    ("core/src/comm.rs::dispatch_remote", "every relay: every hop is a remote push"),
    ("core/src/comm.rs::flush_bundle", "aggregated relay: age trigger flushes each bundle; drip: one car over many steps' runs"),
    ("core/src/comm.rs::depart", "every relay: each destination's run leaves the emitter as a train"),
    ("core/src/comm.rs::route", "every relay: fabric routing for every message"),
    ("core/src/comm.rs::egress", "every relay: the egress half of every routed message"),
    ("core/src/emitter.rs::spill", "every relay: each run's first push draws its first chunk"),
    ("core/src/emitter.rs::take", "every relay: under every spill, a pooled chunk of the run's next class"),
    ("core/src/emitter.rs::give", "every relay: a train's chunk goes home to its class when the car over its last task is delivered"),
    ("core/src/comm.rs::merge_records", "every relay: staged cars resolved at every window boundary"),
    ("core/src/comm.rs::file", "every relay: every resolved car pushed onto its lane"),
    ("core/src/comm.rs::arrive", "every relay: a doorbell per arrival at the idle peer PE"),
    ("core/src/comm.rs::settle", "every relay event; busy receiver: steps settle their lanes"),
    ("core/src/comm.rs::deliver", "under every settle and every doorbell"),
    ("core/src/comm.rs::drain_before", "every relay: lane cars delivered in key order; drip: a car handed over train by train"),
    ("core/src/comm.rs::ring_doorbell", "every relay: each barrier, doorbell and step that leaves a PE idle"),
    ("core/src/comm.rs::ring_next", "lockstep relay: every hop's lane car becomes a doorbell event"),
    ("core/src/comm.rs::schedule_agg_poll", "aggregated relay: poll armed per open bundle"),
    ("core/src/comm.rs::agg_poll", "aggregated relay: age-trigger poll per bundle"),
    ("core/src/aggregator.rs::note", "aggregated relay and drip: every run counted into its pair's bundle"),
    ("core/src/aggregator.rs::close", "aggregated relay and drip: every flush closes the record"),
    ("core/src/host.rs::worker", "host relay: every worker thread of `run_host`"),
    ("sim/src/engine.rs::schedule_at", "engine churn + every relay event"),
    ("sim/src/engine.rs::schedule_at_seq", "under every schedule_at; doorbells filed under reserved keys"),
    ("sim/src/engine.rs::pop", "engine churn + every relay's event loop"),
    ("sim/src/engine.rs::pop_before", "every relay: every window pop is horizon-bounded"),
    ("queue/src/counter.rs::push_group", "counter queue churn: `ConcurrentQueue::push_group` and `push`"),
    ("queue/src/counter.rs::push_group", "counter queue churn: the `ConcurrentQueue` forwarder"),
    ("queue/src/counter.rs::push", "counter queue churn: one single-item push per round"),
    ("queue/src/counter.rs::pop_group", "counter queue churn: `ConcurrentQueue::pop_group`"),
    ("queue/src/counter.rs::pop_group", "counter queue churn: the `ConcurrentQueue` forwarder"),
    ("queue/src/counter.rs::drain_claim", "counter queue churn: under every pop_group"),
    ("queue/src/cas.rs::push_group", "CAS queue churn: `ConcurrentQueue::push_group` and `push`"),
    ("queue/src/cas.rs::push_group", "CAS queue churn: the `ConcurrentQueue` forwarder"),
    ("queue/src/cas.rs::push", "CAS queue churn: one single-item push per round"),
    ("queue/src/cas.rs::pop_group", "CAS queue churn: `ConcurrentQueue::pop_group`"),
    ("queue/src/cas.rs::pop_group", "CAS queue churn: the `ConcurrentQueue` forwarder"),
    ("queue/src/broker.rs::push", "broker queue churn: every push, single and grouped"),
    ("queue/src/broker.rs::pop", "broker queue churn: every pop of `pop_group`"),
    ("graph/src/prefetch.rs::prefetch", "every app's hint and the relays' `Relay::prefetch`"),
    ("graph/src/prefetch.rs::prefetch_row", "hints: under the Csr, OwnerGrouped, LightEdges and EdgeWeights rows"),
    ("graph/src/csr.rs::prefetch", "hints: BFS, CC and SSSP's full and heavy tasks"),
    ("graph/src/grouped.rs::prefetch", "hints: PageRank's relaxations"),
    ("graph/src/light.rs::prefetch", "hints: split SSSP's light tasks"),
    ("graph/src/weights.rs::prefetch", "hints: SSSP's full and heavy tasks"),
    ("apps/src/bfs.rs::prefetch", "hints: BfsApp, BFS and components, Far and Near"),
    ("apps/src/pagerank.rs::prefetch", "hints: PageRankApp over relaxations and contributions"),
    ("apps/src/sssp.rs::prefetch", "hints: split SsspApp over light, heavy and full tasks"),
];

/// [`COVERED`] names exactly the functions `hot_marker` marks.
fn assert_every_hot_fn_is_mapped() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut marked = Vec::new();
    for krate in ["core", "sim", "queue", "graph", "apps"] {
        let ws = Workspace::discover(&crates.join(krate).join("src")).expect("read sources");
        for file in &ws.files {
            for f in &file.parsed.fns {
                if hot_marker(file, f).is_some() {
                    marked.push(format!("{krate}/src/{}::{}", file.path, f.name));
                }
            }
        }
    }
    let mut mapped: Vec<String> = COVERED.iter().map(|(key, _)| key.to_string()).collect();
    marked.sort();
    mapped.sort();
    assert_eq!(
        marked, mapped,
        "every hot-marked function must run in a counted window of this file, \
         and `COVERED` must say which"
    );
}

/// A task forwards itself to the next PE until its hop count runs out:
/// every hop is one remote message, so allocation cost per message shows
/// up directly.
struct Relay {
    n_pes: usize,
    /// Hops each PE has forwarded: state for `prefetch` to hint, so the
    /// step's announcement calls run under the allocation counter too.
    forwarded: Vec<u64>,
}

impl Relay {
    fn new(n_pes: usize) -> Self {
        Relay {
            n_pes,
            forwarded: vec![0; n_pes],
        }
    }
}

impl Application for Relay {
    type Task = u32;

    fn process(&mut self, pe: usize, task: u32, out: &mut Emitter<u32>) {
        if task > 0 {
            self.forwarded[pe] += 1;
            out.push((pe + 1) % self.n_pes, task - 1);
        }
    }

    fn prefetch(&self, task: &u32, _ahead: Lookahead) {
        prefetch(&self.forwarded, *task as usize % self.n_pes);
    }

    fn on_receive(&mut self, _pe: usize, task: u32) -> Option<u32> {
        Some(task)
    }

    fn task_edges(&self, _t: &u32) -> u64 {
        1
    }
}

/// PE 0 counts down one step at a time, sending one task to PE 1 per step:
/// under the aggregator, many steps' runs feed one open bundle.
struct Drip;

impl Application for Drip {
    type Task = u32;

    fn process(&mut self, pe: usize, task: u32, out: &mut Emitter<u32>) {
        if pe == 0 {
            out.push(1, task);
            if task > 0 {
                out.push_local(task - 1);
            }
        }
    }

    fn on_receive(&mut self, _pe: usize, task: u32) -> Option<u32> {
        Some(task)
    }

    fn task_edges(&self, _t: &u32) -> u64 {
        1
    }
}

/// The [`Relay`] on the host backend's worker threads.
struct HostRelay;

impl HostApplication for HostRelay {
    type Task = u32;

    fn process(&self, pe: usize, task: u32, push: &mut dyn FnMut(usize, u32)) {
        if task > 0 {
            push(1 - pe, task - 1);
        }
    }
}

fn direct() -> AtosConfig {
    AtosConfig {
        comm: CommMode::Direct { group: 32 },
        ..AtosConfig::standard_persistent()
    }
}

/// Direct (fine-grained) mode: one message per hop. The old dispatcher
/// allocated a BTreeMap node plus a payload vector per message.
fn direct_relay(hops: u32) -> u64 {
    let mut rt = Runtime::new(Relay::new(2), Fabric::daisy(2), direct());
    rt.seed(0, [hops]);
    let (during, stats) = counted(|| rt.run());
    assert_eq!(stats.total_tasks(), hops as u64 + 1);
    assert_eq!(stats.messages, hops as u64);
    during
}

/// Aggregated mode: every hop opens a bundle that the age trigger flushes,
/// so the aggregator flush path (bundle hand-off + payload recycle) runs
/// once per message.
fn aggregated_relay(hops: u32) -> u64 {
    let mut rt = Runtime::new(
        Relay::new(2),
        Fabric::ib_cluster(2),
        AtosConfig::ib_pagerank(),
    );
    rt.seed(0, [hops]);
    let (during, stats) = counted(|| rt.run());
    assert_eq!(stats.total_tasks(), hops as u64 + 1);
    assert_eq!(stats.agg_flushes, stats.messages);
    assert_eq!(stats.agg_flushed_tasks, hops as u64);
    during
}

/// A bundle that spans steps: each of PE 0's steps leaves a one-task run
/// that departs as a train at once and waits in PE 1's lane — dozens deep —
/// until the age trigger cuts one car over all of them. Runs, lane slots
/// and the car's pieces all come out of recycled storage.
fn drip(drips: u32) -> u64 {
    let mut rt = Runtime::new(Drip, Fabric::ib_cluster(2), AtosConfig::ib_pagerank());
    rt.seed(0, [drips - 1]);
    let (during, stats) = counted(|| rt.run());
    assert_eq!(stats.agg_flushed_tasks, drips as u64);
    assert!(
        stats.agg_flushes > 100 && stats.agg_flushes * 10 < drips as u64,
        "{} bundles for {drips} one-task steps (each must span many)",
        stats.agg_flushes
    );
    during
}

/// Tracing disabled (`NullTracer`, spelled out explicitly): the
/// instrumentation hooks in step/route/arrive/flush compile down to nothing.
fn null_tracer_relay(hops: u32) -> u64 {
    let mut rt = Runtime::with_tracer(Relay::new(2), Fabric::daisy(2), direct(), NullTracer);
    rt.seed(0, [hops]);
    let (during, stats) = counted(|| rt.run());
    assert_eq!(stats.messages, hops as u64);
    during
}

/// Busy receiver: every task on PE 0 sends one task to PE 1, which
/// consumes faster than PE 0 produces. PE 1 usually has a step coming when
/// a barrier resolves its arrivals, so they wait in its receive lanes and
/// that step settles them: fewer arrival events than messages is the proof
/// the lane path ran.
fn busy_receiver(tasks: u32) -> u64 {
    let mut rt = Runtime::new(Relay::new(2), Fabric::daisy(2), direct());
    rt.seed(0, std::iter::repeat_n(1u32, tasks as usize));
    let (during, stats) = counted(|| rt.run());
    assert_eq!(stats.remote_tasks, tasks as u64);
    assert!(
        stats.ev_arrivals > 0 && stats.ev_arrivals < stats.messages,
        "busy receiver: {} arrival events for {} messages (lanes must carry some, doorbells some)",
        stats.ev_arrivals,
        stats.messages
    );
    during
}

/// Lane car → doorbell conversion: two tokens in lockstep under
/// kernel-boundary communication. Both PEs step at once and send when
/// their kernel ends, so the barrier files each car while its receiver
/// still has its follow-up step scheduled — into the lanes — and that step,
/// at kernel end, finds nothing yet and goes idle: every hop's car is
/// converted to a doorbell event by `ring_next`.
fn lockstep_relay(hops: u32) -> u64 {
    let cfg = AtosConfig {
        in_kernel_comm: false,
        ..AtosConfig::standard_discrete()
    };
    let mut rt = Runtime::new(Relay::new(2), Fabric::daisy(2), cfg);
    rt.seed(0, [hops / 2]);
    rt.seed(1, [hops / 2]);
    let (during, stats) = counted(|| rt.run());
    assert_eq!(stats.messages, hops as u64);
    assert_eq!(
        stats.ev_arrivals, stats.messages,
        "every car rang its own doorbell"
    );
    during
}

/// The host backend end to end: `run_host` spawns one worker per PE, and a
/// token crosses between them `hops` times. The arenas, threads and stats
/// are a fixed cost; the worker loop adds nothing per task.
fn host_relay(hops: u32) -> u64 {
    let cfg = HostConfig {
        n_pes: 2,
        workers_per_pe: 1,
        fetch: 32,
        queue_capacity: hops as usize + 1,
    };
    let seeds = vec![vec![hops], vec![]];
    let (during, stats) = counted(|| run_host(&HostRelay, cfg, seeds));
    assert_eq!(stats.tasks_per_pe.iter().sum::<u64>(), hops as u64 + 1);
    assert_eq!(stats.remote_pushes, hops as u64);
    during
}

/// Push/pop churn on one queue family, through [`ConcurrentQueue`] and the
/// single-item `push`, into an `out` reserved before the window: the arena
/// is the only storage, and it exists before the window opens.
fn queue_churn<Q: ConcurrentQueue<u32>>(
    make: impl Fn(usize) -> Q,
    push: impl Fn(&Q, u32) -> Result<(), QueueFull>,
) -> u64 {
    const ROUNDS: u32 = 2_000;
    let q = make(4 * ROUNDS as usize);
    let mut state = PopState::new();
    let mut out = Vec::with_capacity(8);
    let (during, popped) = counted(|| {
        let mut popped = 0;
        for r in 0..ROUNDS {
            let pushed = q.push_group(&[r, r, r]).and_then(|()| push(&q, r));
            assert!(pushed.is_ok(), "the arena holds every push");
            out.clear();
            popped += q.pop_group(&mut state, 8, &mut out);
        }
        popped
    });
    assert_eq!(popped, 4 * ROUNDS as usize);
    during
}

/// One application's hint over a batch, `Far` then `Near` per task.
fn hint_batch<A: Application>(app: &A, batch: &[A::Task]) -> u64 {
    counted(|| {
        for task in batch {
            app.prefetch(task, Lookahead::Far);
            app.prefetch(task, Lookahead::Near);
        }
    })
    .0
}

/// Every real application's `prefetch` over every vertex of a tiny graph,
/// through every arm of its hint.
fn app_hints() -> u64 {
    let mesh_preset = Preset::by_name("road_usa_s").unwrap();
    let mesh = Arc::new(mesh_preset.build(Scale::Tiny));
    let mesh_part = Arc::new(Partition::block(mesh.n_vertices(), 4));
    let social = Arc::new(
        Preset::by_name("soc-LiveJournal1_s")
            .unwrap()
            .build(Scale::Tiny),
    );
    let social_part = Arc::new(Partition::random(social.n_vertices(), 4, 3));
    let weights = Arc::new(EdgeWeights::random(&social, 64, 5));
    let mesh_vs: Vec<u32> = (0..mesh.n_vertices() as u32).collect();
    let social_vs: Vec<u32> = (0..social.n_vertices() as u32).collect();

    let bfs = BfsApp::new(
        mesh.clone(),
        mesh_part.clone(),
        mesh_preset.bfs_source(&mesh),
    );
    let cc = BfsApp::components(mesh.clone(), mesh_part);
    let pr = PageRankApp::new(social.clone(), social_part.clone(), 0.85, 1e-6);
    let sssp = SsspApp::new_split(social, weights, social_part, 0, 8);
    let pair: Vec<(u32, u32)> = mesh_vs.iter().map(|&v| (v, 0)).collect();
    let relax: Vec<PrTask> = social_vs.iter().map(|&v| PrTask::Relax(v)).collect();
    let contrib: Vec<PrTask> = social_vs.iter().map(|&v| PrTask::contrib(v, 0.5)).collect();
    let sssp_tasks: Vec<(u32, u64, u8)> = [KIND_LIGHT, KIND_HEAVY, KIND_FULL]
        .into_iter()
        .flat_map(|kind| social_vs.iter().map(move |&v| (v, 0, kind)))
        .collect();

    hint_batch(&bfs, &pair)
        + hint_batch(&cc, &pair)
        + hint_batch(&pr, &relax)
        + hint_batch(&pr, &contrib)
        + hint_batch(&sssp, &sssp_tasks)
}

/// Steady-state engine churn: after warm-up, the heap's schedule→pop cycle
/// reuses its storage.
fn engine_churn() -> u64 {
    let mut e: Engine<u64> = Engine::new();
    for i in 0..512u64 {
        e.schedule_at(i * 173 % 50_000, i);
    }
    let churn = |e: &mut Engine<u64>, rounds: u64| {
        for _ in 0..rounds {
            let (t, v) = e.pop().unwrap();
            let delta = if v % 3 == 0 {
                (v % 70) * 100_000 // up to 7 ms
            } else {
                v % 7_000
            };
            e.schedule_at(t + delta, v);
        }
    };
    churn(&mut e, 20_000);
    let (during, ()) = counted(|| churn(&mut e, 50_000));
    assert_eq!(e.pending(), 512);
    during
}

#[test]
fn every_hot_fn_runs_in_a_window_that_does_not_grow() {
    assert_every_hot_fn_is_mapped();

    // The exact-zero windows first: a defect in code the runtime windows
    // also run (a queue pop under `run_host`) fails where it lives.
    let queues = [
        (
            "counter queue",
            queue_churn(CounterQueue::with_capacity, CounterQueue::push),
        ),
        (
            "CAS queue",
            queue_churn(CasQueue::with_capacity, CasQueue::push),
        ),
        (
            "broker queue",
            queue_churn(BrokerQueue::with_capacity, BrokerQueue::push),
        ),
    ];
    for (name, during) in queues {
        assert_eq!(during, 0, "{name}: push/pop churn must not allocate");
    }
    assert_eq!(app_hints(), 0, "a `prefetch` hint must not allocate");
    assert_eq!(
        engine_churn(),
        0,
        "steady-state engine churn must not allocate (schedule→pop reuses the heap)"
    );

    assert_no_growth("direct relay", 20_000, direct_relay);
    assert_no_growth("aggregated relay", 5_000, aggregated_relay);
    assert_no_growth("multi-step bundles", 20_000, drip);
    assert_no_growth("NullTracer relay", 20_000, null_tracer_relay);
    assert_no_growth("busy receiver", 20_000, busy_receiver);
    assert_no_growth("lockstep relay", 20_000, lockstep_relay);
    assert_no_growth("host relay", 10_000, host_relay);
}
