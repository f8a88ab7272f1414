//! Steady-state allocation accounting for the runtime's hot paths.
//!
//! The dispatcher used to build a `BTreeMap<usize, Vec<Task>>` per flush
//! and `to_vec()` every chunk it sent — at least two heap allocations per
//! message. Now a destination's run leaves the emitter whole as a train,
//! messages are 40-byte cars, and emptied buffers return through the
//! train pool: the steady state sends and receives without touching the
//! allocator. This test pins that down with a counting global allocator: a
//! relay workload pushing tens of thousands of messages must stay within a
//! small constant allocation budget (warm-up growth of queues, lanes, heap,
//! and pool).

use std::alloc::{GlobalAlloc, Layout, System};
// atos-lint: allow(facade_bypass) — the counting allocator is a measurement
// instrument; routing its counter through the facade would make the
// instrument depend on the machinery it is measuring around.
use std::sync::atomic::{AtomicU64, Ordering};

use atos_core::{
    Application, AtosConfig, CommMode, Emitter, Lookahead, NullTracer, Runtime, RuntimeTuning,
};
use atos_graph::prefetch::prefetch;
use atos_sim::Fabric;
use atos_sim::GpuCostModel;

struct CountingAlloc;

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

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
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

/// Both scenarios live in one test so the process-global counter is never
/// polluted by a concurrently running sibling test.
#[test]
fn steady_state_send_paths_do_not_allocate_per_task() {
    // Direct (fine-grained) mode: 20k hops = 20k messages. The old
    // dispatcher allocated a BTreeMap node plus a payload vector per
    // message (>= 40k allocations); the pooled path needs only warm-up.
    const HOPS: u32 = 20_000;
    let mut rt = Runtime::new(
        Relay::new(2),
        Fabric::daisy(2),
        AtosConfig {
            comm: CommMode::Direct { group: 32 },
            ..AtosConfig::standard_persistent()
        },
    );
    rt.seed(0, [HOPS]);
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.total_tasks(), HOPS as u64 + 1);
    assert_eq!(stats.messages, HOPS as u64);
    assert!(
        during < 2_000,
        "direct mode: {during} allocations for {HOPS} messages (expected warm-up only)"
    );

    // Aggregated mode: every hop opens a bundle that the age trigger
    // flushes, so the aggregator flush path (bundle hand-off + payload
    // recycle) runs once per message.
    const AGG_HOPS: u32 = 5_000;
    let mut rt = Runtime::new(
        Relay::new(2),
        Fabric::ib_cluster(2),
        AtosConfig::ib_pagerank(),
    );
    rt.seed(0, [AGG_HOPS]);
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.total_tasks(), AGG_HOPS as u64 + 1);
    assert_eq!(stats.agg_flushes, stats.messages);
    assert_eq!(stats.agg_flushed_tasks, AGG_HOPS as u64);
    assert!(stats.agg_flushes > 0);
    assert!(
        during < 2_000,
        "aggregated mode: {during} allocations for {} bundles (expected warm-up only)",
        stats.agg_flushes
    );

    // A bundle that spans steps: each of PE 0's steps leaves a one-task run
    // that departs as a train at once and waits in PE 1's lane — dozens
    // deep — until the age trigger cuts one car over all of them. Runs,
    // lane slots and the car's pieces all come out of recycled storage.
    const DRIPS: u32 = 20_000;
    let mut rt = Runtime::new(Drip, Fabric::ib_cluster(2), AtosConfig::ib_pagerank());
    rt.seed(0, [DRIPS - 1]);
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.agg_flushed_tasks, DRIPS as u64);
    assert!(
        stats.agg_flushes > 100 && stats.agg_flushes * 10 < DRIPS as u64,
        "{} bundles for {DRIPS} one-task steps (each must span many)",
        stats.agg_flushes
    );
    assert!(
        during < 2_000,
        "multi-step bundles: {during} allocations for {DRIPS} trains under {} cars \
         (expected warm-up only)",
        stats.agg_flushes
    );

    // Tracing disabled (`NullTracer`, spelled out explicitly): the
    // instrumentation hooks in step/route/arrive/flush must compile down
    // to nothing — same warm-up-only budget as the untraced baseline.
    let mut rt = Runtime::with_tracer(
        Relay::new(2),
        Fabric::daisy(2),
        AtosConfig {
            comm: CommMode::Direct { group: 32 },
            ..AtosConfig::standard_persistent()
        },
        GpuCostModel::v100(),
        RuntimeTuning::default(),
        NullTracer,
    );
    rt.seed(0, [HOPS]);
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.messages, HOPS as u64);
    assert!(
        during < 2_000,
        "NullTracer: {during} allocations for {HOPS} messages (disabled tracing must not allocate)"
    );

    // Steady-state engine churn: after warm-up, the timing wheel's
    // schedule→pop cycle recycles arena slots, bucket vectors, and heap
    // storage — zero allocations, exactly (not a budget).
    let mut e: atos_sim::Engine<u64> = atos_sim::Engine::new();
    e.reserve(1024);
    for i in 0..512u64 {
        e.schedule_at(i * 173 % 50_000, i);
    }
    // Warm-up: cycle long enough that every bucket, the imminent heap,
    // and the far heap reach their steady capacities. The delta mix keeps
    // events flowing through all three structures (level 0, level 1, far).
    let churn = |e: &mut atos_sim::Engine<u64>, rounds: u64| {
        for _ in 0..rounds {
            let (t, v) = e.pop().unwrap();
            let delta = if v % 3 == 0 {
                (v % 70) * 100_000 // up to 7 ms: level 1 / far heap
            } else {
                v % 7_000 // level 0
            };
            e.schedule_at(t + delta, v);
        }
    };
    churn(&mut e, 20_000);
    let before = alloc_calls();
    churn(&mut e, 50_000);
    let during = alloc_calls() - before;
    assert_eq!(e.pending(), 512);
    assert_eq!(
        during, 0,
        "steady-state engine churn must not allocate (schedule→pop is arena-recycled)"
    );
    // Sparse tail: drain the wheels, then keep one event in flight beyond
    // the level-2 horizon. Each pop finds every wheel empty and
    // repositions them around the far heap — the one way into
    // `jump_to_far`, which the churn above (≤ 7 ms deltas) never takes.
    while e.pop().is_some() {}
    let hop = |e: &mut atos_sim::Engine<u64>, rounds: u64| {
        for v in 0..rounds {
            e.schedule_in(1 << 31, v);
            assert_eq!(e.pop().map(|(_, got)| got), Some(v));
        }
    };
    hop(&mut e, 8);
    let before = alloc_calls();
    hop(&mut e, 1_000);
    assert_eq!(
        alloc_calls() - before,
        0,
        "a far-heap round trip must not allocate"
    );

    // Work stealing: a skewed seed (every task on PE 0) forces PE 1
    // through the full steal path — idle-peer wake, victim scan, group
    // steal — a few hundred times. The steal machinery reuses the step's
    // pop scratch and never builds candidate lists, so the budget stays
    // warm-up-only.
    use atos_core::LoadBalance;
    const SKEW_TASKS: usize = 20_000;
    let mut rt = Runtime::new(
        Relay::new(2),
        Fabric::daisy(2),
        AtosConfig {
            comm: CommMode::Direct { group: 32 },
            ..AtosConfig::standard_persistent()
        }
        .with_lb(LoadBalance::Steal),
    );
    rt.seed(0, std::iter::repeat_n(0u32, SKEW_TASKS));
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.total_tasks(), SKEW_TASKS as u64);
    assert!(stats.lb_steals > 0, "skewed seed must trigger steals");
    assert_eq!(stats.lb_stolen_tasks, stats.lb_stolen_edges, "unit-degree tasks");
    assert!(
        during < 2_000,
        "steal mode: {during} allocations across {} steals (expected warm-up only)",
        stats.lb_steals
    );

    // Busy receiver: every task on PE 0 sends one task to PE 1, which
    // consumes faster than PE 0 produces. PE 1 usually has a step coming
    // when a barrier resolves its arrivals, so they wait in its receive
    // lanes and that step settles them: fewer arrival events than messages
    // is the proof the lane path ran, and it must not allocate.
    const FAN_TASKS: usize = 20_000;
    let mut rt = Runtime::new(
        Relay::new(2),
        Fabric::daisy(2),
        AtosConfig {
            comm: CommMode::Direct { group: 32 },
            ..AtosConfig::standard_persistent()
        },
    );
    rt.seed(0, std::iter::repeat_n(1u32, FAN_TASKS));
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.remote_tasks, FAN_TASKS as u64);
    assert!(
        stats.ev_arrivals > 0 && stats.ev_arrivals < stats.messages,
        "busy receiver: {} arrival events for {} messages (lanes must carry some, doorbells some)",
        stats.ev_arrivals,
        stats.messages
    );
    assert!(
        during < 2_000,
        "busy receiver: {during} allocations for {} messages (expected warm-up only)",
        stats.messages
    );

    // Lane car → doorbell conversion: two tokens in lockstep under
    // kernel-boundary communication. Both PEs step at once and send when
    // their kernel ends, so the barrier files each car while its receiver
    // still has its follow-up step scheduled — into the lanes — and that
    // step, at kernel end, finds nothing yet and goes idle: every hop's car
    // is converted to a doorbell event by `ring_next`.
    let mut rt = Runtime::with_tuning(
        Relay::new(2),
        Fabric::daisy(2),
        AtosConfig::standard_discrete(),
        GpuCostModel::v100(),
        RuntimeTuning {
            in_kernel_comm: false,
            ..RuntimeTuning::default()
        },
    );
    rt.seed(0, [HOPS / 2]);
    rt.seed(1, [HOPS / 2]);
    let before = alloc_calls();
    let stats = rt.run();
    let during = alloc_calls() - before;
    assert_eq!(stats.messages, HOPS as u64);
    assert_eq!(stats.ev_arrivals, stats.messages, "every car rang its own doorbell");
    assert!(
        during < 2_000,
        "lockstep relay: {during} allocations for {HOPS} converted arrivals (expected warm-up only)"
    );
}

/// Extract the names of `#[atos_hot]`-annotated functions from a source
/// file (same shape the `atos-lint` hot-path rule keys on).
fn hot_fns(src: &str) -> Vec<String> {
    let mut hot: Vec<String> = Vec::new();
    let mut pending_hot = false;
    for line in src.lines() {
        let t = line.trim();
        if t == "#[atos_hot]" || t == "#[atos_hot(no_index)]" {
            pending_hot = true;
            continue;
        }
        if t.starts_with("#[") || t.starts_with("//") {
            continue;
        }
        if pending_hot {
            let rest = t
                .strip_prefix("pub(crate) ")
                .or_else(|| t.strip_prefix("pub "))
                .unwrap_or(t);
            if let Some(name) = rest.strip_prefix("fn ") {
                hot.push(name.split(['(', '<']).next().unwrap().to_string());
            }
            pending_hot = false;
        }
    }
    hot.sort();
    hot
}

/// Every `#[atos_hot]` function in the runtime (step loop, steal policy,
/// communication) and the engine must be exercised by one of the counted
/// scenarios in this file, so the allocation budget actually covers the
/// whole annotated hot path
/// (`atos-lint` checks the annotated functions statically; this test keeps
/// the dynamic guard aligned). Annotating a new function fails this test
/// until a counted scenario exercises it and the maps below record which.
#[test]
fn every_hot_runtime_fn_is_covered_by_a_counted_scenario() {
    const COVERED: &[(&str, &str)] = &[
        ("note_queue_depth", "both relays: depth accounting on every push/pop"),
        ("wake", "both relays: remote arrivals wake the idle peer PE"),
        ("step", "both relays: every scheduling step"),
        ("process_batch", "every relay: each batch; steal and busy-receiver relays: batches long enough to hint"),
        ("absorb_local", "both relays: emitter drain after each step"),
        ("dispatch_remote", "both relays: every hop is a remote push"),
        ("note", "aggregated relay and drip: every run counted into its pair's bundle"),
        ("close", "aggregated relay and drip: every flush closes the record"),
        ("flush_bundle", "aggregated relay: age trigger flushes each bundle; drip: one car over many steps' runs"),
        ("depart", "every relay: each destination's run leaves the emitter as a train"),
        ("route", "both relays: fabric routing for every message"),
        ("egress", "both relays: the egress half of every routed message"),
        ("take", "every relay: a pooled buffer replaces each departing run"),
        ("give", "every relay: a train's buffer comes home when the car over its last task is delivered"),
        ("merge_records", "all relays: staged cars resolved at every window boundary"),
        ("file", "all relays: every resolved car pushed onto its lane"),
        ("arrive", "both relays: a doorbell per arrival at the idle peer PE"),
        ("settle", "every relay event; busy receiver: steps settle their lanes"),
        ("deliver", "under every settle and every doorbell"),
        ("drain_before", "every relay: lane cars delivered in key order; drip: a car handed over train by train"),
        ("ring_doorbell", "every relay: each barrier, doorbell and step that leaves a PE idle"),
        ("ring_next", "lockstep relay: every hop's lane car becomes a doorbell event"),
        ("schedule_agg_poll", "aggregated relay: poll armed per open bundle"),
        ("agg_poll", "aggregated relay: age-trigger poll per bundle"),
        ("run_window", "all relays: every execution window drains through it"),
        ("try_steal", "every relay: consulted on every empty pop"),
        ("pick_victim", "steal relay: victim scan (settling each peer) on every empty pop"),
        ("steal_from", "steal relay: group steal from the skewed PE"),
        ("wake_idle_peers", "steal relay: backlogged steps wake the idle peer"),
    ];
    const COVERED_ENGINE: &[(&str, &str)] = &[
        ("schedule_at", "engine churn scenario + every relay event"),
        ("schedule_at_seq", "under every schedule_at; doorbells filed under reserved keys"),
        ("pop", "engine churn scenario + both relays' event loops"),
        ("pop_before", "all relays: every window pop is horizon-bounded"),
        ("place", "under every schedule_at_seq: the event's wheel level and bucket"),
        ("arena_insert", "under every schedule_at_seq: the event's arena slot"),
        ("advance", "under every pop that finds the imminent list empty"),
        ("drain_l0_bucket", "under advance: the next occupied level-0 bucket"),
        ("cascade_l1_bucket", "engine churn scenario: timestamps a level-1 span apart"),
        ("cascade_l2_bucket", "engine churn scenario: timestamps a level-2 span apart"),
        ("jump_to_far", "engine churn scenario's sparse tail: every pop finds the wheels empty"),
    ];

    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // The scheduler's hot path spans four files: the step loop, the steal
    // policy it calls on an empty pop, the communication path, and the
    // aggregator's bundle record that path keeps per destination.
    let runtime_src = ["src/runtime.rs", "src/loadbalance.rs", "src/comm.rs", "src/aggregator.rs"]
        .map(|f| std::fs::read_to_string(manifest.join(f)).expect(f))
        .concat();
    let engine_src = std::fs::read_to_string(manifest.join("../sim/src/engine.rs"))
        .expect("read engine.rs");

    let mut covered: Vec<&str> = COVERED.iter().map(|(n, _)| *n).collect();
    covered.sort();
    assert_eq!(
        hot_fns(&runtime_src),
        covered,
        "the #[atos_hot] set in runtime.rs + loadbalance.rs + comm.rs + \
         aggregator.rs and the counted-scenario map in this test must stay in sync"
    );

    let mut covered_engine: Vec<&str> = COVERED_ENGINE.iter().map(|(n, _)| *n).collect();
    covered_engine.sort();
    assert_eq!(
        hot_fns(&engine_src),
        covered_engine,
        "the #[atos_hot] set in engine.rs and the counted-scenario map in \
         this test must stay in sync"
    );
}
