//! Receive lanes: arrivals delivered at the receiver's next observation
//! are indistinguishable from arrivals delivered as engine events.
//!
//! Three proofs live here.
//!
//! * **Callback-log fingerprints** — whole runs of the real applications,
//!   wrapped so that every `process` / `on_receive` call is folded into a
//!   per-PE FNV hash in the order that PE sees it. The constants were
//!   captured on the parent commit 713bf2d, where every message was a
//!   heap-allocated payload delivered by its own `Ev::Arrive` (the two CC
//!   rows on 5f87cfc, the commit before they were added); a pass means
//!   each PE still sees the same calls in the same order, and the run ends
//!   at the same virtual time with the same traffic and queue high-water
//!   marks.
//! * **Lane order property** — the lane structure alone, fed arbitrary
//!   per-lane-monotone cars in arbitrary barrier batches with `settle`
//!   interleaved, delivers exactly what a sort of all cars by
//!   `(arrival, seq)` would (see the second part of this file).
//! * **Cars that span trains** — since the aggregator stopped copying tasks
//!   a bundle's car counts tasks that left in several steps' runs: a route's
//!   cars tile the *concatenation* of its trains. Random runs, cut anywhere
//!   and filed at any later barrier, against a second lane fed the parent
//!   fe33613's shape — every car's tasks copied into a train of its own —
//!   and the documented abort when a car counts tasks no train holds (the
//!   last part of this file).
//!
//! To re-capture the fingerprints after an *intentional* model change:
//! `cargo test -p atos-core --test arrival_lanes fingerprints -- --nocapture`
//! prints every row before asserting.

use std::sync::Arc;

use atos_apps::pagerank::PrTask;
use atos_apps::sssp::KIND_LIGHT;
use atos_apps::{BfsApp, PageRankApp, SsspApp};
use atos_core::{Application, AtosConfig, CommMode, Emitter, KernelMode, RunStats, Runtime};
use atos_graph::generators::{Preset, Scale};
use atos_graph::partition::Partition;
use atos_graph::weights::EdgeWeights;
use atos_sim::{ControlPath, Fabric};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// An application wrapper that folds every callback a PE sees into that
/// PE's hash: `(0 = process | 1 = on_receive, task)` in call order.
struct Logged<A> {
    inner: A,
    log: Vec<u64>,
}

impl<A: Application> Logged<A> {
    fn new(inner: A, n_pes: usize) -> Self {
        Logged {
            inner,
            log: vec![FNV_OFFSET; n_pes],
        }
    }

    fn note(&mut self, pe: usize, tag: u8, task: &A::Task) {
        fnv(&mut self.log[pe], &[tag]);
        fnv(&mut self.log[pe], format!("{task:?}").as_bytes());
    }
}

impl<A: Application> Application for Logged<A> {
    type Task = A::Task;

    fn process(&mut self, pe: usize, task: A::Task, out: &mut Emitter<A::Task>) {
        self.note(pe, 0, &task);
        self.inner.process(pe, task, out)
    }

    fn on_receive(&mut self, pe: usize, task: A::Task) -> Option<A::Task> {
        self.note(pe, 1, &task);
        self.inner.on_receive(pe, task)
    }

    fn on_idle(&mut self, pe: usize, out: &mut Emitter<A::Task>) -> atos_core::app::IdleOutcome {
        self.inner.on_idle(pe, out)
    }

    fn priority(&self, task: &A::Task) -> u32 {
        self.inner.priority(task)
    }

    fn task_edges(&self, task: &A::Task) -> u64 {
        self.inner.task_edges(task)
    }

    fn task_bytes(&self) -> u64 {
        self.inner.task_bytes()
    }
}

/// `[callback-log fingerprint, elapsed_ns, messages, wire_bytes,
/// queue_hwm fingerprint]`.
type Row = [u64; 5];

fn row(log: &[u64], s: &RunStats) -> Row {
    let fold = |xs: &[u64]| {
        let mut h = FNV_OFFSET;
        for x in xs {
            fnv(&mut h, &x.to_le_bytes());
        }
        h
    };
    [
        fold(log),
        s.elapsed_ns,
        s.messages,
        s.wire_bytes,
        fold(&s.queue_hwm_per_pe),
    ]
}

fn drive<A: Application>(
    app: A,
    seeds: Vec<(usize, Vec<A::Task>)>,
    fabric: Fabric,
    cfg: AtosConfig,
) -> Row {
    let n = fabric.n_pes();
    let mut rt = Runtime::new(Logged::new(app, n), fabric, cfg);
    for (pe, tasks) in seeds {
        rt.seed(pe, tasks);
    }
    let stats = rt.run();
    row(&rt.app().log, &stats)
}

fn social() -> Arc<atos_graph::csr::Csr> {
    Arc::new(
        Preset::by_name("soc-LiveJournal1_s")
            .unwrap()
            .build(Scale::Tiny),
    )
}

fn pagerank(fabric: Fabric, cfg: AtosConfig) -> Row {
    let g = social();
    let part = Arc::new(Partition::random(g.n_vertices(), fabric.n_pes(), 7));
    let seeds = (0..part.n_parts())
        .map(|pe| {
            (
                pe,
                part.vertices_of(pe)
                    .into_iter()
                    .map(PrTask::Relax)
                    .collect(),
            )
        })
        .collect();
    let app = PageRankApp::new(g, part, 0.85, 1e-6);
    drive(app, seeds, fabric, cfg)
}

fn bfs(fabric: Fabric, cfg: AtosConfig) -> Row {
    let preset = Preset::by_name("soc-LiveJournal1_s").unwrap();
    let g = social();
    let src = preset.bfs_source(&g);
    let part = Arc::new(Partition::random(g.n_vertices(), fabric.n_pes(), 11));
    let seeds = vec![(part.owner(src), vec![(src, 0u32)])];
    drive(BfsApp::new(g, part, src), seeds, fabric, cfg)
}

fn sssp(fabric: Fabric, cfg: AtosConfig) -> Row {
    let preset = Preset::by_name("road_usa_s").unwrap();
    let g = Arc::new(preset.build(Scale::Tiny));
    let w = Arc::new(EdgeWeights::random(&g, 64, 5));
    let src = preset.bfs_source(&g);
    let part = Arc::new(Partition::bfs_grow(&g, fabric.n_pes(), 3));
    let seeds = vec![(part.owner(src), vec![(src, 0u64, KIND_LIGHT)])];
    let app = SsspApp::new_split(g, w, part, src, 8);
    drive(app, seeds, fabric, cfg)
}

fn cc(fabric: Fabric, cfg: AtosConfig) -> Row {
    let g = Arc::new(social().symmetrize());
    let part = Arc::new(Partition::random(g.n_vertices(), fabric.n_pes(), 9));
    let seeds = (0..part.n_parts())
        .map(|pe| {
            (
                pe,
                part.vertices_of(pe).into_iter().map(|v| (v, v)).collect(),
            )
        })
        .collect();
    drive(BfsApp::components(g, part), seeds, fabric, cfg)
}

/// The Galois/Gluon-like baseline's shape: one discrete kernel per round,
/// one bulk message per destination, host-mediated control path, and a
/// per-round metadata broadcast (cars that occupy the wire and deliver
/// nothing).
fn gluon() -> AtosConfig {
    AtosConfig {
        kernel: KernelMode::Discrete,
        comm: CommMode::Direct { group: usize::MAX },
        control: ControlPath::cpu_mediated(),
        in_kernel_comm: false,
        round_metadata_bytes: 256,
        ..AtosConfig::standard_persistent()
    }
}

#[test]
fn fingerprints_match_the_per_message_parent() {
    let got = [
        (
            "daisy4/pagerank-direct/1",
            pagerank(Fabric::daisy(4), AtosConfig::standard_persistent()),
        ),
        (
            "ib8/pagerank-aggregated/1",
            pagerank(Fabric::ib_cluster(8), AtosConfig::ib_pagerank()),
        ),
        (
            "summit6/bfs/1",
            bfs(Fabric::summit_node(6), AtosConfig::standard_persistent()),
        ),
        (
            "daisy4/sssp-priority-discrete/1",
            sssp(Fabric::daisy(4), AtosConfig::priority_discrete()),
        ),
        (
            "ib4/bfs-gluon-metadata/1",
            bfs(Fabric::ib_cluster(4), gluon()),
        ),
        (
            "daisy4/cc-direct/1",
            cc(Fabric::daisy(4), AtosConfig::standard_persistent()),
        ),
        (
            "ib4/cc-aggregated/1",
            cc(Fabric::ib_cluster(4), AtosConfig::ib_bfs()),
        ),
    ];
    for (name, r) in &got {
        println!("    (\"{name}\", {r:?}),");
    }
    assert_eq!(got, GOLDEN);
}

#[rustfmt::skip]
const GOLDEN: [(&str, Row); 7] = [
    ("daisy4/pagerank-direct/1", [14194713627052086457, 1310640, 16880, 4720384, 10889729997057137531]),
    ("ib8/pagerank-aggregated/1", [1036709484681473384, 4212114, 4179, 26835540, 8134328546337234609]),
    ("summit6/bfs/1", [14860716780881808704, 51197, 175, 30240, 3542823008189542413]),
    ("daisy4/sssp-priority-discrete/1", [15957031098984437282, 7293022, 236, 11616, 11013856656358351973]),
    ("ib4/bfs-gluon-metadata/1", [14705585014852128725, 197819, 93, 56476, 18012849274530754535]),
    // Captured later, on 5f87cfc, so that CC's messages are pinned too.
    ("daisy4/cc-direct/1", [17230173559104280803, 58349, 137, 35008, 3633582280860120104]),
    ("ib4/cc-aggregated/1", [3270800866066138133, 71373, 54, 64360, 14226299046936176094]),
];

// ---------------------------------------------------------------------------
// The lane structure alone, against a sort.
// ---------------------------------------------------------------------------

use atos_core::comm::{Car, Key, Rx, Sink};
use atos_core::emitter::{ChunkPool, CHUNK_CLASSES};
use atos_sim::Time;
use proptest::prelude::*;

/// `tasks` in a buffer of the smallest chunk class that holds them, as the
/// emitter's pool hands one out.
fn chunk(tasks: Vec<u32>) -> Vec<u32> {
    let cap = CHUNK_CLASSES.iter().copied().find(|&c| c >= tasks.len());
    let mut buf = Vec::with_capacity(cap.expect("a test train fits the largest class"));
    buf.extend(tasks);
    buf
}

#[test]
fn a_staged_message_is_forty_bytes() {
    // The per-message record between egress and the barrier: ordering key,
    // half-charged transfer, task count. It was a 96-byte struct owning a
    // heap vector.
    assert!(
        std::mem::size_of::<Car>() <= 40,
        "{}",
        std::mem::size_of::<Car>()
    );
}

/// What a [`Sink`] saw.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Run(Vec<u32>),
    Delivered(Time),
}

#[derive(Default)]
struct Log(Vec<Seen>);

impl Sink<u32> for Log {
    fn run(&mut self, tasks: &[u32]) {
        self.0.push(Seen::Run(tasks.to_vec()));
    }
    fn delivered(&mut self, at: Time) {
        self.0.push(Seen::Delivered(at));
    }
}

/// The oracle's view of one filed car.
#[derive(Debug, Clone)]
struct ModelCar {
    order: (Time, u64, u32),
    tasks: Vec<u32>,
}

const LANES: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cars pushed per-lane-monotone in arbitrary barrier batches, with
    /// `drain_before` at arbitrary keys and doorbells rung in between, are
    /// delivered exactly as a sort of all cars by `(arrival, seq)` (then
    /// resolution order within a delivery) says: the same runs in the same
    /// order, one `delivered` per key, nothing at or past a bound delivered
    /// early, every buffer back in the pool at the end.
    #[test]
    fn lanes_deliver_what_a_sort_would(
        ops in proptest::collection::vec((0u32..9, 0usize..LANES, 0u64..3, 1u32..4), 1..160),
    ) {
        let mut rx: Rx<u32> = Rx::new(LANES);
        let mut pool = ChunkPool::default();
        let mut log = Log::default();
        // Oracle state.
        let mut filed: Vec<ModelCar> = Vec::new(); // every car ever filed
        let mut waiting: Vec<(Time, u64, u32)> = Vec::new(); // orders not yet delivered
        let mut belled: Vec<Key> = Vec::new();
        let mut lane_last = [0 as Time; LANES];
        let mut floor: Time = 0; // later arrivals land after every bound used so far
        let mut next_seq = 0u64;
        let mut next_task = 0u32;
        let mut trains = 0usize;
        // The batch being emitted: `(src, arrival delay, tasks)` in
        // resolution order. Arrival times are fixed at the barrier: whatever
        // a window emits lands after everything that window could read.
        let mut batch: Vec<(usize, Time, Vec<u32>)> = Vec::new();

        let mut barrier = |rx: &mut Rx<u32>,
                           batch: &mut Vec<(usize, Time, Vec<u32>)>,
                           filed: &mut Vec<ModelCar>,
                           waiting: &mut Vec<(Time, u64, u32)>,
                           next_seq: &mut u64,
                           trains: &mut usize,
                           floor: Time| {
            rx.begin_barrier();
            // One train per source per barrier, as one step's run is.
            for src in 0..LANES {
                let run: Vec<u32> =
                    batch.iter().filter(|c| c.0 == src).flat_map(|c| c.2.iter().copied()).collect();
                if !run.is_empty() {
                    rx.push_train(src, chunk(run));
                    *trains += 1;
                }
            }
            let mut open: Option<(Time, u64, u32)> = None;
            for (src, delay, tasks) in batch.drain(..) {
                let arrival = lane_last[src].max(floor) + delay;
                lane_last[src] = arrival;
                let (seq, sub) = match open {
                    Some((at, seq, sub)) if at == arrival => (seq, sub),
                    _ => (*next_seq, 0),
                };
                open = Some((arrival, seq, sub + 1));
                let opened = rx.file(src, arrival, tasks.len() as u32, || {
                    let s = *next_seq;
                    *next_seq += 1;
                    s
                });
                assert_eq!(opened, sub == 0, "coalescing decision");
                filed.push(ModelCar { order: (arrival, seq, sub), tasks });
                waiting.push((arrival, seq, sub));
            }
        };

        for &(kind, src, delta, tasks) in &ops {
            match kind {
                0..=4 => {
                    let ids: Vec<u32> = (next_task..next_task + tasks).collect();
                    next_task += tasks;
                    batch.push((src, delta, ids));
                }
                5 => barrier(&mut rx, &mut batch, &mut filed, &mut waiting, &mut next_seq, &mut trains, floor),
                6 => {
                    // A reader arrives at the key of some waiting delivery
                    // (or past them all): everything before it is due.
                    waiting.sort_unstable();
                    let pick = (src * 7 + delta as usize * 3 + tasks as usize) % (waiting.len() + 1);
                    let past_all = (waiting.last().map_or(floor, |o| o.0 + 1), 0);
                    let bound: Key = waiting.get(pick).map_or(past_all, |o| (o.0, o.1));
                    rx.drain_before(bound, &mut pool, &mut log);
                    waiting.retain(|o| (o.0, o.1) >= bound);
                    prop_assert_eq!(rx.len(), waiting.len(), "bound {:?}", bound);
                    prop_assert_eq!(rx.next_arrival(), waiting.iter().map(|o| o.0).min());
                    floor = floor.max(bound.0 + 1);
                }
                7 => {
                    // Busy → idle: the earliest waiting delivery gets its
                    // doorbell, once.
                    let first = waiting.iter().min().map(|o| (o.0, o.1));
                    let want = first.filter(|k| !belled.contains(k));
                    prop_assert_eq!(rx.ring_next(), want);
                    belled.extend(want);
                    prop_assert_eq!(rx.ring_next(), None, "a doorbell rings once");
                }
                _ => next_seq += tasks as u64, // other events take sequence numbers too
            }
        }
        barrier(&mut rx, &mut batch, &mut filed, &mut waiting, &mut next_seq, &mut trains, floor);
        rx.drain_before((Time::MAX, u64::MAX), &mut pool, &mut log);
        prop_assert!(rx.is_drained(), "a car or a train was left behind");
        prop_assert_eq!(pool.len(), trains, "every train's buffer came home");

        filed.sort_by_key(|c| c.order);
        let mut want = Vec::new();
        for (i, car) in filed.iter().enumerate() {
            want.push(Seen::Run(car.tasks.clone()));
            let key = (car.order.0, car.order.1);
            if filed.get(i + 1).is_none_or(|n| (n.order.0, n.order.1) != key) {
                want.push(Seen::Delivered(car.order.0));
            }
        }
        prop_assert_eq!(log.0, want);
    }
}

// ---------------------------------------------------------------------------
// Cars that span trains, against a lane that copies every car's tasks.
// ---------------------------------------------------------------------------

#[test]
#[should_panic(
    expected = "the car of 5 tasks from PE 1 arriving at 70 ns outran its trains, 2 tasks still owed"
)]
fn a_car_that_outruns_its_trains_aborts_in_every_build() {
    // A lane holding fewer tasks than a car counts means tasks were lost on
    // the way: a release build must stop too, not drop them and carry on.
    let mut rx: Rx<u32> = Rx::new(2);
    rx.begin_barrier();
    rx.push_train(1, vec![10, 11, 12]);
    rx.file(1, 70, 5, || 0);
    rx.drain_before(
        (Time::MAX, u64::MAX),
        &mut ChunkPool::default(),
        &mut Log::default(),
    );
}

/// Shapes one case exercised, as bit flags.
mod shape {
    /// A car inside one train, stopping short of its end.
    pub const INSIDE: u32 = 1;
    /// A car ending exactly where a train ends.
    pub const ON_BOUNDARY: u32 = 2;
    /// A car delivered as two pieces.
    pub const SPANS_TWO: u32 = 4;
    /// A car delivered as three or more pieces.
    pub const SPANS_THREE: u32 = 8;
    /// A barrier that filed trains and no car.
    pub const TRAINS_ONLY: u32 = 16;
    /// A car filed at least two barriers after its first train.
    pub const LATE_CAR: u32 = 32;
    pub const ALL: u32 = 63;
}

/// One route's emissions as the model sees them.
#[derive(Default)]
struct RouteModel {
    /// Every task emitted on the route, in order.
    stream: Vec<u32>,
    /// End offset in `stream` of each train, and the barrier that filed it.
    ends: Vec<usize>,
    filed_at: Vec<usize>,
    /// Trains emitted since the last barrier.
    pending: Vec<Vec<u32>>,
    /// `stream[..cut]` is covered by cars already.
    cut: usize,
}

/// A sink's log as `(tasks, delivered_at)` per delivery, however the tasks
/// were split into runs.
fn deliveries(log: &Log) -> Vec<(Vec<u32>, Time)> {
    let mut out = Vec::new();
    let mut tasks = Vec::new();
    for seen in &log.0 {
        match seen {
            Seen::Run(run) => tasks.extend_from_slice(run),
            Seen::Delivered(at) => out.push((std::mem::take(&mut tasks), *at)),
        }
    }
    assert!(
        tasks.is_empty(),
        "tasks handed over and never marked delivered"
    );
    out
}

/// Drive two receive sides through `ops` — `(kind, src, a, b)` — and hold
/// them equal. `rx` gets what the runtime files: each emitted run whole as a
/// train at the next barrier, and cars cut anywhere over the concatenation of
/// a route's trains, at that barrier or any later one. `oracle` gets the
/// parent commit's shape: every car's tasks copied into a train of its own,
/// filed with the car. Returns the [`shape`]s the case exercised.
fn spanning_cars_match_copied_bundles(ops: &[(u32, usize, u32, u32)]) -> u32 {
    let (mut rx, mut oracle): (Rx<u32>, Rx<u32>) = (Rx::new(LANES), Rx::new(LANES));
    let (mut pool, mut oracle_pool) = (ChunkPool::default(), ChunkPool::default());
    let (mut log, mut oracle_log) = (Log::default(), Log::default());
    let mut routes: Vec<RouteModel> = (0..LANES).map(|_| RouteModel::default()).collect();
    // Cars cut since the last barrier: `(src, arrival delay, tasks, first train)`.
    let mut batch: Vec<(usize, Time, Vec<u32>, usize)> = Vec::new();
    let mut waiting: Vec<Key> = Vec::new();
    let mut lane_last = [0 as Time; LANES];
    let mut floor: Time = 0;
    let (mut next_seq, mut next_task) = (0u64, 0u32);
    let (mut barriers, mut trains, mut cars, mut pieces) = (0usize, 0usize, 0usize, 0usize);
    let mut seen = 0u32;

    // Cut a car of `k` tasks off the front of what `src`'s cars have not
    // covered yet.
    let cut = |r: &mut RouteModel,
               src: usize,
               k: usize,
               delay: Time,
               seen: &mut u32,
               pieces: &mut usize| {
        let (from, to) = (r.cut, r.cut + k);
        let first = r.ends.partition_point(|&e| e <= from);
        let last = r.ends.partition_point(|&e| e < to);
        *pieces += last - first + 1;
        *seen |= match last - first {
            0 if r.ends[last] > to => shape::INSIDE,
            0 => 0,
            1 => shape::SPANS_TWO,
            _ => shape::SPANS_THREE,
        };
        if r.ends[last] == to {
            *seen |= shape::ON_BOUNDARY;
        }
        r.cut = to;
        (src, delay, r.stream[from..to].to_vec(), first)
    };

    // However the case ends, the run ends the same way: a last car over
    // whatever is uncovered, a barrier, and a reader past everything.
    for &(kind, src, a, b) in ops
        .iter()
        .chain(&[(9, 0, 0, 0), (6, 0, 0, 0), (10, 0, 0, 0)])
    {
        let r = &mut routes[src];
        match kind {
            // Emit a run: a train of its own at the next barrier.
            0..=2 => {
                let run: Vec<u32> = (next_task..next_task + 1 + a % 5).collect();
                next_task += run.len() as u32;
                r.stream.extend_from_slice(&run);
                r.ends.push(r.stream.len());
                r.pending.push(run);
            }
            // Cut a car: up to the end of a train ahead, or anywhere.
            3..=5 if r.cut < r.stream.len() => {
                let ahead = r.ends.partition_point(|&e| e <= r.cut);
                let k = match b % 3 {
                    0 => r.ends[(ahead + a as usize % 3).min(r.ends.len() - 1)] - r.cut,
                    _ => 1 + a as usize % (r.stream.len() - r.cut),
                };
                batch.push(cut(r, src, k, (b / 3 % 3) as Time, &mut seen, &mut pieces));
            }
            // The run ends: whatever is still uncovered leaves in a last car.
            9 => {
                for (src, r) in routes.iter_mut().enumerate() {
                    if r.cut < r.stream.len() {
                        let k = r.stream.len() - r.cut;
                        batch.push(cut(r, src, k, 1, &mut seen, &mut pieces));
                    }
                }
            }
            // A barrier: trains first, then cars in resolution order.
            6 => {
                rx.begin_barrier();
                oracle.begin_barrier();
                let mut filed_trains = false;
                for (src, r) in routes.iter_mut().enumerate() {
                    for run in r.pending.drain(..) {
                        rx.push_train(src, chunk(run));
                        r.filed_at.push(barriers);
                        trains += 1;
                        filed_trains = true;
                    }
                }
                if filed_trains && batch.is_empty() {
                    seen |= shape::TRAINS_ONLY;
                }
                for (src, delay, tasks, first) in batch.drain(..) {
                    let arrival = lane_last[src].max(floor) + delay;
                    lane_last[src] = arrival;
                    if barriers >= routes[src].filed_at[first] + 2 {
                        seen |= shape::LATE_CAR;
                    }
                    let opened = rx.file(src, arrival, tasks.len() as u32, || {
                        next_seq += 1;
                        next_seq - 1
                    });
                    // A car that opened no delivery joined the one the
                    // barrier's previous car is in.
                    let seq = match opened {
                        true => next_seq - 1,
                        false => waiting.last().expect("a delivery to join").1,
                    };
                    oracle.push_train(src, chunk(tasks.clone()));
                    assert_eq!(
                        oracle.file(src, arrival, tasks.len() as u32, || seq),
                        opened
                    );
                    waiting.push((arrival, seq));
                    cars += 1;
                }
                barriers += 1;
            }
            // A reader at the key of some waiting delivery or just past them
            // all (7), or past everything there will ever be (10).
            7 | 10 => {
                waiting.sort_unstable();
                let pick = (src * 7 + a as usize * 3 + b as usize) % (waiting.len() + 1);
                let past_all = (waiting.last().map_or(floor, |k| k.0 + 1), 0);
                let bound = match kind {
                    7 => waiting.get(pick).copied().unwrap_or(past_all),
                    _ => (Time::MAX, u64::MAX),
                };
                rx.drain_before(bound, &mut pool, &mut log);
                oracle.drain_before(bound, &mut oracle_pool, &mut oracle_log);
                waiting.retain(|&k| k >= bound);
                assert_eq!(
                    (rx.len(), rx.next_arrival()),
                    (oracle.len(), oracle.next_arrival())
                );
                assert_eq!(rx.len(), waiting.len());
                floor = floor.max(bound.0.saturating_add(1));
            }
            _ => next_seq += a as u64, // other events take sequence numbers too
        }
    }

    assert!(
        rx.is_drained() && oracle.is_drained(),
        "a car or a train was left behind"
    );
    // Each buffer came home once: one per run here, one per car there.
    assert_eq!((pool.len(), oracle_pool.len()), (trains, cars));
    // The same tasks under the same deliveries — as one run per car from
    // the copies, as one run per train a car touches from the runs.
    assert_eq!(deliveries(&log), deliveries(&oracle_log));
    let runs = |l: &Log| l.0.iter().filter(|s| matches!(s, Seen::Run(_))).count();
    assert_eq!((runs(&log), runs(&oracle_log)), (pieces, cars));
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of runs per route, cut into cars anywhere, filed at any
    /// barrier from the run's own on: the lane delivers what a lane of
    /// per-car copies delivers.
    #[test]
    fn cars_tile_the_concatenation_of_their_trains(
        ops in proptest::collection::vec((0u32..9, 0usize..LANES, 0u32..12, 0u32..9), 1..160),
    ) {
        spanning_cars_match_copied_bundles(&ops);
    }
}

#[test]
fn every_named_car_shape_is_exercised() {
    // Route 0: trains of 3, 2, 4 and 1 tasks, the first two filed by a
    // barrier with no car at all and left waiting through two more.
    let ops = [
        (0, 0, 2, 0), // train [0,1,2]
        (0, 0, 1, 0), // train [3,4]
        (6, 0, 0, 0), // barrier: trains only
        (6, 0, 0, 0),
        (3, 0, 1, 1), // car of 2: inside the first train
        (3, 0, 0, 0), // car of 1: to the end of the first train
        (0, 0, 3, 0), // train [5..9]
        (0, 0, 0, 0), // train [9]
        (3, 0, 2, 1), // car of 3: all of the second train and one task more
        (6, 0, 0, 0), // barrier: the first car is two barriers behind its train
        (7, 0, 0, 1),
        (0, 0, 4, 0), // train [10..15]
        (0, 0, 1, 0), // train [15,16]
        (3, 0, 2, 0), // car to the end of the third train ahead: three pieces
        (6, 0, 0, 0),
    ];
    assert_eq!(spanning_cars_match_copied_bundles(&ops), shape::ALL);
}
