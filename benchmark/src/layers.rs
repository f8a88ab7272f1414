//! Layer microbenchmarks: each times one layer's public type alone, at the
//! sizes the workload's own run reported, so the figure can be set beside
//! that run's time. They run once per traced pass.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use atos_core::aggregator::AggBuffer;
use atos_core::workqueue::WorkQueue;
use atos_queue::broker::BrokerQueue;
use atos_queue::cas::CasQueue;
use atos_queue::counter::CounterQueue;
use atos_queue::{ConcurrentQueue, PopState};
use atos_sim::{ControlPath, Engine, Fabric, PeId};

/// Tasks per `push_group` / `pop_group` / `pop_batch`: one warp, the
/// runtime's and the host backend's fetch size.
const GROUP: usize = 32;
/// Upper limit on operations per microbenchmark, to bound its time.
const MAX_OPS: u64 = 2_000_000;

/// A small deterministic generator for delays and priorities.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn ns_per(ops: u64, start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Hold model on `Engine<u64>`: `pending` events stay queued while each of
/// `events` pops is followed by one `schedule_after`.
pub fn engine_ns_per_event(pending: u64, events: u64) -> f64 {
    let events = events.min(MAX_OPS);
    let mut rng = Lcg(pending ^ events);
    let mut engine = Engine::<u64>::new();
    for i in 0..pending.max(1) {
        engine.schedule_after(rng.next() % 4096, i);
    }
    let t = Instant::now();
    for _ in 0..events {
        let (_, e) = engine.pop().expect("the hold model never drains");
        engine.schedule_after(64 + rng.next() % 4096, black_box(e));
    }
    ns_per(events, t)
}

/// `Fabric::transfer` between neighbouring PEs at `bytes` per message.
pub fn fabric_transfer_ns(mut fabric: Fabric, bytes: u64, messages: u64) -> f64 {
    let n = fabric.n_pes() as u32;
    let messages = messages.min(MAX_OPS);
    let (mut now, mut arrived) = (0u64, 0u64);
    let t = Instant::now();
    for i in 0..messages {
        let src = (i % n as u64) as u32;
        let dst = PeId((src + 1) % n);
        arrived ^= fabric.transfer(now, PeId(src), dst, bytes, ControlPath::gpu_direct());
        now += 100;
    }
    black_box(arrived);
    ns_per(messages, t)
}

/// `WorkQueue` holding `occupancy` tasks while `tasks` more pass through
/// in pop batches of one warp. A priority queue sees `buckets` priorities
/// at and above the level being served, which rises as tasks pass.
pub fn workqueue_ns(mut queue: WorkQueue<u64>, occupancy: u64, tasks: u64, buckets: u32) -> f64 {
    let tasks = tasks.min(MAX_OPS);
    let occupancy = occupancy.max(GROUP as u64);
    let mut rng = Lcg(occupancy);
    let mut priority =
        |passed: u64| (passed / occupancy) as u32 + (rng.next() % buckets as u64) as u32;
    for i in 0..occupancy {
        queue.push(i, priority(0));
    }
    let mut batch = Vec::with_capacity(GROUP);
    let mut passed = 0u64;
    let t = Instant::now();
    while passed < tasks {
        batch.clear();
        passed += queue.pop_batch(GROUP, &mut batch) as u64;
        for &task in &batch {
            queue.push(black_box(task), priority(passed));
        }
    }
    ns_per(passed, t)
}

/// `AggBuffer::push` of `tasks` tasks, flushed every `per_flush` with a
/// recycled vector as the runtime does.
pub fn agg_push_flush_ns(per_flush: u64, tasks: u64) -> f64 {
    let tasks = tasks.min(MAX_OPS);
    let mut buf = AggBuffer::<u64>::new(1);
    let mut spare = Vec::new();
    let t = Instant::now();
    for i in 0..tasks {
        buf.push(i, 8, i);
        if buf.len() as u64 >= per_flush.max(1) {
            let (mut bundle, bytes) = buf.flush_with(std::mem::take(&mut spare));
            black_box((bundle.len(), bytes));
            bundle.clear();
            spare = bundle;
        }
    }
    ns_per(tasks, t)
}

/// One queue design's three figures, ns per task.
pub struct QueueNs {
    pub push: f64,
    pub pop: f64,
    /// Two threads that each push a group and then pop one, without
    /// synchronisation between them: writes beside reads (the paper's
    /// third queue experiment).
    pub mixed_t2: f64,
}

const QUEUE_TASKS: usize = 1 << 19;
const MIXED_THREADS: usize = 2;

fn queue_ns<Q: ConcurrentQueue<u64>>(new: impl Fn(usize) -> Q) -> (QueueNs, Q) {
    let items: Vec<u64> = (0..GROUP as u64).collect();
    let push = |q: &Q| {
        q.push_group(black_box(&items))
            .expect("capacity covers every push")
    };
    let pop = |q: &Q, state: &mut PopState, out: &mut Vec<u64>| {
        out.clear();
        let got = q.pop_group(state, GROUP, out);
        black_box(&out);
        got
    };

    let q = new(QUEUE_TASKS);
    let t = Instant::now();
    for _ in 0..QUEUE_TASKS / GROUP {
        push(&q);
    }
    let push_ns = ns_per(QUEUE_TASKS as u64, t);
    let (mut state, mut out, mut got) = (PopState::new(), Vec::with_capacity(GROUP), 0);
    let t = Instant::now();
    while got < QUEUE_TASKS {
        got += pop(&q, &mut state, &mut out);
    }
    let pop_ns = ns_per(QUEUE_TASKS as u64, t);

    // Threads stop when all tasks are popped, wherever they were popped:
    // a counter-queue claim can outrun the last publication, so waiting
    // for one's own share or an empty claim may never end.
    let q = new(QUEUE_TASKS);
    let popped = AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..MIXED_THREADS {
            s.spawn(|| {
                let (mut state, mut out) = (PopState::new(), Vec::with_capacity(GROUP));
                let mut to_push = QUEUE_TASKS / MIXED_THREADS / GROUP;
                while popped.load(Ordering::Relaxed) < QUEUE_TASKS {
                    if to_push > 0 {
                        push(&q);
                        to_push -= 1;
                    }
                    popped.fetch_add(pop(&q, &mut state, &mut out), Ordering::Relaxed);
                }
            });
        }
    });
    let mixed_t2 = ns_per(QUEUE_TASKS as u64, t);
    (
        QueueNs {
            push: push_ns,
            pop: pop_ns,
            mixed_t2,
        },
        q,
    )
}

pub struct QueueLayer {
    pub counter: QueueNs,
    pub cas: QueueNs,
    pub broker: QueueNs,
    /// Failed compare-exchanges per group operation, CAS queue, mixed run.
    pub cas_retries_per_op: f64,
    /// Pop reservations past the publication frontier per group
    /// operation, counter queue, mixed run.
    pub counter_overshoot_per_op: f64,
}

/// `push_group` / `pop_group` in groups of one warp on the three designs.
pub fn queue_layer() -> QueueLayer {
    let group_ops = (2 * QUEUE_TASKS / GROUP) as f64;
    let (counter, q) = queue_ns(CounterQueue::<u64>::with_capacity);
    let counter_overshoot_per_op = q.contention().reservation_conflicts as f64 / group_ops;
    let (cas, q) = queue_ns(CasQueue::<u64>::with_capacity);
    let cas_retries_per_op = q.contention().cas_retries as f64 / group_ops;
    let (broker, _) = queue_ns(BrokerQueue::<u64>::with_capacity);
    QueueLayer {
        counter,
        cas,
        broker,
        cas_retries_per_op,
        counter_overshoot_per_op,
    }
}
