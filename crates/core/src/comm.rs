//! Communication: a PE's [`Emitter`] in, deliveries at the owner out.
//!
//! The send side charges every message to the fabric when it is emitted
//! (`Runtime::dispatch_remote` → `route` → `egress`); the receive side
//! resolves it at the next window barrier (`Runtime::merge_records`) and
//! hands its tasks to the application when the destination next looks
//! (`Runtime::settle`). Between the two a message is two small things:
//!
//! * a **car** ([`Car`], 40 bytes, plain data) — the ordering key, the
//!   half-charged transfer and a task count;
//! * a share of a route's **trains** — the fixed-capacity chunks the tasks
//!   were written into as they were emitted ([`crate::emitter`]): one
//!   scheduling step's tasks for one destination are one or more chunks,
//!   and each chunk departs as one train, in both comm modes. Cars only
//!   say where that stream is cut, and tile the *concatenation* of the
//!   route's trains: direct mode cuts every `group` tasks, the aggregator
//!   where a trigger fires ([`crate::aggregator::Bundle`]) — its car can
//!   span several trains and leave windows after the first of them did.
//!
//! No task is copied and nothing is allocated per message between
//! `process` and `on_receive`: a delivered train goes straight back to its
//! size class in the emitter's [`ChunkPool`], so the comm layer holds the
//! volume in flight plus one partial chunk per open run.
//!
//! ## Receive lanes
//!
//! At the barrier every car gets the `(arrival, seq)` key its arrival
//! event has always had — the sequence number is *reserved* on the engine,
//! in `ExchangeKey` order, whether or not an event is filed under it — and
//! joins the FIFO **lane** of its `(src, dst)` route in the
//! destination's [`Rx`]. A route's link is serial, so a lane is sorted by
//! key as it stands, and the destination's next arrival is the smallest
//! of at most `n_pes − 1` lane heads.
//!
//! One rule replaces the arrival event: **whoever is about to read a PE's
//! receive-side state settles that PE first** — delivers, in key order,
//! every lane car whose key is below the reader's own event key. The
//! readers are the PE's own events only (its step pops the queue, its
//! aggregator poll shares its trace track); nothing else can tell a queue
//! that holds an arrival from a lane that does. A PE with no step
//! scheduled has no reader coming, so its earliest waiting arrival does
//! get an engine event — a *doorbell*, filed under that arrival's reserved
//! key, which settles the PE through the key and wakes it as the arrival
//! event used to; if nothing came of it the PE is still idle and the next
//! arrival's doorbell is rung. An
//! idle PE with waiting arrivals always has one coming: the barrier that
//! files them, the doorbell that wakes nobody and the step that goes idle
//! each ring it (`Runtime::ring_doorbell`). Either way each
//! `on_receive`, queue push, occupancy sample and wake happens at the
//! logical `(time, seq)` position it always had, or is deferred across a
//! span in which nothing reads what it writes (DESIGN.md §4.7).
//!
//! The deferral is short. When a window ends, no reader with a key before
//! its horizon can exist any more, so every arrival before the horizon is
//! settled on the spot (`Runtime::settle_window`): a train's buffer comes
//! home within a window of its last arrival, and the lanes hold only the
//! future — which is also what lets the window loop read the next arrival
//! time straight off the lane heads.

use std::collections::VecDeque;

use atos_graph::prefetch::prefetch;
use atos_macros::atos_hot;
use atos_sim::{PeId, PendingTransfer, Time};
use atos_trace::{Tracer, Track};

use crate::aggregator::IssueClock;
use crate::app::Application;
use crate::config::{CommMode, KernelMode};
use crate::emitter::{ChunkPool, Emitter};
use crate::runtime::{Ev, Pe, Runtime, WAKE_POLL_NS};
use crate::workqueue::WorkQueue;

/// `(time, seq)`: the engine's event order, and the order of deliveries.
pub type Key = (Time, u64);

/// The order in which one barrier's staged messages are resolved.
///
/// `t_key` is the destination-side delivery key fixed at egress time
/// (`Fabric::transfer_egress`), `src` the emitting PE, and `counter` that
/// PE's monotone emission counter. The triple is unique per staged message
/// and computed from source-local state only; every arrival time, sequence
/// number and golden downstream of a barrier follows from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExchangeKey {
    /// Earliest possible destination-side delivery time, fixed at egress.
    t_key: Time,
    /// Emitting PE index.
    src: u32,
    /// Per-source-PE monotone emission counter (window-order tiebreak).
    counter: u64,
}

/// One inter-PE message between its emission and the next window barrier.
///
/// Egress (source-side link occupancy, stats, the `send` trace instant) is
/// charged when the message is emitted; ingress resolution waits for the
/// barrier, where all staged cars merge in deterministic `ExchangeKey`
/// order.
///
/// The tasks themselves ride in the route's current train; a car only
/// says how many of them it carries. `tasks == 0` is round metadata, which
/// occupies the wire and delivers nothing.
#[derive(Debug, Clone, Copy)]
pub struct Car {
    xfer: PendingTransfer,
    /// The emitting PE's monotone message count ([`ExchangeKey::counter`]).
    counter: u64,
    tasks: u32,
    src: u16,
    dst: u16,
}

impl Car {
    fn key(&self) -> ExchangeKey {
        ExchangeKey {
            t_key: self.xfer.t_key,
            src: self.src as u32,
            counter: self.counter,
        }
    }
}

/// One chunk of the tasks one PE emitted for one destination in one
/// scheduling step, in the buffer they were written into.
#[derive(Debug)]
pub(crate) struct Train<T> {
    src: u16,
    dst: u16,
    buf: Vec<T>,
}

/// What one window's sends leave for the barrier: cars in emission order,
/// and trains in emission order. A route's cars tile the concatenation of
/// its trains front to back, so neither refers to the other.
#[derive(Debug)]
pub(crate) struct Outbox<T> {
    pub(crate) cars: Vec<Car>,
    trains: Vec<Train<T>>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Outbox {
            cars: Vec::new(),
            trains: Vec::new(),
        }
    }
}

impl<T> Outbox<T> {
    /// Whether the window sent nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.cars.is_empty() && self.trains.is_empty()
    }
}

/// A runtime's communication state between steps: what the current window
/// has sent, and the scratch a delivery's kept tasks pass through on their
/// way to the worklist.
pub(crate) struct Comm<T> {
    /// Messages emitted during the current window, awaiting the barrier
    /// merge.
    pub(crate) outbox: Outbox<T>,
    keep: Vec<T>,
}

impl<T> Default for Comm<T> {
    fn default() -> Self {
        Comm {
            outbox: Outbox::default(),
            keep: Vec::new(),
        }
    }
}

/// A resolved car waiting in its lane.
#[derive(Debug, Clone, Copy)]
struct LaneCar {
    arrival: Time,
    /// Sequence number of the delivery this car belongs to. Cars that
    /// reach one destination at one instant at one barrier share it.
    seq: u64,
    /// Position within that delivery, in resolution order.
    sub: u32,
    tasks: u32,
    /// A doorbell event is pending for this car's delivery.
    belled: bool,
}

impl LaneCar {
    fn key(&self) -> Key {
        (self.arrival, self.seq)
    }

    fn order(&self) -> (Time, u64, u32) {
        (self.arrival, self.seq, self.sub)
    }
}

/// One `(src, dst)` route's arrivals: cars in key order, the trains whose
/// concatenation they tile in emission order — waiting, while their bundle
/// is open at the source — and how far into the front train delivery got.
#[derive(Debug)]
struct Lane<T> {
    cars: VecDeque<LaneCar>,
    trains: VecDeque<Vec<T>>,
    cursor: usize,
}

/// Where [`Rx::drain_before`] hands deliveries.
pub trait Sink<T> {
    /// The next tasks of the car being delivered, in emission order: all
    /// of them, or — for a car that spans trains — one contiguous piece.
    fn run(&mut self, tasks: &[T]);
    /// Every car of the delivery that arrived at `at` has been handed
    /// over (one call per `(arrival, seq)` key).
    fn delivered(&mut self, at: Time);
}

/// Outlined abort for the invariant every lane rests on: the car being
/// delivered counts `owed` tasks more than its route's trains hold, and
/// carrying on would silently drop them.
// Outlined failure path, vetted: invariant-violation abort.
#[cold]
#[inline(never)]
// atos-lint: allow(panic_in_kernel)
fn car_outran_its_trains(src: usize, car: LaneCar, owed: usize) -> ! {
    panic!(
        "lane invariant broken: the car of {} tasks from PE {src} arriving at {} ns \
         outran its trains, {owed} tasks still owed",
        car.tasks, car.arrival
    );
}

/// Hint the first cache lines of the train a delivery reads next. A
/// train is a chunk somewhere on the heap, so the hardware's stream
/// prefetcher starts cold on each; touched one piece ahead, the head
/// arrives while the current piece is delivered. It pays where a car spans
/// many chunks, as aggregated bundles do (DESIGN.md §4.11, *Chunks*).
#[inline(always)]
fn prefetch_head<T>(train: &[T]) {
    const LINE: usize = 64;
    let per_line = (LINE / std::mem::size_of::<T>().max(1)).max(1);
    for line in 0..4 {
        prefetch(train, line * per_line);
    }
}

/// A PE's receive side: one lane per source PE.
#[derive(Debug)]
pub struct Rx<T> {
    lanes: Vec<Lane<T>>,
    /// Cars waiting, over all lanes.
    cars: usize,
    /// `(arrival, seq, members)` of the delivery the current barrier filed
    /// last. Kept per destination — not "last filed overall" — so which
    /// arrivals share a delivery does not depend on how the sorted key
    /// sequence interleaves destinations.
    open: Option<(Time, u64, u32)>,
}

impl<T> Rx<T> {
    /// Lanes for `n_src` source PEs.
    pub fn new(n_src: usize) -> Self {
        Rx {
            lanes: (0..n_src)
                .map(|_| Lane {
                    cars: VecDeque::new(),
                    trains: VecDeque::new(),
                    cursor: 0,
                })
                .collect(),
            cars: 0,
            open: None,
        }
    }

    /// Cars waiting.
    pub fn len(&self) -> usize {
        self.cars
    }

    /// Whether no car is waiting.
    pub fn is_empty(&self) -> bool {
        self.cars == 0
    }

    /// Whether no car is waiting and no train is held: the state every
    /// receive side must be in when a run ends.
    pub fn is_drained(&self) -> bool {
        self.cars == 0
            && self
                .lanes
                .iter()
                .all(|l| l.trains.is_empty() && l.cursor == 0)
    }

    /// A new barrier: cars filed from here on do not join a delivery an
    /// earlier barrier opened.
    pub fn begin_barrier(&mut self) {
        self.open = None;
    }

    /// Append a train to `src`'s lane (emission order).
    pub fn push_train(&mut self, src: usize, buf: Vec<T>) {
        debug_assert!(!buf.is_empty(), "an empty train has no car to retire it");
        self.lanes[src].trains.push_back(buf);
    }

    /// File a resolved car of `tasks` tasks from `src`, arriving at
    /// `arrival`. A car that lands at the instant the barrier's previous
    /// car for this PE did joins that delivery and returns `false`;
    /// otherwise it opens one under `fresh_seq()`.
    ///
    /// Same-route messages serialize on their link, so deliveries merge
    /// only for genuinely simultaneous arrivals; cars are filed in
    /// `ExchangeKey` order, so a delivery hands its tasks over exactly
    /// as back-to-back arrival events would have.
    #[atos_hot]
    pub fn file(
        &mut self,
        src: usize,
        arrival: Time,
        tasks: u32,
        fresh_seq: impl FnOnce() -> u64,
    ) -> bool {
        let (seq, sub) = match self.open {
            Some((at, seq, sub)) if at == arrival => (seq, sub),
            _ => (fresh_seq(), 0),
        };
        self.open = Some((arrival, seq, sub + 1));
        let car = LaneCar {
            arrival,
            seq,
            sub,
            tasks,
            belled: false,
        };
        let lane = &mut self.lanes[src].cars;
        debug_assert!(
            lane.back().is_none_or(|last| last.order() < car.order()),
            "a route's arrivals went backwards: its link is not serial"
        );
        lane.push_back(car);
        self.cars += 1;
        sub == 0
    }

    /// The lane whose head is the PE's next arrival, if it is keyed below
    /// `bound`. Lanes are sorted, so the smallest head is the smallest car.
    #[inline]
    fn next_below(&self, bound: Key) -> Option<(usize, LaneCar)> {
        if self.cars == 0 {
            return None;
        }
        let mut next: Option<(usize, LaneCar)> = None;
        for (src, lane) in self.lanes.iter().enumerate() {
            if let Some(&car) = lane.cars.front() {
                if car.key() < bound && next.is_none_or(|(_, best)| car.order() < best.order()) {
                    next = Some((src, car));
                }
            }
        }
        next
    }

    /// Deliver, in key order, every waiting car whose `(arrival, seq)` is
    /// below `bound`; a train whose last task went out returns to its
    /// class in `pool` at once.
    #[atos_hot]
    pub fn drain_before<S: Sink<T>>(&mut self, bound: Key, pool: &mut ChunkPool<T>, sink: &mut S) {
        let mut current: Option<Key> = None;
        while let Some((src, car)) = self.next_below(bound) {
            if let Some((at, _)) = current.filter(|&k| k != car.key()) {
                sink.delivered(at);
            }
            current = Some(car.key());
            let lane = &mut self.lanes[src];
            lane.cars.pop_front();
            self.cars -= 1;
            let mut owed = car.tasks as usize;
            while owed > 0 {
                let Some(train) = lane.trains.front() else {
                    car_outran_its_trains(src, car, owed);
                };
                let end = train.len().min(lane.cursor + owed);
                if end == train.len() {
                    if let Some(next) = lane.trains.get(1) {
                        prefetch_head(next);
                    }
                }
                sink.run(&train[lane.cursor..end]);
                owed -= end - lane.cursor;
                if end < train.len() {
                    lane.cursor = end;
                } else {
                    lane.cursor = 0;
                    if let Some(done) = lane.trains.pop_front() {
                        pool.give(done);
                    }
                }
            }
        }
        if let Some((at, _)) = current {
            sink.delivered(at);
        }
    }

    /// The key of the earliest waiting delivery, if no doorbell is pending
    /// for it yet — marking that one now is.
    #[atos_hot]
    pub fn ring_next(&mut self) -> Option<Key> {
        let (src, car) = self.next_below((Time::MAX, u64::MAX))?;
        if car.belled {
            return None;
        }
        if let Some(head) = self.lanes[src].cars.front_mut() {
            head.belled = true;
        }
        Some(car.key())
    }

    /// Earliest arrival among the waiting cars.
    pub fn next_arrival(&self) -> Option<Time> {
        self.next_below((Time::MAX, u64::MAX))
            .map(|(_, car)| car.arrival)
    }
}

/// [`Sink`] into a PE: `on_receive`, then the worklist, with one
/// occupancy sample per delivery.
struct Receive<'a, A: Application, Tr> {
    pe: usize,
    app: &'a mut A,
    queue: &'a mut WorkQueue<A::Task>,
    keep: &'a mut Vec<A::Task>,
    hwm: &'a mut u64,
    tracer: &'a mut Tr,
    enqueued: bool,
}

impl<A: Application, Tr: Tracer> Sink<A::Task> for Receive<'_, A, Tr> {
    fn run(&mut self, tasks: &[A::Task]) {
        // One-sided destination-side effect (e.g. the RDMA atomicMin):
        // only improved updates enter the queue.
        self.app.on_receive_run(self.pe, tasks, self.keep);
        self.enqueued |= !self.keep.is_empty();
        for t in self.keep.drain(..) {
            let prio = self.app.priority(&t);
            self.queue.push(t, prio);
        }
    }

    fn delivered(&mut self, at: Time) {
        let len = self.queue.len() as u64;
        *self.hwm = (*self.hwm).max(len);
        if self.tracer.is_enabled() {
            // Receive-queue occupancy right after this delivery landed.
            self.tracer.counter(Track::pe(self.pe), at, "recvq", len);
        }
    }
}

impl<A: Application, Tr: Tracer> Runtime<A, Tr> {
    /// Bring `pe`'s receive side up to date for a reader at `bound`: apply
    /// every arrival keyed below it, in key order.
    #[atos_hot]
    pub(crate) fn settle(&mut self, pe: usize, bound: Key) {
        let enqueued = self.deliver(pe, bound);
        // Only a doorbell may find work for a PE with no step coming: it is
        // the one delivery that wakes.
        debug_assert!(
            !enqueued || self.pes[pe].step_scheduled,
            "an idle PE's arrival was delivered past its doorbell"
        );
    }

    /// Hand every arrival of `pe` keyed below `bound` to the application
    /// and the worklist, in key order. Returns whether any enqueued work.
    #[atos_hot]
    fn deliver(&mut self, pe: usize, bound: Key) -> bool {
        let Pe { rx, queue, .. } = &mut self.pes[pe];
        if rx.is_empty() {
            return false;
        }
        let mut sink = Receive {
            pe,
            app: &mut self.app,
            queue,
            keep: &mut self.comm.keep,
            hwm: &mut self.stats.queue_hwm_per_pe[pe],
            tracer: &mut self.tracer,
            enqueued: false,
        };
        rx.drain_before(bound, &mut self.em.pool, &mut sink);
        sink.enqueued
    }

    /// A doorbell: the arrival keyed `key` reaches a PE nobody was going
    /// to settle. Deliver through it and wake the PE if work came of it;
    /// if none did, the PE's next arrival needs a doorbell of its own.
    #[atos_hot]
    pub(crate) fn arrive(&mut self, dst: usize, key: Key) {
        if self.deliver(dst, (key.0, key.1 + 1)) {
            let wake_delay = match self.cfg.kernel {
                KernelMode::Persistent => WAKE_POLL_NS,
                // Host loop relaunches the kernel when work appears.
                KernelMode::Discrete => 0,
            };
            self.wake(dst, wake_delay);
        }
        self.ring_doorbell(dst);
    }

    /// Keep the promise made to an idle PE: while nobody is coming to
    /// settle `pe`, its earliest waiting arrival is an engine event under
    /// its own key. No-op when a step is scheduled, nothing waits, or that
    /// doorbell is already pending.
    #[atos_hot]
    pub(crate) fn ring_doorbell(&mut self, pe: usize) {
        if self.pes[pe].step_scheduled {
            return;
        }
        if let Some((at, seq)) = self.pes[pe].rx.ring_next() {
            self.engine.schedule_at_seq(at, seq, Ev::Arrive { dst: pe });
        }
    }

    /// The window that just ended at `self.horizon` is history: nothing
    /// can read a PE at an earlier key any more, so every arrival before
    /// the horizon is due whoever its reader would have been. Delivering
    /// them here returns their buffers a window after arrival instead of
    /// a step after, and leaves only future arrivals in the lanes.
    pub(crate) fn settle_window(&mut self) {
        for pe in 0..self.pes.len() {
            self.settle(pe, (self.horizon, 0));
        }
    }

    /// The next instant anything is due: the engine's next event or the
    /// next lane arrival (all at or past the last horizon, see
    /// [`Runtime::settle_window`]).
    pub(crate) fn next_event_time(&self) -> Option<Time> {
        let lanes = self.pes.iter().filter_map(|p| p.rx.next_arrival());
        self.engine.peek_time().into_iter().chain(lanes).min()
    }

    /// Route remote emissions, which the emitter already holds as one run
    /// per destination. Each of a run's chunks leaves as one train, in
    /// emission order; the comm mode only decides where cars are cut — every
    /// `group` tasks (fine-grained, spread across the step for in-kernel
    /// overlap), or where the aggregator's policy fires, if it does in this
    /// dispatch. Destinations ascend, each in emission order.
    #[atos_hot]
    pub(crate) fn dispatch_remote(
        &mut self,
        src: usize,
        em: &mut Emitter<A::Task>,
        now: Time,
        busy: Time,
    ) {
        let total: usize = (0..em.n_dst()).map(|dst| em.run_len(dst)).sum();
        if total == 0 {
            return;
        }
        let task_bytes = self.app.task_bytes();
        // Gluon-style round metadata: serialize and broadcast update masks
        // to every peer before this round's payload leaves. The host-side
        // pack/unpack cost accumulates per peer on the sender's critical
        // path; the payload below cannot leave until it completes (link
        // FIFO: egress is charged in issue order, so the payload staged
        // after the metadata cannot overtake it).
        let mut metadata_done = now + busy;
        if self.cfg.round_metadata_bytes > 0 {
            let ser_ns = (self.cfg.round_metadata_bytes as f64
                * crate::config::METADATA_CPU_NS_PER_BYTE)
                .ceil() as Time;
            for peer in 0..self.pes.len() {
                if peer != src {
                    metadata_done += ser_ns;
                    let bytes = self.cfg.round_metadata_bytes;
                    self.egress(metadata_done, src, peer, bytes, 0);
                }
            }
        }
        // One issue per message across all destinations, or one per task.
        let issues = match self.cfg.comm {
            CommMode::Direct { group } => (0..em.n_dst())
                .map(|dst| em.run_len(dst).div_ceil(group.max(1)))
                .sum(),
            CommMode::Aggregated { .. } => total,
        };
        // In-kernel issue times: Atos spreads `issues` sends across the
        // busy window (communication/computation overlap); kernel-boundary
        // frameworks emit everything when the kernel completes.
        let clock = match self.cfg.in_kernel_comm {
            true => IssueClock::spread(now, busy, issues),
            false => IssueClock::spread(metadata_done, 0, 1),
        };
        let mut i = 0u64;
        for dst in 0..em.n_dst() {
            let mut rest = em.run_len(dst);
            if rest == 0 {
                continue;
            }
            match self.cfg.comm {
                CommMode::Direct { group } => {
                    while rest > 0 {
                        let tasks = group.clamp(1, rest);
                        self.route(clock.at(i), src, dst, tasks, task_bytes);
                        rest -= tasks;
                        i += 1;
                    }
                }
                CommMode::Aggregated {
                    batch_bytes,
                    wait_time,
                } => {
                    // Count the run into the pair's bundle: up to the
                    // next size or age trigger, flush, repeat.
                    while rest > 0 {
                        let bundle = &mut self.pes[src].agg[dst];
                        let (k, fires) =
                            bundle.run_len(&clock, i, rest, task_bytes, batch_bytes, wait_time);
                        bundle.note(k, task_bytes, clock.at(i));
                        rest -= k;
                        i += k as u64;
                        if fires {
                            self.flush_bundle(clock.at(i - 1), src, dst, task_bytes, batch_bytes);
                        }
                    }
                }
            }
            for chunk in em.take_run(dst) {
                self.depart(src, dst, chunk);
            }
        }
        self.schedule_agg_poll(src);
    }

    /// Flush one aggregator bundle: close the pair's record and cut a car
    /// over the tasks it counted. `batch_bytes` is the size trigger, used
    /// to classify the flush (at or above it: on size, otherwise on age).
    #[atos_hot]
    fn flush_bundle(
        &mut self,
        at: Time,
        src: usize,
        dst: usize,
        task_bytes: u64,
        batch_bytes: u64,
    ) {
        let bundle = &mut self.pes[src].agg[dst];
        let by_size = bundle.bytes() >= batch_bytes;
        let opened = bundle.opened_at().unwrap_or(at);
        let (tasks, bytes) = bundle.close();
        self.stats.agg_flushes += 1;
        if by_size {
            self.stats.agg_flushes_size += 1;
        } else {
            self.stats.agg_flushes_age += 1;
        }
        self.stats.agg_flushed_tasks += tasks as u64;
        self.stats.agg_flushed_bytes += bytes;
        if self.tracer.is_enabled() {
            // The aggregation window: from the oldest queued item to the
            // flush, on the (src, dst) pair's own track.
            self.tracer.span(
                Track::agg(src, dst),
                opened,
                at.saturating_sub(opened),
                if by_size { "flush[size]" } else { "flush[age]" },
                ["bytes", "tasks"],
                [bytes, tasks as u64],
            );
        }
        self.route(at, src, dst, tasks, task_bytes);
    }

    /// Stage a (non-empty) chunk of the run `src` just emitted for `dst`:
    /// the next stretch of what the route's cars, sent already or yet to
    /// be, count.
    #[atos_hot]
    fn depart(&mut self, src: usize, dst: usize, buf: Vec<A::Task>) {
        self.comm.outbox.trains.push(Train {
            src: src as u16,
            dst: dst as u16,
            buf,
        });
    }

    /// One message of `tasks` tasks toward the wire: count it, mark the
    /// send on the source timeline, and hand it to [`Runtime::egress`].
    #[atos_hot]
    fn route(&mut self, at: Time, src: usize, dst: usize, tasks: usize, task_bytes: u64) {
        self.stats.remote_tasks += tasks as u64;
        if self.tracer.is_enabled() {
            // The arrival mark is recorded when the barrier merge resolves
            // the message.
            self.tracer.instant(
                Track::pe(src),
                at,
                "send",
                ["dst", "tasks"],
                [dst as u64, tasks as u64],
            );
        }
        debug_assert!(
            tasks <= u32::MAX as usize,
            "one message carries under 2^32 tasks"
        );
        self.egress(at, src, dst, tasks as u64 * task_bytes, tasks as u32);
    }

    /// Charge the egress side of one `bytes`-byte message (control path,
    /// source link occupancy, stats) and stage its car in the outbox under
    /// its deterministic [`ExchangeKey`]. Ingress resolution and delivery
    /// wait for the next window barrier. `tasks` is 0 for round metadata,
    /// which occupies the wire and delivers nothing.
    #[atos_hot]
    fn egress(&mut self, at: Time, src: usize, dst: usize, bytes: u64, tasks: u32) {
        let xfer = self.fabric.transfer_egress(
            at,
            PeId(src as u32),
            PeId(dst as u32),
            bytes,
            self.cfg.control,
        );
        self.stats.messages += 1;
        self.stats.payload_bytes += bytes;
        let counter = self.pes[src].emitted;
        self.pes[src].emitted += 1;
        self.comm.outbox.cars.push(Car {
            xfer,
            counter,
            tasks,
            src: src as u16,
            dst: dst as u16,
        });
    }

    /// Resolve one barrier's staged messages: hand the window's trains to
    /// their lanes, sort its cars by [`ExchangeKey`], resolve ingress
    /// occupancy in that order, and file each car under the `(arrival,
    /// seq)` key of the arrival event it stands for; then ring the doorbell
    /// of every destination that has no step coming. Drains the outbox,
    /// keeping its capacity.
    #[atos_hot]
    pub(crate) fn merge_records(&mut self) {
        for train in self.comm.outbox.trains.drain(..) {
            self.pes[train.dst as usize]
                .rx
                .push_train(train.src as usize, train.buf);
        }
        if self.comm.outbox.cars.is_empty() {
            return; // only runs whose bundles are still open
        }
        // Keys are unique (per-source counters), so unstable sort is
        // deterministic.
        self.comm.outbox.cars.sort_unstable_by_key(Car::key);
        for pe in &mut self.pes {
            pe.rx.begin_barrier();
        }
        for car in self.comm.outbox.cars.drain(..) {
            let arrival = self.fabric.resolve_ingress(&car.xfer);
            if car.tasks == 0 {
                // Round metadata: occupies the wire, delivers no tasks.
                continue;
            }
            let dst = car.dst as usize;
            if self.tracer.is_enabled() {
                // Arrival mark carrying the end-to-end latency on the
                // destination timeline (counterpart of `route`'s send).
                self.tracer.instant(
                    Track::pe(dst),
                    arrival,
                    "msg",
                    ["latency_ns", "bytes"],
                    [
                        arrival.saturating_sub(car.xfer.issued),
                        car.xfer.payload as u64,
                    ],
                );
            }
            debug_assert!(
                arrival >= self.horizon,
                "lookahead violated: arrival inside its window"
            );
            let engine = &mut self.engine;
            let opened = self.pes[dst]
                .rx
                .file(car.src as usize, arrival, car.tasks, || {
                    engine.reserve_seqs(1)
                });
            self.stats.coalesced_arrivals += !opened as u64;
        }
        for pe in 0..self.pes.len() {
            self.ring_doorbell(pe);
        }
    }

    #[atos_hot]
    fn schedule_agg_poll(&mut self, pe: usize) {
        let wait_time = match self.cfg.comm {
            CommMode::Aggregated { wait_time, .. } => wait_time,
            _ => return,
        };
        if self.pes[pe].agg_poll_scheduled {
            // One pending timer already covers this flush window: buffers
            // open at or after the time the timer was armed, so every
            // deadline is at or past the armed one and the poll's
            // rescheduling loop picks it up — no per-destination timer.
            debug_assert!(
                (self.pes[pe].agg.iter())
                    .filter_map(|b| b.age_deadline(wait_time))
                    .min()
                    .is_none_or(|d| d >= self.pes[pe].agg_poll_deadline),
                "aggregator deadline moved earlier than the armed poll"
            );
            self.stats.agg_poll_coalesced += 1;
            return;
        }
        let deadline = self.pes[pe]
            .agg
            .iter()
            .filter_map(|b| b.age_deadline(wait_time))
            .min();
        if let Some(d) = deadline {
            self.pes[pe].agg_poll_scheduled = true;
            self.pes[pe].agg_poll_deadline = d;
            self.engine.schedule_at(d, Ev::AggPoll { pe });
        }
    }

    #[atos_hot]
    pub(crate) fn agg_poll(&mut self, pe: usize) {
        self.pes[pe].agg_poll_scheduled = false;
        let (batch_bytes, wait_time) = match self.cfg.comm {
            CommMode::Aggregated {
                batch_bytes,
                wait_time,
            } => (batch_bytes, wait_time),
            _ => return,
        };
        let now = self.engine.now();
        let task_bytes = self.app.task_bytes();
        let mut flushed_any = false;
        for dst in 0..self.pes[pe].agg.len() {
            if self.pes[pe].agg[dst].should_flush(now, batch_bytes, wait_time) {
                self.flush_bundle(now, pe, dst, task_bytes, batch_bytes);
                flushed_any = true;
            }
        }
        if !flushed_any {
            // Every buffer this poll was armed for already left on the
            // size trigger; the timer fired into an empty window.
            self.stats.agg_poll_idle += 1;
        }
        self.schedule_agg_poll(pe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::IdleOutcome;
    use crate::config::AtosConfig;
    use atos_sim::Fabric;

    #[test]
    fn exchange_key_orders_by_time_then_source_then_counter() {
        let k = |t, s, c| ExchangeKey {
            t_key: t,
            src: s,
            counter: c,
        };
        let mut v = [k(5, 1, 0), k(5, 0, 1), k(4, 9, 9), k(5, 0, 0)];
        v.sort();
        assert_eq!(v, [k(4, 9, 9), k(5, 0, 0), k(5, 0, 1), k(5, 1, 0)]);
    }

    #[test]
    fn aggregator_handles_multiple_destinations() {
        // Seed tasks whose children scatter to 3 peers; each peer's bundle
        // flushes independently.
        struct Scatter;
        impl Application for Scatter {
            type Task = (u32, bool);
            fn process(&mut self, _pe: usize, t: Self::Task, out: &mut Emitter<Self::Task>) {
                if t.1 {
                    for i in 0..300u32 {
                        out.push(1 + (i % 3) as usize, (i, false));
                    }
                }
            }
            fn on_receive(&mut self, _pe: usize, t: Self::Task) -> Option<Self::Task> {
                Some(t)
            }
            fn task_edges(&self, _t: &Self::Task) -> u64 {
                1
            }
        }
        let mut rt = Runtime::new(Scatter, Fabric::ib_cluster(4), AtosConfig::ib_pagerank());
        rt.seed(0, [(0u32, true)]);
        let s = rt.run();
        assert_eq!(s.remote_tasks, 300);
        // One age-triggered bundle per destination.
        assert_eq!(s.messages, 3);
    }

    /// Zero-byte tasks issued in one burst at one instant: every message
    /// serializes onto the link with zero wire time, so all arrivals land
    /// at the same `(dst, deliver_time)` — the coalescing path's worst
    /// (and best) case.
    struct ZeroByteScatter {
        width: u32,
        emitted: bool,
    }

    impl Application for ZeroByteScatter {
        type Task = u32;
        fn process(&mut self, _pe: usize, _t: u32, _out: &mut Emitter<u32>) {}
        fn on_receive(&mut self, _pe: usize, t: u32) -> Option<u32> {
            Some(t)
        }
        fn on_idle(&mut self, pe: usize, out: &mut Emitter<u32>) -> IdleOutcome {
            if pe == 0 && !self.emitted {
                self.emitted = true;
                for i in 0..self.width {
                    out.push(1, i);
                }
                IdleOutcome::Refilled
            } else {
                IdleOutcome::Quiescent
            }
        }
        fn task_bytes(&self) -> u64 {
            0
        }
        fn task_edges(&self, _t: &u32) -> u64 {
            1
        }
    }

    #[test]
    fn simultaneous_arrivals_coalesce_into_one_event() {
        let width = 64u32;
        let mut rt = Runtime::new(
            ZeroByteScatter {
                width,
                emitted: false,
            },
            Fabric::daisy(2),
            AtosConfig {
                comm: CommMode::Direct { group: 1 },
                ..AtosConfig::standard_persistent()
            },
        );
        rt.seed(0, [0u32]);
        let s = rt.run();
        // Every task still travels as its own message (routing, stats and
        // traces are per message)...
        assert_eq!(s.messages, width as u64);
        assert_eq!(s.remote_tasks, width as u64);
        // ...but the engine dispatches one Arrive for the whole burst.
        assert_eq!(s.coalesced_arrivals, width as u64 - 1);
        assert_eq!(s.ev_arrivals, 1);
    }

    /// Chain: task k re-emits (k-1) locally and sends one remote task per
    /// step, so several flush windows open while an aggregator poll is
    /// already armed.
    struct DripRemote;

    impl Application for DripRemote {
        type Task = u32;
        fn process(&mut self, pe: usize, t: u32, out: &mut Emitter<u32>) {
            if pe == 0 {
                out.push(1, t);
                if t > 0 {
                    out.push_local(t - 1);
                }
            }
        }
        fn on_receive(&mut self, _pe: usize, t: u32) -> Option<u32> {
            Some(t)
        }
        fn task_edges(&self, _t: &u32) -> u64 {
            1
        }
    }

    #[test]
    fn flush_window_arms_one_wakeup_not_one_per_dispatch() {
        let mut rt = Runtime::new(DripRemote, Fabric::ib_cluster(2), AtosConfig::ib_pagerank());
        rt.seed(0, [30u32]);
        let s = rt.run();
        assert!(s.agg_flushes >= 1);
        assert!(s.ev_agg_polls >= 1);
        // Dispatches that buffered into an already-armed window reused the
        // pending timer instead of scheduling their own.
        assert!(
            s.agg_poll_coalesced > 0,
            "expected later dispatches to coalesce onto the armed poll ({s:?})"
        );
    }

    /// Every task on PE 0 sends one task to PE 1, which drops it.
    struct Feed;

    impl Application for Feed {
        type Task = u32;
        fn process(&mut self, pe: usize, t: u32, out: &mut Emitter<u32>) {
            if pe == 0 {
                out.push(1, t);
            }
        }
        fn on_receive(&mut self, _pe: usize, _t: u32) -> Option<u32> {
            None
        }
        fn task_edges(&self, _t: &u32) -> u64 {
            1
        }
    }

    #[test]
    fn a_busy_receiver_collects_its_arrivals_without_engine_events() {
        let run = |backlog: usize| {
            let mut rt = Runtime::new(Feed, Fabric::daisy(2), AtosConfig::standard_persistent());
            rt.seed(0, 0..20_000u32);
            rt.seed(1, std::iter::repeat_n(0u32, backlog));
            rt.run()
        };
        // PE 1 with nothing of its own to do, and with a backlog that
        // outlasts PE 0's sends.
        let (idle, busy) = (run(0), run(40_000));
        // The traffic is the same either way...
        assert_eq!(idle.messages, busy.messages);
        assert_eq!(idle.remote_tasks, 20_000);
        assert_eq!(busy.remote_tasks, 20_000);
        // ...but a receiver with steps of its own needs no doorbell.
        assert!(idle.ev_arrivals > 0);
        assert_eq!(busy.ev_arrivals, 0, "{busy:?}");
        for s in [&idle, &busy] {
            assert_eq!(s.sim_events, s.ev_steps + s.ev_arrivals + s.ev_agg_polls);
        }
    }

    #[test]
    fn an_idle_pe_keeps_one_doorbell_however_many_arrivals_wait() {
        // PE 1 drops everything it receives, so it never wakes: each
        // doorbell delivers one arrival and rings the next. Pending engine
        // events stay a handful while hundreds of arrivals wait.
        let mut rt = Runtime::new(Feed, Fabric::daisy(2), AtosConfig::standard_persistent());
        rt.seed(0, 0..20_000u32);
        let s = rt.run();
        assert_eq!(s.ev_arrivals + s.coalesced_arrivals, s.messages);
        assert!(s.messages > 500);
        assert!(s.peak_pending_events <= 4, "{}", s.peak_pending_events);
    }
}
