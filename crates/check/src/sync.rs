//! Shadow synchronization types.
//!
//! Drop-in stand-ins for `std::sync::atomic` / `std::cell::UnsafeCell` that
//! funnel every operation through the model scheduler and the vector-clock
//! memory model. The approximation (documented in the crate docs and
//! DESIGN.md):
//!
//! * **Per-location store history.** Every atomic keeps the full list of
//!   stores of the current execution. A load may observe any store between
//!   its *coherence floor* (the newest store it already read or that
//!   happens-before it) and the newest store — the checker explores each
//!   choice. Candidate 0 is always the newest store, so the first DFS
//!   execution behaves sequentially-consistently.
//! * **Release/acquire edges.** A `Release` store publishes the writer's
//!   clock; an `Acquire` load that observes it joins that clock. Relaxed
//!   loads bank the clock in `pending_acq` (claimed by a later
//!   `fence(Acquire)`); relaxed stores publish the clock of the writer's
//!   last `fence(Release)`. RMWs always forward the previous store's
//!   message (release-sequence continuation).
//! * **Modification order = execution order**, RMWs and failed CAS read the
//!   newest store, `SeqCst` is treated as `AcqRel` (no global SC order),
//!   and weak CAS never fails spuriously. These make the model slightly
//!   weaker than C11 for SC-fenced algorithms — the atos queues use none.
//! * **Stale-read bound.** A thread may observe a non-newest store of one
//!   location at most [`STALE_BOUND`] times in a row, which keeps spin
//!   loops (and the DFS over them) finite.
//!
//! `UnsafeCell` accesses are checked FastTrack-style: an access pair with
//! neither ordered before the other (at least one a write) is a data race,
//! reported with both source locations; a read of a never-written cell is a
//! publication-safety failure. Checks run *before* the closure, so a buggy
//! schedule is reported rather than executed.

#![expect(unsafe_code, reason = "the checker's shadow atomics and UnsafeCell")]

use std::cell::{Cell, RefCell};
use std::panic::Location;

pub use std::sync::atomic::Ordering;

use crate::clock::VClock;
use crate::exec::FailureKind;
pub use crate::exec::STALE_BOUND;
use crate::rt;

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// One store in a location's modification order.
struct Store {
    val: u64,
    /// Writer tid (`usize::MAX` for the initial value, known to everyone).
    by: usize,
    /// Writer clock component at the store.
    epoch: u32,
    /// Clock published to acquirers of this store.
    msg: VClock,
}

impl Store {
    fn init(val: u64) -> Self {
        Store {
            val,
            by: usize::MAX,
            epoch: 0,
            msg: VClock::new(),
        }
    }
}

#[derive(Default)]
struct AtomState {
    stores: Vec<Store>,
    /// Per tid: index of the newest store this thread has read (coherence).
    last_read: Vec<usize>,
    /// Per tid: consecutive non-newest reads (see [`STALE_BOUND`]).
    stale: Vec<u32>,
}

impl AtomState {
    fn ensure(&mut self, tid: usize) {
        if self.last_read.len() <= tid {
            self.last_read.resize(tid + 1, 0);
            self.stale.resize(tid + 1, 0);
        }
    }
}

/// Untyped atomic location; the typed wrappers below convert through `u64`
/// bits (bijective per width, so bit equality is value equality).
struct AtomCore {
    state: RefCell<AtomState>,
}

// SAFETY: all access to `state` happens either under `&mut self` or inside
// a model operation, and the scheduler runs exactly one model thread at a
// time — the RefCell is never borrowed concurrently.
unsafe impl Send for AtomCore {}
// SAFETY: as for `Send` above: one model thread runs at a time.
unsafe impl Sync for AtomCore {}

impl AtomCore {
    fn new(bits: u64) -> Self {
        AtomCore {
            state: RefCell::new(AtomState {
                stores: vec![Store::init(bits)],
                last_read: Vec::new(),
                stale: Vec::new(),
            }),
        }
    }

    /// Newest committed value (no scheduling; for `get_mut` / `Debug`).
    fn latest(&self) -> u64 {
        self.state
            .borrow()
            .stores
            .last()
            .expect("nonempty history")
            .val
    }

    /// Reset the history to a single initial store after a `get_mut` write.
    /// `&mut` access implies external synchronization, so the fresh store is
    /// treated as known to every thread.
    fn reinit(&self, bits: u64) {
        let mut st = self.state.borrow_mut();
        st.stores.clear();
        st.stores.push(Store::init(bits));
        st.last_read.clear();
        st.stale.clear();
    }

    fn load(&self, order: Ordering) -> u64 {
        let ctx = rt::require();
        ctx.exec.schedule_point(ctx.tid);
        let tid = ctx.tid;
        let mut eng = ctx.exec.lock();
        let mut st = self.state.borrow_mut();
        st.ensure(tid);
        eng.threads[tid].clock.tick(tid);
        let clock = eng.threads[tid].clock.clone();
        let latest = st.stores.len() - 1;
        // Coherence floor: newest store already read, or newest store that
        // happens-before this load.
        let seen = st.last_read[tid];
        let mut floor = seen;
        for i in seen..=latest {
            let s = &st.stores[i];
            if clock.dominates(s.by, s.epoch) {
                floor = i;
            }
        }
        let lo = if st.stale[tid] >= STALE_BOUND {
            latest
        } else {
            floor
        };
        let k = eng.decide_value(latest - lo + 1);
        let idx = latest - k;
        st.last_read[tid] = idx;
        st.stale[tid] = if idx < latest { st.stale[tid] + 1 } else { 0 };
        let val = st.stores[idx].val;
        let msg = st.stores[idx].msg.clone();
        drop(st);
        let t = &mut eng.threads[tid];
        t.pending_acq.join(&msg);
        if is_acquire(order) {
            t.clock.join(&msg);
        }
        val
    }

    fn store(&self, bits: u64, order: Ordering) {
        let ctx = rt::require();
        ctx.exec.schedule_point(ctx.tid);
        let tid = ctx.tid;
        let mut eng = ctx.exec.lock();
        let mut st = self.state.borrow_mut();
        st.ensure(tid);
        let t = &mut eng.threads[tid];
        let epoch = t.clock.tick(tid);
        // A plain store starts a fresh release sequence: it publishes the
        // writer's clock (release) or its last release-fence clock.
        let msg = if is_release(order) {
            t.clock.clone()
        } else {
            t.rel_fence.clone()
        };
        st.stores.push(Store {
            val: bits,
            by: tid,
            epoch,
            msg,
        });
        st.last_read[tid] = st.stores.len() - 1;
        st.stale[tid] = 0;
    }

    /// Read-modify-write on the newest store (modification order =
    /// execution order).
    fn rmw(&self, order: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        let ctx = rt::require();
        ctx.exec.schedule_point(ctx.tid);
        let tid = ctx.tid;
        let mut eng = ctx.exec.lock();
        let mut st = self.state.borrow_mut();
        st.ensure(tid);
        let prev = st.stores.last().expect("nonempty history");
        let prev_val = prev.val;
        let prev_msg = prev.msg.clone();
        let t = &mut eng.threads[tid];
        t.pending_acq.join(&prev_msg);
        if is_acquire(order) {
            t.clock.join(&prev_msg);
        }
        let epoch = t.clock.tick(tid);
        // Release-sequence continuation: the RMW forwards the previous
        // store's message even when its own write side is relaxed.
        let mut msg = prev_msg;
        if is_release(order) {
            msg.join(&t.clock);
        } else {
            msg.join(&t.rel_fence);
        }
        st.stores.push(Store {
            val: f(prev_val),
            by: tid,
            epoch,
            msg,
        });
        st.last_read[tid] = st.stores.len() - 1;
        st.stale[tid] = 0;
        prev_val
    }

    /// Compare-exchange. A failed CAS is a load of the newest store with
    /// the failure ordering (no spurious weak failures — documented
    /// approximation).
    fn cas(
        &self,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let ctx = rt::require();
        ctx.exec.schedule_point(ctx.tid);
        let tid = ctx.tid;
        let mut eng = ctx.exec.lock();
        let mut st = self.state.borrow_mut();
        st.ensure(tid);
        let prev = st.stores.last().expect("nonempty history");
        let prev_val = prev.val;
        let prev_msg = prev.msg.clone();
        let t = &mut eng.threads[tid];
        if prev_val == expected {
            t.pending_acq.join(&prev_msg);
            if is_acquire(success) {
                t.clock.join(&prev_msg);
            }
            let epoch = t.clock.tick(tid);
            let mut msg = prev_msg;
            if is_release(success) {
                msg.join(&t.clock);
            } else {
                msg.join(&t.rel_fence);
            }
            st.stores.push(Store {
                val: new,
                by: tid,
                epoch,
                msg,
            });
            st.last_read[tid] = st.stores.len() - 1;
            st.stale[tid] = 0;
            Ok(prev_val)
        } else {
            t.pending_acq.join(&prev_msg);
            if is_acquire(failure) {
                t.clock.join(&prev_msg);
            }
            t.clock.tick(tid);
            st.last_read[tid] = st.stores.len() - 1;
            st.stale[tid] = 0;
            Err(prev_val)
        }
    }
}

macro_rules! shadow_atomic {
    ($(#[$meta:meta])* $name:ident, $ty:ty) => {
        $(#[$meta])*
        pub struct $name {
            core: AtomCore,
            /// Staging slot for `get_mut`; committed back on the next
            /// shared-access operation.
            mirror: std::cell::UnsafeCell<$ty>,
            dirty: Cell<bool>,
        }

        // SAFETY: `mirror` is written only under `&mut self` (get_mut) and
        // read back under the model engine lock with exactly one thread
        // running; `core` is internally serialized the same way.
        unsafe impl Send for $name {}
        // SAFETY: as for `Send` above: one model thread runs at a time.
        unsafe impl Sync for $name {}

        impl $name {
            /// Shadow equivalent of the std constructor.
            pub fn new(v: $ty) -> Self {
                $name {
                    core: AtomCore::new(v as u64),
                    mirror: std::cell::UnsafeCell::new(v),
                    dirty: Cell::new(false),
                }
            }

            fn flush(&self) {
                if self.dirty.get() {
                    // SAFETY: `dirty` is only set by `get_mut` (`&mut self`),
                    // so no other reference to `mirror` can exist here.
                    self.core.reinit(unsafe { *self.mirror.get() } as u64);
                    self.dirty.set(false);
                }
            }

            /// Model-checked load.
            pub fn load(&self, order: Ordering) -> $ty {
                self.flush();
                self.core.load(order) as $ty
            }

            /// Model-checked store.
            pub fn store(&self, v: $ty, order: Ordering) {
                self.flush();
                self.core.store(v as u64, order)
            }

            /// Model-checked swap.
            pub fn swap(&self, v: $ty, order: Ordering) -> $ty {
                self.flush();
                self.core.rmw(order, |_| v as u64) as $ty
            }

            /// Model-checked wrapping add.
            pub fn fetch_add(&self, v: $ty, order: Ordering) -> $ty {
                self.flush();
                self.core.rmw(order, |b| (b as $ty).wrapping_add(v) as u64) as $ty
            }

            /// Model-checked wrapping sub.
            pub fn fetch_sub(&self, v: $ty, order: Ordering) -> $ty {
                self.flush();
                self.core.rmw(order, |b| (b as $ty).wrapping_sub(v) as u64) as $ty
            }

            /// Model-checked max (in the typed domain, so signed types
            /// compare signed).
            pub fn fetch_max(&self, v: $ty, order: Ordering) -> $ty {
                self.flush();
                self.core.rmw(order, |b| std::cmp::max(b as $ty, v) as u64) as $ty
            }

            /// Model-checked min.
            pub fn fetch_min(&self, v: $ty, order: Ordering) -> $ty {
                self.flush();
                self.core.rmw(order, |b| std::cmp::min(b as $ty, v) as u64) as $ty
            }

            /// Model-checked compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.flush();
                self.core
                    .cas(current as u64, new as u64, success, failure)
                    .map(|v| v as $ty)
                    .map_err(|v| v as $ty)
            }

            /// Weak CAS; never fails spuriously in the model (documented
            /// approximation — spurious failure only adds retries).
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Exclusive access; `&mut` implies external synchronization, so
            /// the written value becomes a fresh initial store visible to
            /// every thread.
            pub fn get_mut(&mut self) -> &mut $ty {
                let cur = if self.dirty.get() {
                    // SAFETY: `&mut self` — no other reference to `mirror`.
                    unsafe { *self.mirror.get() }
                } else {
                    self.core.latest() as $ty
                };
                // SAFETY: as above.
                unsafe {
                    *self.mirror.get() = cur;
                }
                self.dirty.set(true);
                // SAFETY: as above; the borrow is tied to `&mut self`.
                unsafe { &mut *self.mirror.get() }
            }

            /// Consume, returning the final value.
            pub fn into_inner(mut self) -> $ty {
                *self.get_mut()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let cur = if self.dirty.get() {
                    // SAFETY: Debug on a shared ref can race with get_mut in
                    // principle, but dirty=true implies a live `&mut`, which
                    // the borrow checker forbids alongside `&self`.
                    unsafe { *self.mirror.get() }
                } else {
                    self.core.latest() as $ty
                };
                write!(f, "{cur}")
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$ty>::default())
            }
        }
    };
}

shadow_atomic!(
    /// Shadow `std::sync::atomic::AtomicU64`.
    AtomicU64,
    u64
);
shadow_atomic!(
    /// Shadow `std::sync::atomic::AtomicUsize`.
    AtomicUsize,
    usize
);
shadow_atomic!(
    /// Shadow `std::sync::atomic::AtomicU32`.
    AtomicU32,
    u32
);
shadow_atomic!(
    /// Shadow `std::sync::atomic::AtomicI64`.
    AtomicI64,
    i64
);

/// Model-checked memory fence.
pub fn fence(order: Ordering) {
    let ctx = rt::require();
    ctx.exec.schedule_point(ctx.tid);
    let mut eng = ctx.exec.lock();
    let t = &mut eng.threads[ctx.tid];
    t.clock.tick(ctx.tid);
    if is_acquire(order) {
        let pending = t.pending_acq.clone();
        t.clock.join(&pending);
    }
    if is_release(order) {
        t.rel_fence = t.clock.clone();
    }
}

/// Spin-loop hint: a voluntary yield, so model spin loops make progress.
pub fn spin_loop() {
    let ctx = rt::require();
    ctx.exec.yield_point(ctx.tid);
}

/// One recorded cell access, tagged with its source location.
struct Access {
    tid: usize,
    epoch: u32,
    at: &'static Location<'static>,
}

#[derive(Default)]
struct CellTrack {
    last_write: Option<Access>,
    /// Newest read per tid since the last write.
    reads: Vec<Access>,
    /// Whether any tracked write has happened (publication safety).
    written: bool,
}

/// Shadow `UnsafeCell` with happens-before race detection on every access.
///
/// Construction counts as *uninitialized* (the queues wrap
/// `MaybeUninit`): a read before any tracked write is reported as a
/// publication-safety failure instead of executing the closure.
pub struct UnsafeCell<T> {
    inner: std::cell::UnsafeCell<T>,
    track: RefCell<CellTrack>,
}

// SAFETY: the model scheduler serializes all access; the race detector
// exists precisely to report the schedules where real concurrent access
// would occur.
unsafe impl<T: Send> Send for UnsafeCell<T> {}
// SAFETY: as for `Send` above: one model thread runs at a time.
unsafe impl<T: Send> Sync for UnsafeCell<T> {}

impl<T> UnsafeCell<T> {
    /// Wrap a value (treated as an uninitialized slot — see type docs).
    pub fn new(v: T) -> Self {
        UnsafeCell {
            inner: std::cell::UnsafeCell::new(v),
            track: RefCell::new(CellTrack::default()),
        }
    }

    fn check_access(&self, write: bool, loc: &'static Location<'static>) {
        let ctx = rt::require();
        ctx.exec.schedule_point(ctx.tid);
        let tid = ctx.tid;
        let mut eng = ctx.exec.lock();
        let epoch = eng.threads[tid].clock.tick(tid);
        let clock = eng.threads[tid].clock.clone();
        let mut tr = self.track.borrow_mut();
        let mut race: Option<String> = None;
        if write {
            if let Some(w) = &tr.last_write {
                if !clock.dominates(w.tid, w.epoch) {
                    race = Some(format!(
                        "write by t{tid} at {loc} races with write by t{} at {}",
                        w.tid, w.at
                    ));
                }
            }
            if race.is_none() {
                for r in &tr.reads {
                    if !clock.dominates(r.tid, r.epoch) {
                        race = Some(format!(
                            "write by t{tid} at {loc} races with read by t{} at {}",
                            r.tid, r.at
                        ));
                        break;
                    }
                }
            }
            tr.last_write = Some(Access {
                tid,
                epoch,
                at: loc,
            });
            tr.reads.clear();
            tr.written = true;
        } else {
            if !tr.written {
                drop(tr);
                ctx.exec.fail_with(
                    eng,
                    FailureKind::UninitRead,
                    format!(
                        "t{tid} at {loc} reads a slot no write has initialized \
                         (unsound publication)"
                    ),
                );
            }
            if let Some(w) = &tr.last_write {
                if !clock.dominates(w.tid, w.epoch) {
                    race = Some(format!(
                        "read by t{tid} at {loc} races with write by t{} at {}",
                        w.tid, w.at
                    ));
                }
            }
            tr.reads.retain(|r| r.tid != tid);
            tr.reads.push(Access {
                tid,
                epoch,
                at: loc,
            });
        }
        drop(tr);
        if let Some(msg) = race {
            ctx.exec.fail_with(
                eng,
                FailureKind::DataRace,
                format!("data race on UnsafeCell: {msg}"),
            );
        }
    }

    /// Checked shared access: race-checks, then hands the raw pointer to
    /// the closure.
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        self.check_access(false, Location::caller());
        f(self.inner.get())
    }

    /// Checked exclusive access.
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        self.check_access(true, Location::caller());
        f(self.inner.get())
    }

    /// Exclusive access via `&mut`: externally synchronized, so the access
    /// history is reset (counts as initialized).
    pub fn get_mut(&mut self) -> &mut T {
        let tr = self.track.get_mut();
        tr.last_write = None;
        tr.reads.clear();
        tr.written = true;
        self.inner.get_mut()
    }

    /// Consume, returning the wrapped value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}
