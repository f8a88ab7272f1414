//! Virtual clock and hierarchical timing-wheel event queue.
//!
//! A minimal, allocation-free (in steady state) discrete-event core:
//! events are any payload type `E`; the runtime (in `atos-core`) owns the
//! dispatch loop so this crate never needs trait objects or actor
//! plumbing. Determinism is guaranteed by a `(time, sequence)` total
//! order: events scheduled at equal times fire in scheduling order, so a
//! run is a pure function of its inputs and seeds.
//!
//! ## Why a timing wheel
//!
//! The original engine kept every pending event in one
//! `BinaryHeap<Reverse<Scheduled<E>>>`: every `schedule`/`pop` paid
//! O(log n) payload-moving compares against the *whole* pending set, and
//! every payload travelled through the heap by value. All fourteen
//! figure/table binaries funnel through this path, so those constants are
//! the simulator's critical path. The wheel replaces the global heap with
//! time-bucketed vectors whose maintenance is O(1) per event, falling
//! back to comparison-based ordering only inside one bucket at a time.
//!
//! ## Structure
//!
//! * **Arena** — payloads live in a slab (`Vec<Option<E>>`) with a
//!   free-list; the wheel moves 24-byte `(Key, slot)` entries, never the
//!   payloads. Steady-state `schedule → pop` churn recycles slots and
//!   bucket storage, performing zero allocations (pinned by
//!   `crates/core/tests/alloc_count.rs`).
//! * **Level 0** — 256 buckets of 2^6 ns (64 ns): one rotation spans
//!   ~16.4 µs, sized so wake polls (400 ns) and µs-scale busy windows
//!   resolve without cascading.
//! * **Level 1** — 256 buckets of 2^14 ns (~16.4 µs): one rotation spans
//!   ~4.2 ms, covering kernel cycles and aggregation windows. When level
//!   0 exhausts a rotation, the next level-1 bucket *cascades*: its
//!   entries are redistributed into the 256 level-0 buckets they map to.
//! * **Level 2** — 256 buckets of 2^22 ns (~4.2 ms): one rotation spans
//!   ~1.07 s, enough to hold an entire simulated run's schedule without
//!   touching the fallback heap. Cascades into level 1 the same way.
//! * **Far heap** — events beyond the level-2 horizon wait in a
//!   `BinaryHeap` of `(Key, slot)` entries. When all wheels drain, the
//!   wheels *jump* to the far heap's minimum and pull every entry inside
//!   the new horizon back into the wheels.
//! * **Imminent heap** — the currently-draining bucket's entries, ordered
//!   by full `(time, seq)` key. New events landing inside the current
//!   bucket window go straight here.
//!
//! ## Determinism argument
//!
//! The pop order is exactly ascending `(time, seq)` — identical to the
//! retired global heap (kept as [`reference::HeapEngine`], the property
//! oracle in `tests/properties.rs`):
//!
//! 1. every pending event is in exactly one of {imminent, L0, L1, L2,
//!    far};
//! 2. the imminent heap holds precisely the events of the current level-0
//!    bucket window; every wheel/far event's bucket is strictly later, so
//!    the imminent minimum is the global minimum;
//! 3. bucket membership is a pure function of the event's time and the
//!    wheel cursors, which advance only inside `pop`; and
//! 4. ties inside a bucket are broken by the same monotonically assigned
//!    sequence number the heap engine used.
//!
//! Nothing here consults wall clocks, hashers, or thread identity — the
//! `sim-determinism` lint enforces that statically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use atos_macros::atos_hot;

/// Virtual time in nanoseconds.
pub type Time = u64;

/// Log2 of the level-0 bucket width in ns (64 ns buckets).
const L0_SHIFT: u32 = 6;
/// Log2 of the bucket count per level (256 buckets).
const LEVEL_BITS: u32 = 8;
/// Buckets per level.
const N_BUCKETS: usize = 1 << LEVEL_BITS;
/// Physical-index mask.
const BUCKET_MASK: u64 = (N_BUCKETS as u64) - 1;
/// Log2 of the level-1 bucket width in ns (one L0 rotation, ~16.4 µs).
const L1_SHIFT: u32 = L0_SHIFT + LEVEL_BITS;
/// Log2 of the level-2 bucket width in ns (one L1 rotation, ~4.2 ms).
const L2_SHIFT: u32 = L1_SHIFT + LEVEL_BITS;
/// Bitmap words per level (256 bits).
const OCC_WORDS: usize = N_BUCKETS / 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Time,
    seq: u64,
}

/// A wheel entry: full ordering key plus the arena slot of the payload.
type Entry = (Key, u32);

/// Outlined cold failure path: popping a slot whose payload was already
/// taken would mean the wheel's single-membership invariant broke.
// Outlined failure path, vetted: invariant-violation abort.
#[cold]
#[inline(never)]
// atos-lint: allow(panic_in_kernel)
fn empty_slot_popped() -> ! {
    panic!("engine invariant broken: popped an empty arena slot");
}

/// Discrete-event engine: a clock plus a deterministic pending-event
/// timing wheel.
///
/// ```
/// use atos_sim::Engine;
/// let mut e = Engine::new();
/// e.schedule_at(20, "later");
/// e.schedule_at(10, "sooner");
/// assert_eq!(e.pop(), Some((10, "sooner")));
/// assert_eq!(e.now(), 10);
/// assert_eq!(e.pop(), Some((20, "later")));
/// assert!(e.is_idle());
/// ```
pub struct Engine<E> {
    now: Time,
    /// Sequence number of the event popped last (with `now`, its key).
    now_seq: u64,
    seq: u64,
    len: usize,
    processed: u64,
    max_pending: usize,
    /// Payload arena: `slots[i]` is `Some` iff entry `i` is pending.
    slots: Vec<Option<E>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    /// Events of the current level-0 bucket window, by full key.
    imminent: BinaryHeap<Reverse<Entry>>,
    /// Level-0 wheel: 64 ns buckets, one rotation = ~16.4 µs.
    l0: Vec<Vec<Entry>>,
    l0_occ: [u64; OCC_WORDS],
    /// Absolute level-0 bucket of the current drain window
    /// (`== now >> L0_SHIFT` between pops).
    cursor0: u64,
    /// Exclusive absolute end of the current level-0 rotation.
    l0_rot_end: u64,
    /// Level-1 wheel: ~16.4 µs buckets, one rotation = ~4.2 ms.
    l1: Vec<Vec<Entry>>,
    l1_occ: [u64; OCC_WORDS],
    /// Next absolute level-1 bucket to cascade.
    cursor1: u64,
    /// Exclusive absolute end of the current level-1 rotation.
    l1_rot_end: u64,
    /// Level-2 wheel: ~4.2 ms buckets, one rotation = ~1.07 s.
    l2: Vec<Vec<Entry>>,
    l2_occ: [u64; OCC_WORDS],
    /// Next absolute level-2 bucket to cascade.
    cursor2: u64,
    /// Exclusive absolute end of the current level-2 rotation.
    l2_rot_end: u64,
    /// Events at or beyond the level-2 horizon, by full key.
    far: BinaryHeap<Reverse<Entry>>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Fresh engine at time zero.
    pub fn new() -> Self {
        Engine {
            now: 0,
            now_seq: 0,
            seq: 0,
            len: 0,
            processed: 0,
            max_pending: 0,
            slots: Vec::new(),
            free: Vec::new(),
            imminent: BinaryHeap::new(),
            l0: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            l0_occ: [0; OCC_WORDS],
            cursor0: 0,
            l0_rot_end: N_BUCKETS as u64,
            l1: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            l1_occ: [0; OCC_WORDS],
            cursor1: 1,
            l1_rot_end: N_BUCKETS as u64,
            l2: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            l2_occ: [0; OCC_WORDS],
            cursor2: 1,
            l2_rot_end: N_BUCKETS as u64,
            far: BinaryHeap::new(),
        }
    }

    /// Current virtual time (the timestamp of the last event popped).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sequence number of the last event popped: with [`Engine::now`], the
    /// `(time, seq)` key every still-pending event sorts after.
    pub fn popped_seq(&self) -> u64 {
        self.now_seq
    }

    /// Pre-grow the arena and heaps for `additional` upcoming events.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.free.reserve(additional);
        self.imminent.reserve(additional.min(4096));
        self.far.reserve(additional);
    }

    /// Store a payload in the arena, returning its slot.
    #[inline]
    #[atos_hot]
    fn arena_insert(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(event);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Some(event));
                i
            }
        }
    }

    /// File an entry into whichever structure owns its time bucket.
    /// Callers guarantee `key.at >= self.now` (clamped in `schedule_at`),
    /// so the entry's bucket is never behind the cursor.
    #[inline]
    #[atos_hot]
    fn place(&mut self, key: Key, idx: u32) {
        let b0 = key.at >> L0_SHIFT;
        debug_assert!(b0 >= self.cursor0, "event filed behind the wheel cursor");
        if b0 <= self.cursor0 {
            // Inside the current drain window: ordered individually.
            self.imminent.push(Reverse((key, idx)));
        } else if b0 < self.l0_rot_end {
            let p = (b0 & BUCKET_MASK) as usize;
            self.l0[p].push((key, idx));
            self.l0_occ[p >> 6] |= 1 << (p & 63);
        } else {
            let b1 = key.at >> L1_SHIFT;
            if b1 < self.l1_rot_end {
                let p = (b1 & BUCKET_MASK) as usize;
                self.l1[p].push((key, idx));
                self.l1_occ[p >> 6] |= 1 << (p & 63);
            } else {
                let b2 = key.at >> L2_SHIFT;
                if b2 < self.l2_rot_end {
                    let p = (b2 & BUCKET_MASK) as usize;
                    self.l2[p].push((key, idx));
                    self.l2_occ[p >> 6] |= 1 << (p & 63);
                } else {
                    self.far.push(Reverse((key, idx)));
                }
            }
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// `at` earlier than `now` is clamped to `now`: an event can never fire
    /// in the past (this arises naturally when a handler computes an arrival
    /// time from stale link state).
    #[atos_hot]
    pub fn schedule_at(&mut self, at: Time, event: E) {
        let seq = self.reserve_seqs(1);
        self.schedule_at_seq(at, seq, event);
    }

    /// Take the next `n` sequence numbers without scheduling anything and
    /// return the first. An event filed later under one of them with
    /// [`Engine::schedule_at_seq`] ties with same-time events exactly as if
    /// it had been scheduled now — which lets a caller hold an event back
    /// (or never file it at all) without disturbing the `(time, seq)` order
    /// of everything else.
    #[inline]
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.seq;
        self.seq += n;
        first
    }

    /// Schedule `event` at `at` (clamped to `now`) under a sequence number
    /// taken earlier with [`Engine::reserve_seqs`]. Each reserved number
    /// may be used at most once.
    #[atos_hot]
    pub fn schedule_at_seq(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "sequence number was never reserved");
        let key = Key {
            at: at.max(self.now),
            seq,
        };
        let idx = self.arena_insert(event);
        self.place(key, idx);
        self.len += 1;
        if self.len > self.max_pending {
            self.max_pending = self.len;
        }
    }

    /// Schedule `event` after a `delay` relative to now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Schedule `event` after a `delay` relative to now (alias of
    /// [`Engine::schedule_in`], matching the `schedule_at`/`schedule_after`
    /// naming used by the runtime and benches).
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        self.schedule_in(delay, event);
    }

    /// First occupied physical bucket at or after `from` (physical index),
    /// from a 256-bit occupancy bitmap. `None` if the rest of the rotation
    /// is empty.
    #[inline]
    fn next_occupied(occ: &[u64; OCC_WORDS], from: usize) -> Option<usize> {
        let mut w = from >> 6;
        if w >= OCC_WORDS {
            return None;
        }
        let mut word = occ[w] & (!0u64 << (from & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == OCC_WORDS {
                return None;
            }
            word = occ[w];
        }
    }

    /// Drain level-0 bucket `b0` (absolute) into the imminent heap.
    #[atos_hot]
    fn drain_l0_bucket(&mut self, b0: u64) {
        let p = (b0 & BUCKET_MASK) as usize;
        self.l0_occ[p >> 6] &= !(1 << (p & 63));
        let mut bucket = std::mem::take(&mut self.l0[p]);
        for &entry in bucket.iter() {
            self.imminent.push(Reverse(entry));
        }
        bucket.clear();
        self.l0[p] = bucket;
    }

    /// Cascade level-1 bucket `b1` (absolute) into a fresh level-0
    /// rotation covering exactly its span.
    #[atos_hot]
    fn cascade_l1_bucket(&mut self, b1: u64) {
        self.cursor0 = b1 << LEVEL_BITS;
        self.l0_rot_end = (b1 + 1) << LEVEL_BITS;
        self.cursor1 = b1 + 1;
        let p = (b1 & BUCKET_MASK) as usize;
        self.l1_occ[p >> 6] &= !(1 << (p & 63));
        let mut bucket = std::mem::take(&mut self.l1[p]);
        for &(key, idx) in bucket.iter() {
            self.place(key, idx);
        }
        bucket.clear();
        self.l1[p] = bucket;
    }

    /// Cascade level-2 bucket `b2` (absolute) into a fresh level-1
    /// rotation covering exactly its span. The level-0 cursors are left on
    /// their exhausted rotation: every redistributed entry's level-0
    /// bucket is at or past `b2 << (2 * LEVEL_BITS)`, which is at or past
    /// the stale `l0_rot_end`, so `place` can only file into level 1 here
    /// (the following `advance` iteration cascades the first occupied
    /// level-1 bucket down).
    #[atos_hot]
    fn cascade_l2_bucket(&mut self, b2: u64) {
        self.cursor1 = b2 << LEVEL_BITS;
        self.l1_rot_end = (b2 + 1) << LEVEL_BITS;
        self.cursor2 = b2 + 1;
        let p = (b2 & BUCKET_MASK) as usize;
        self.l2_occ[p >> 6] &= !(1 << (p & 63));
        let mut bucket = std::mem::take(&mut self.l2[p]);
        for &(key, idx) in bucket.iter() {
            self.place(key, idx);
        }
        bucket.clear();
        self.l2[p] = bucket;
    }

    /// Reposition all three wheels around the far heap's minimum and pull
    /// every far entry inside the new level-2 horizon back into the
    /// wheels. Caller guarantees wheels and imminent heap are empty.
    #[atos_hot]
    fn jump_to_far(&mut self) {
        let Some(&Reverse((min_key, _))) = self.far.peek() else {
            return;
        };
        let b1 = min_key.at >> L1_SHIFT;
        let b2 = min_key.at >> L2_SHIFT;
        self.cursor0 = b1 << LEVEL_BITS;
        self.l0_rot_end = (b1 + 1) << LEVEL_BITS;
        self.cursor1 = b1 + 1;
        self.l1_rot_end = (b2 + 1) << LEVEL_BITS;
        self.cursor2 = b2 + 1;
        self.l2_rot_end = ((b2 >> LEVEL_BITS) + 1) << LEVEL_BITS;
        while let Some(&Reverse((key, _))) = self.far.peek() {
            if key.at >> L2_SHIFT >= self.l2_rot_end {
                break;
            }
            let Some(Reverse((key, idx))) = self.far.pop() else {
                break;
            };
            self.place(key, idx);
        }
    }

    /// Refill the imminent heap with the next bucket's events, advancing
    /// cursors (and cascading / jumping) as needed. Returns `false` if no
    /// events remain anywhere.
    #[atos_hot]
    fn advance(&mut self) -> bool {
        loop {
            // A cascade or jump may file entries straight into the
            // imminent heap (bucket == new cursor): that already is the
            // next window.
            if !self.imminent.is_empty() {
                return true;
            }
            // Next occupied level-0 bucket in the current rotation.
            // Rotations are aligned to the wheel size, so physical index
            // order equals absolute order within a rotation and the scan
            // never wraps.
            if self.cursor0 < self.l0_rot_end {
                let from = (self.cursor0 & BUCKET_MASK) as usize;
                if let Some(p) = Self::next_occupied(&self.l0_occ, from) {
                    let b0 = (self.l0_rot_end - N_BUCKETS as u64) + p as u64;
                    self.cursor0 = b0;
                    self.drain_l0_bucket(b0);
                    return true;
                }
            }
            // Level-0 rotation exhausted: cascade the next occupied
            // level-1 bucket, if any.
            if self.cursor1 < self.l1_rot_end {
                let from1 = (self.cursor1 & BUCKET_MASK) as usize;
                if let Some(p) = Self::next_occupied(&self.l1_occ, from1) {
                    let b1 = (self.l1_rot_end - N_BUCKETS as u64) + p as u64;
                    self.cascade_l1_bucket(b1);
                    continue;
                }
            }
            // Level-1 rotation exhausted too: cascade the next occupied
            // level-2 bucket, if any.
            if self.cursor2 < self.l2_rot_end {
                let from2 = (self.cursor2 & BUCKET_MASK) as usize;
                if let Some(p) = Self::next_occupied(&self.l2_occ, from2) {
                    let b2 = (self.l2_rot_end - N_BUCKETS as u64) + p as u64;
                    self.cascade_l2_bucket(b2);
                    continue;
                }
            }
            // All wheels empty: jump to the far heap, or report idle.
            if self.far.is_empty() {
                return false;
            }
            self.jump_to_far();
            // Loop: re-check imminent first, then rescan the wheels.
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    #[atos_hot]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.imminent.is_empty() && (self.len == 0 || !self.advance()) {
            return None;
        }
        let Reverse((key, idx)) = self.imminent.pop()?;
        debug_assert!(key.at >= self.now, "time went backwards");
        self.now = key.at;
        self.now_seq = key.seq;
        self.cursor0 = key.at >> L0_SHIFT;
        self.processed += 1;
        self.len -= 1;
        let Some(event) = self.slots[idx as usize].take() else {
            empty_slot_popped();
        };
        self.free.push(idx);
        Some((key.at, event))
    }

    /// Pop the next event only if its timestamp is strictly before
    /// `horizon`; otherwise leave the queue untouched and return `None`.
    ///
    /// This is the window interface of the runtime's conservative-lookahead
    /// loop: it drains exactly the safe window `[now, horizon)` and stops
    /// without disturbing later events. The horizon test happens
    /// *before* any wheel cursor moves past it (a plain `pop`-then-check
    /// would advance cursors beyond the horizon and break the invariant
    /// that events merged at the next window barrier land at or after the
    /// current cursor).
    #[atos_hot]
    pub fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        if self.imminent.is_empty() {
            if self.len == 0 {
                return None;
            }
            // Only advance the wheels when something actually fires inside
            // the window; otherwise the cursors could overshoot the
            // horizon and later window-barrier insertions (which are only
            // guaranteed to be >= horizon) would land behind them.
            match self.peek_time() {
                Some(t) if t < horizon => {}
                _ => return None,
            }
            if !self.advance() {
                return None;
            }
        }
        let &Reverse((key, _)) = self.imminent.peek()?;
        if key.at >= horizon {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next pending event, if any. Read-only: scans the
    /// wheels without advancing them, so it is O(buckets) worst case —
    /// fine for its diagnostic callers, while `pop` stays O(1) amortized.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(&Reverse((key, _))) = self.imminent.peek() {
            return Some(key.at);
        }
        let min_of = |bucket: &Vec<Entry>| bucket.iter().map(|&(k, _)| k).min();
        if self.cursor0 < self.l0_rot_end {
            if let Some(p) = Self::next_occupied(&self.l0_occ, (self.cursor0 & BUCKET_MASK) as usize)
            {
                return min_of(&self.l0[p]).map(|k| k.at);
            }
        }
        if self.cursor1 < self.l1_rot_end {
            if let Some(p) = Self::next_occupied(&self.l1_occ, (self.cursor1 & BUCKET_MASK) as usize)
            {
                return min_of(&self.l1[p]).map(|k| k.at);
            }
        }
        if self.cursor2 < self.l2_rot_end {
            if let Some(p) = Self::next_occupied(&self.l2_occ, (self.cursor2 & BUCKET_MASK) as usize)
            {
                return min_of(&self.l2[p]).map(|k| k.at);
            }
        }
        self.far.peek().map(|&Reverse((k, _))| k.at)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Whether no events remain (simulation termination).
    pub fn is_idle(&self) -> bool {
        self.len == 0
    }

    /// Total events processed so far (diagnostics and runaway guards).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of simultaneously pending events — how deep the
    /// pending set ever got. Observability metric: bounds the simulator's
    /// memory footprint and exposes scheduling burstiness.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }
}

impl<E> core::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.len)
            .field("processed", &self.processed)
            .finish()
    }
}

pub mod reference {
    //! The retired binary-heap engine, kept verbatim as the correctness
    //! oracle for the timing wheel (`tests/properties.rs` asserts
    //! identical pop sequences over random schedules) and as the baseline
    //! the trajectory's `engine_microbench` measures speedups against. Not
    //! for production use — the wheel in the parent module is strictly
    //! faster and behaviorally identical.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::Time;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        at: Time,
        seq: u64,
    }

    struct Scheduled<E> {
        key: Key,
        event: E,
    }

    // Order by key only; BinaryHeap is a max-heap so wrap in Reverse at use.
    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key.cmp(&other.key)
        }
    }

    /// The pre-wheel engine: one global `(time, seq)`-ordered heap.
    pub struct HeapEngine<E> {
        now: Time,
        now_seq: u64,
        seq: u64,
        heap: BinaryHeap<Reverse<Scheduled<E>>>,
        processed: u64,
        max_pending: usize,
    }

    impl<E> Default for HeapEngine<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapEngine<E> {
        /// Fresh engine at time zero.
        pub fn new() -> Self {
            HeapEngine {
                now: 0,
                now_seq: 0,
                seq: 0,
                heap: BinaryHeap::new(),
                processed: 0,
                max_pending: 0,
            }
        }

        /// Current virtual time.
        pub fn now(&self) -> Time {
            self.now
        }

        /// Sequence number of the last event popped.
        pub fn popped_seq(&self) -> u64 {
            self.now_seq
        }

        /// Schedule `event` at absolute time `at` (clamped to `now`).
        pub fn schedule_at(&mut self, at: Time, event: E) {
            let seq = self.reserve_seqs(1);
            self.schedule_at_seq(at, seq, event);
        }

        /// Take the next `n` sequence numbers; returns the first.
        pub fn reserve_seqs(&mut self, n: u64) -> u64 {
            let first = self.seq;
            self.seq += n;
            first
        }

        /// Schedule `event` at `at` (clamped to `now`) under a reserved
        /// sequence number.
        pub fn schedule_at_seq(&mut self, at: Time, seq: u64, event: E) {
            debug_assert!(seq < self.seq, "sequence number was never reserved");
            let key = Key {
                at: at.max(self.now),
                seq,
            };
            self.heap.push(Reverse(Scheduled { key, event }));
            self.max_pending = self.max_pending.max(self.heap.len());
        }

        /// Schedule `event` after a `delay` relative to now.
        pub fn schedule_in(&mut self, delay: Time, event: E) {
            self.schedule_at(self.now.saturating_add(delay), event);
        }

        /// Pop the next event, advancing the clock to its timestamp.
        pub fn pop(&mut self) -> Option<(Time, E)> {
            let Reverse(s) = self.heap.pop()?;
            debug_assert!(s.key.at >= self.now, "time went backwards");
            self.now = s.key.at;
            self.now_seq = s.key.seq;
            self.processed += 1;
            Some((s.key.at, s.event))
        }

        /// Timestamp of the next pending event, if any.
        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|Reverse(s)| s.key.at)
        }

        /// Number of pending events.
        pub fn pending(&self) -> usize {
            self.heap.len()
        }

        /// Whether no events remain.
        pub fn is_idle(&self) -> bool {
            self.heap.is_empty()
        }

        /// Total events processed so far.
        pub fn processed(&self) -> u64 {
            self.processed
        }

        /// High-water mark of simultaneously pending events.
        pub fn max_pending(&self) -> usize {
            self.max_pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule_at(30, "c");
        e.schedule_at(10, "a");
        e.schedule_at(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn equal_times_fire_in_schedule_order() {
        let mut e = Engine::new();
        for i in 0..100 {
            e.schedule_at(5, i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e = Engine::new();
        e.schedule_at(10, ());
        e.pop();
        assert_eq!(e.now(), 10);
        // Scheduling "in the past" clamps to now.
        e.schedule_at(3, ());
        let (t, _) = e.pop().unwrap();
        assert_eq!(t, 10);
        assert_eq!(e.now(), 10);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new();
        e.schedule_at(100, 1);
        e.pop();
        e.schedule_in(5, 2);
        assert_eq!(e.peek_time(), Some(105));
    }

    #[test]
    fn schedule_after_is_schedule_in() {
        let mut e = Engine::new();
        e.schedule_at(100, 1);
        e.pop();
        e.schedule_after(7, 2);
        assert_eq!(e.pop(), Some((107, 2)));
    }

    #[test]
    fn bookkeeping_counters() {
        let mut e = Engine::new();
        assert!(e.is_idle());
        e.schedule_at(1, ());
        e.schedule_at(2, ());
        assert_eq!(e.pending(), 2);
        e.pop();
        assert_eq!(e.processed(), 1);
        assert_eq!(e.pending(), 1);
    }

    #[test]
    fn max_pending_tracks_high_water() {
        let mut e = Engine::new();
        assert_eq!(e.max_pending(), 0);
        e.schedule_at(1, ());
        e.schedule_at(2, ());
        e.schedule_at(3, ());
        e.pop();
        e.pop();
        e.schedule_at(4, ());
        // Peak was 3 simultaneous events; current pending is 2.
        assert_eq!(e.pending(), 2);
        assert_eq!(e.max_pending(), 3);
    }

    #[test]
    fn interleaved_scheduling_stays_deterministic() {
        // Handlers scheduling new events at the current time must run after
        // already-queued same-time events, in scheduling order.
        let mut e = Engine::new();
        e.schedule_at(10, 0u32);
        e.schedule_at(10, 1);
        let (_, first) = e.pop().unwrap();
        assert_eq!(first, 0);
        e.schedule_at(10, 2);
        let rest: Vec<u32> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(rest, vec![1, 2]);
    }

    #[test]
    fn a_reserved_sequence_number_keeps_its_place_in_line() {
        let mut e = Engine::new();
        e.schedule_at(10, "first");
        let held = e.reserve_seqs(2);
        e.schedule_at(10, "third");
        // Filed later — even after a pop — the held event still ties with
        // its neighbours as if it had been scheduled when reserved. The
        // second reserved number is simply never used.
        assert_eq!(e.pop(), Some((10, "first")));
        assert_eq!(e.popped_seq(), 0);
        e.schedule_at_seq(10, held, "second");
        assert_eq!(e.pop(), Some((10, "second")));
        assert_eq!(e.popped_seq(), held);
        assert_eq!(e.pop(), Some((10, "third")));
        assert_eq!(e.popped_seq(), held + 2);
        assert!(e.is_idle());
    }

    #[test]
    fn far_future_events_cross_every_level() {
        let mut e = Engine::new();
        // One event per structure: imminent window, L0, L1, far heap.
        e.schedule_at(1, "imminent");
        e.schedule_at(1_000, "l0");
        e.schedule_at(100_000, "l1");
        e.schedule_at(100_000_000, "far");
        e.schedule_at(10_000_000_000, "very-far");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec!["imminent", "l0", "l1", "far", "very-far"]);
        assert_eq!(e.now(), 10_000_000_000);
    }

    #[test]
    fn sparse_far_future_jumps() {
        // Huge gaps force the jump path repeatedly.
        let mut e = Engine::new();
        let times = [5u64, 1 << 24, 1 << 33, 1 << 41, (1 << 41) + 3];
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(t, i);
        }
        let got: Vec<_> = std::iter::from_fn(|| e.pop()).collect();
        let want: Vec<(Time, usize)> = times.iter().copied().zip(0..).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn refill_after_idle_keeps_ordering() {
        let mut e = Engine::new();
        e.schedule_at(1 << 30, 1u32);
        assert_eq!(e.pop(), Some((1 << 30, 1)));
        assert!(e.pop().is_none());
        // Re-seeding an idle engine far from its cursor still orders.
        e.schedule_in(10, 2);
        e.schedule_in(5, 3);
        assert_eq!(e.pop(), Some(((1 << 30) + 5, 3)));
        assert_eq!(e.pop(), Some(((1 << 30) + 10, 2)));
    }

    #[test]
    fn dense_same_bucket_burst_orders_by_seq() {
        let mut e = Engine::new();
        // All inside one 64 ns level-0 bucket, mixed times.
        for i in 0..200u32 {
            e.schedule_at(64 + (i % 4) as Time, i);
        }
        let mut last = (0, 0);
        let mut n = 0;
        while let Some((t, v)) = e.pop() {
            let key = (t, v);
            assert!(t > last.0 || (t == last.0 && v > last.1) || n == 0);
            last = key;
            n += 1;
        }
        assert_eq!(n, 200);
    }

    #[test]
    fn reserve_preallocates() {
        let mut e: Engine<u64> = Engine::new();
        e.reserve(1024);
        for i in 0..1024 {
            e.schedule_at(i * 17, i);
        }
        let mut prev = 0;
        while let Some((t, _)) = e.pop() {
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn steady_state_churn_recycles_slots() {
        // pop → schedule churn must not grow the arena once warm.
        let mut e = Engine::new();
        for i in 0..64u64 {
            e.schedule_at(i * 100, i);
        }
        for _ in 0..10_000 {
            let (t, v) = e.pop().unwrap();
            e.schedule_at(t + 6_400, v);
        }
        assert_eq!(e.pending(), 64);
        // The arena never needed more slots than the pending high-water.
        assert!(e.max_pending() <= 65);
    }
}
