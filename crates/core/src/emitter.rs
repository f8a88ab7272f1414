//! Task emission: what an application pushes while processing a task.
//!
//! Mirrors Listing 5's two code paths: `worklists.push_warp(neighbor)` for
//! local vertices and `push_warp(neighbor, pe)` — a one-sided remote push —
//! for vertices owned elsewhere. Remote tasks are kept **per destination**
//! from the moment they are emitted, written in place into fixed-capacity
//! **chunks** drawn from the emitter's [`ChunkPool`]: a run is the
//! destination's chunks in order, and the runtime ships each chunk as one
//! train. An application that produces a run itself appends it in one go
//! through [`Emitter::extend_remote`].
//!
//! A run's chunks walk [`CHUNK_CLASSES`] smallest first, so a one-task run
//! pins one small chunk and a long run is a few large ones; what the
//! emitter and the lanes hold is then the volume in flight plus one partial
//! chunk per open run, never the capacity of the longest run seen.

use std::mem;

use atos_macros::atos_hot;

/// Chunk capacities, in tasks: a run's first chunk is of the first class,
/// its second of the second, and so on, staying at the last. Not a knob:
/// of the tables measured, the one that cut peak memory on every workload
/// (DESIGN.md §4.11, *Chunks*).
pub const CHUNK_CLASSES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Free lists of task chunks, one per class of [`CHUNK_CLASSES`]. A chunk
/// goes out to the emitter, leaves as a train, and comes back empty when
/// the car over its last task is delivered; the pool keeps it for the next
/// run, so the steady state sends without touching the allocator.
#[derive(Debug)]
pub struct ChunkPool<T> {
    free: [Vec<Vec<T>>; CHUNK_CLASSES.len()],
    /// Bytes of chunks handed out and not yet returned.
    out: usize,
    /// High-water mark of `out`.
    peak: usize,
}

impl<T> Default for ChunkPool<T> {
    fn default() -> Self {
        ChunkPool {
            free: Default::default(),
            out: 0,
            peak: 0,
        }
    }
}

impl<T> ChunkPool<T> {
    /// An empty chunk of `CHUNK_CLASSES[class]` tasks' capacity, recycled
    /// if one is on hand.
    #[atos_hot]
    pub fn take(&mut self, class: usize) -> Vec<T> {
        let cap = CHUNK_CLASSES[class];
        self.out += cap * mem::size_of::<T>();
        self.peak = self.peak.max(self.out);
        self.free[class]
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(cap))
    }

    /// Return a chunk whose tasks have all been delivered to the free list
    /// of its class. A buffer of no class's capacity is dropped.
    #[atos_hot]
    pub fn give(&mut self, mut chunk: Vec<T>) {
        chunk.clear();
        let cap = chunk.capacity();
        self.out = self.out.saturating_sub(cap * mem::size_of::<T>());
        if let Some(class) = CHUNK_CLASSES.iter().position(|&c| c == cap) {
            self.free[class].push(chunk);
        }
    }

    /// Chunks on hand, over all classes.
    pub fn len(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Whether no chunk is on hand.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most chunk bytes that were ever out of the pool at once.
    pub fn peak_bytes(&self) -> usize {
        self.peak
    }
}

/// Collects the pushes produced while processing one batch of tasks.
///
/// ```
/// use atos_core::Emitter;
/// let mut out = Emitter::new(0, 3);
/// out.push(0, 'a'); // own PE: local queue
/// out.push(2, 'b'); // one task for PE 2
/// out.extend_remote(2, ['c', 'd']); // a run for PE 2, in program order
/// assert_eq!(out.local, ['a']);
/// let mut run = Vec::new();
/// out.drain_remote(2, &mut run);
/// assert_eq!(run, ['b', 'c', 'd']);
/// ```
#[derive(Debug)]
pub struct Emitter<T> {
    /// Tasks for this PE's local queue.
    pub local: Vec<T>,
    /// Per destination PE, the run's filled chunks in emission order.
    full: Vec<Vec<Vec<T>>>,
    /// Per destination PE, the chunk being filled: capacity 0 until the
    /// run's first task (`tail[my_pe]` stays so).
    tail: Vec<Vec<T>>,
    /// Where chunks come from and, once delivered, go back to.
    pub(crate) pool: ChunkPool<T>,
    /// The PE this emitter belongs to (the paper's `my_pe`).
    my_pe: usize,
}

impl<T> Default for Emitter<T> {
    /// A placeholder with no destinations (what `mem::take` leaves behind).
    fn default() -> Self {
        Emitter::new(0, 0)
    }
}

impl<T> Emitter<T> {
    /// New emitter for PE `my_pe` of `n_pes`.
    pub fn new(my_pe: usize, n_pes: usize) -> Self {
        Emitter {
            local: Vec::new(),
            full: (0..n_pes).map(|_| Vec::new()).collect(),
            tail: (0..n_pes).map(|_| Vec::new()).collect(),
            pool: ChunkPool::default(),
            my_pe,
        }
    }

    /// Re-home a reused emitter: empty every buffer (the local one keeps
    /// its capacity, a run's chunks go back to the pool — the runtime
    /// recycles one emitter across all PEs' steps so the hot path never
    /// reallocates) and set the owning PE.
    pub fn reset_for(&mut self, my_pe: usize) {
        self.local.clear();
        for dst in 0..self.tail.len() {
            self.recycle_run(dst);
        }
        self.my_pe = my_pe;
    }

    /// Push a task to `dst`: the local queue if `dst == my_pe`, otherwise
    /// a one-sided push to the remote receive queue.
    #[inline]
    pub fn push(&mut self, dst: usize, task: T) {
        if dst == self.my_pe {
            self.local.push(task);
        } else {
            if self.tail[dst].len() == self.tail[dst].capacity() {
                self.spill(dst);
            }
            self.tail[dst].push(task);
        }
    }

    /// Push a task to this PE's own queue.
    pub fn push_local(&mut self, task: T) {
        self.local.push(task);
    }

    /// Append a run of one-sided pushes to the remote PE `dst` in one go,
    /// written straight into its chunks. Runs and single
    /// [`Emitter::push`]es to one destination keep their program order.
    #[inline]
    pub fn extend_remote<I>(&mut self, dst: usize, tasks: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        debug_assert!(dst != self.my_pe, "remote push to self");
        let tasks = tasks.into_iter();
        let tail = &mut self.tail[dst];
        if tasks.len() <= tail.capacity() - tail.len() {
            tail.extend(tasks);
        } else {
            self.extend_across_chunks(dst, tasks);
        }
    }

    /// [`Emitter::extend_remote`] for a run that does not fit the tail
    /// chunk: fill it, spill, repeat. Out of line, so the common case
    /// stays one `extend` wherever an application inlines the call.
    #[inline(never)]
    fn extend_across_chunks(&mut self, dst: usize, mut tasks: impl ExactSizeIterator<Item = T>) {
        loop {
            let tail = &mut self.tail[dst];
            let room = tail.capacity() - tail.len();
            if tasks.len() <= room {
                tail.extend(tasks);
                return;
            }
            tail.extend(tasks.by_ref().take(room));
            self.spill(dst);
        }
    }

    /// Move `dst`'s run, in emission order, onto the end of `into`; its
    /// chunks go back to the pool. For a schedule that hands each run over
    /// whole at a barrier (`run_bsp`); the runtime ships the chunks
    /// themselves.
    pub fn drain_remote(&mut self, dst: usize, into: &mut Vec<T>)
    where
        T: Copy,
    {
        for chunk in &self.full[dst] {
            into.extend_from_slice(chunk);
        }
        into.extend_from_slice(&self.tail[dst]);
        self.recycle_run(dst);
    }

    /// The number of tasks in `dst`'s run.
    pub(crate) fn run_len(&self, dst: usize) -> usize {
        self.full[dst].iter().map(Vec::len).sum::<usize>() + self.tail[dst].len()
    }

    /// Destinations, this PE included.
    pub(crate) fn n_dst(&self) -> usize {
        self.tail.len()
    }

    /// `dst`'s run as its chunks, in emission order, each non-empty; the
    /// emitter keeps none of them.
    pub(crate) fn take_run(&mut self, dst: usize) -> impl Iterator<Item = Vec<T>> + '_ {
        let tail = mem::take(&mut self.tail[dst]);
        self.full[dst]
            .drain(..)
            .chain((!tail.is_empty()).then_some(tail))
    }

    /// The tail chunk of `dst` is full (or not drawn yet): file it with the
    /// run's full chunks and draw the next one, a class larger until the
    /// last.
    #[inline(never)]
    #[atos_hot]
    fn spill(&mut self, dst: usize) {
        let tail = mem::take(&mut self.tail[dst]);
        if tail.capacity() > 0 {
            self.full[dst].push(tail);
        }
        let class = self.full[dst].len().min(CHUNK_CLASSES.len() - 1);
        self.tail[dst] = self.pool.take(class);
    }

    /// Return every chunk of `dst`'s run to the pool.
    fn recycle_run(&mut self, dst: usize) {
        for chunk in self.full[dst].drain(..) {
            self.pool.give(chunk);
        }
        let tail = mem::take(&mut self.tail[dst]);
        if tail.capacity() > 0 {
            self.pool.give(tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(e: &mut Emitter<u32>, dst: usize) -> Vec<u32> {
        let mut run = Vec::new();
        e.drain_remote(dst, &mut run);
        run
    }

    #[test]
    fn routes_by_destination() {
        let mut e = Emitter::new(1, 3);
        e.push(1, 10);
        e.push(2, 20);
        e.push(0, 0);
        e.push_local(11);
        e.push(2, 21);
        assert_eq!(e.local, [10, 11]);
        assert_eq!(e.run_len(1), 0);
        assert_eq!(run_of(&mut e, 0), [0]);
        assert_eq!(run_of(&mut e, 2), [20, 21]);
    }

    #[test]
    fn runs_and_single_pushes_interleave_in_program_order() {
        let mut e = Emitter::new(0, 2);
        e.push(1, 1u32);
        e.extend_remote(1, [2, 3]);
        e.push(1, 4);
        e.extend_remote(1, [5, 6].iter().copied());
        assert_eq!(run_of(&mut e, 1), [1, 2, 3, 4, 5, 6]);
        assert!(e.local.is_empty());
    }

    #[test]
    fn a_run_walks_the_classes_and_stays_at_the_last() {
        let mut e = Emitter::new(0, 2);
        let n =
            CHUNK_CLASSES.iter().sum::<usize>() + 2 * CHUNK_CLASSES[CHUNK_CLASSES.len() - 1] + 1;
        e.extend_remote(1, 0..n as u32);
        let caps: Vec<usize> = e.take_run(1).map(|c| c.capacity()).collect();
        let last = CHUNK_CLASSES[CHUNK_CLASSES.len() - 1];
        let want: Vec<usize> = CHUNK_CLASSES.iter().copied().chain([last; 3]).collect();
        assert_eq!(caps, want);
    }

    #[test]
    fn delivered_chunks_come_home_and_go_out_again() {
        let mut e = Emitter::new(0, 2);
        e.extend_remote(1, 0..1000u32);
        let chunks: Vec<Vec<u32>> = e.take_run(1).collect();
        let bytes = chunks.iter().map(|c| c.capacity() * 4).sum::<usize>();
        assert_eq!(e.pool.peak_bytes(), bytes);
        for c in chunks {
            e.pool.give(c);
        }
        e.extend_remote(1, 0..1000u32);
        assert_eq!(
            e.pool.peak_bytes(),
            bytes,
            "the second run reuses the first's chunks"
        );
    }

    #[test]
    fn reset_rehomes_and_empties() {
        let mut e = Emitter::new(0, 2);
        e.push(0, 1u32);
        e.push(1, 2);
        e.reset_for(1);
        assert_eq!(e.my_pe, 1);
        assert!(e.local.is_empty() && e.run_len(0) == 0 && e.run_len(1) == 0);
        e.push(0, 3);
        assert_eq!(run_of(&mut e, 0), [3]);
    }

    #[test]
    #[should_panic(expected = "remote push to self")]
    #[cfg(debug_assertions)]
    fn a_run_to_self_is_rejected() {
        Emitter::<u32>::new(1, 2).extend_remote(1, [7]);
    }
}
