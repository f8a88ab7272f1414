//! Task emission: what an application pushes while processing a task.
//!
//! Mirrors Listing 5's two code paths: `worklists.push_warp(neighbor)` for
//! local vertices and `push_warp(neighbor, pe)` — a one-sided remote push —
//! for vertices owned elsewhere. Remote tasks are kept **per destination**
//! from the moment they are emitted: the runtime ships each destination's
//! buffer as a run, and an application that produces a run itself appends
//! it in one go through [`Emitter::remote_mut`].

/// Collects the pushes produced while processing one batch of tasks.
///
/// ```
/// use atos_core::Emitter;
/// let mut out = Emitter::new(0, 3);
/// out.push(0, 'a'); // own PE: local queue
/// out.push(2, 'b'); // one task for PE 2
/// out.remote_mut(2).extend(['c', 'd']); // a run for PE 2, in program order
/// assert_eq!(out.local, ['a']);
/// assert_eq!(*out.remote_mut(2), ['b', 'c', 'd']);
/// ```
#[derive(Debug)]
pub struct Emitter<T> {
    /// Tasks for this PE's local queue.
    pub local: Vec<T>,
    /// Tasks for other PEs' receive queues, one buffer per destination PE,
    /// each in emission order (`remote[my_pe]` stays empty).
    pub(crate) remote: Vec<Vec<T>>,
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
            remote: (0..n_pes).map(|_| Vec::new()).collect(),
            my_pe,
        }
    }

    /// Re-home a reused emitter: clear every buffer (keeping its capacity —
    /// the runtime recycles one emitter across all PEs' steps so the hot
    /// path never reallocates) and set the owning PE.
    pub fn reset_for(&mut self, my_pe: usize) {
        self.local.clear();
        for buf in &mut self.remote {
            buf.clear();
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
            self.remote[dst].push(task);
        }
    }

    /// Push a task to this PE's own queue.
    pub fn push_local(&mut self, task: T) {
        self.local.push(task);
    }

    /// The buffer of one-sided pushes to the remote PE `dst`, for emitting
    /// a whole run at once (`extend`). Runs and single [`Emitter::push`]es
    /// to one destination keep their program order.
    #[inline]
    pub fn remote_mut(&mut self, dst: usize) -> &mut Vec<T> {
        debug_assert!(dst != self.my_pe, "remote push to self");
        &mut self.remote[dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_by_destination() {
        let mut e = Emitter::new(1, 3);
        e.push(1, "local");
        e.push(2, "remote2");
        e.push(0, "remote0");
        e.push_local("also-local");
        e.push(2, "remote2-again");
        assert_eq!(e.local, ["local", "also-local"]);
        assert_eq!(e.remote[0], ["remote0"]);
        assert!(e.remote[1].is_empty());
        assert_eq!(e.remote[2], ["remote2", "remote2-again"]);
    }

    #[test]
    fn runs_and_single_pushes_interleave_in_program_order() {
        let mut e = Emitter::new(0, 2);
        e.push(1, 1u32);
        e.remote_mut(1).extend([2, 3]);
        e.push(1, 4);
        e.remote_mut(1).extend_from_slice(&[5, 6]);
        assert_eq!(e.remote[1], [1, 2, 3, 4, 5, 6]);
        assert!(e.local.is_empty());
    }

    #[test]
    fn reset_rehomes_and_empties() {
        let mut e = Emitter::new(0, 2);
        e.push(0, 1u32);
        e.push(1, 2);
        e.reset_for(1);
        assert_eq!(e.my_pe, 1);
        assert!(e.local.is_empty() && e.remote[0].is_empty() && e.remote[1].is_empty());
        e.push(0, 3);
        assert_eq!(e.remote[0], [3]);
    }

    #[test]
    #[should_panic(expected = "remote push to self")]
    #[cfg(debug_assertions)]
    fn a_run_to_self_is_rejected() {
        Emitter::<u32>::new(1, 2).remote_mut(1);
    }
}
