//! How the graph builders split their work across host threads.
//!
//! Every builder follows one thread rule, [`build_threads`], and the passes
//! that walk rows cut them with [`balanced_rows`] (or, on a mesh, into
//! bands of whole grid rows). [`RowBuild`] is the two-pass row build the
//! meshes and `OwnerGrouped` share. Every part is cut from the
//! input alone and run as a plain serial loop, so no output depends on the
//! thread count or on which thread ran which part.

/// Edges per thread at least: fewer stay on the calling thread, where a
/// spawn would cost more than the work it takes over. Also the chunk size
/// R-MAT sampling threads claim.
pub(crate) const EDGES_PER_CHUNK: usize = 1 << 16;

/// Threads a builder over `n_edges` edges runs on, the caller's among
/// them: every host core, capped so each gets `EDGES_PER_CHUNK` edges.
pub(crate) fn build_threads(n_edges: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(n_edges.div_ceil(EDGES_PER_CHUNK)).max(1)
}

/// Run `own` on the calling thread while one scoped thread runs `work` on
/// each job. Without jobs no scope is opened: a scope allocates, and on
/// one thread a builder allocates what its serial form did and no more.
pub(crate) fn alongside<J: Send>(
    jobs: impl IntoIterator<Item = J>,
    work: impl Fn(J) + Sync,
    own: impl FnOnce(),
) {
    let mut jobs = jobs.into_iter().peekable();
    if jobs.peek().is_none() {
        return own();
    }
    std::thread::scope(|s| {
        let work = &work;
        for job in jobs {
            s.spawn(move || work(job));
        }
        own();
    });
}

/// Cut rows into `parts` ranges of about equal edges, given each row's end
/// in the edge order (`ends[u]`, non-decreasing). Returns `parts + 1`
/// boundaries `0 = r₀ ≤ r₁ ≤ … ≤ r_parts = ends.len()`; range `k` is rows
/// `r_k..r_{k+1}`. A row is never split, so a hub row weighs down its range.
pub(crate) fn balanced_rows(ends: &[u64], parts: usize) -> Vec<usize> {
    let step = ends.last().map_or(0, |&total| total.div_ceil(parts as u64));
    (0..parts as u64)
        .map(|k| ends.partition_point(|&end| end < k * step))
        .chain([ends.len()])
        .collect()
}

/// `xs` cut at `cuts` (`cuts[0] = 0`, the last `= xs.len()`, non-decreasing)
/// into `cuts.len() − 1` disjoint slices.
pub(crate) fn split_at_cuts<'a, T>(mut xs: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    cuts.windows(2)
        .map(|w| {
            let (head, tail) = std::mem::take(&mut xs).split_at_mut(w[1] - w[0]);
            xs = tail;
            head
        })
        .collect()
}

/// A row-index entry: `u64` in a [`crate::Csr`], `u32` in `OwnerGrouped`,
/// whose two segment-index reads open every visit on the hot path.
pub(crate) trait Offset: Copy + Default + Send {
    fn get(self) -> u64;
    /// `x` as an entry; the caller has checked that it fits.
    fn of(x: u64) -> Self;
}

impl Offset for u64 {
    fn get(self) -> u64 {
        self
    }
    fn of(x: u64) -> Self {
        x
    }
}

impl Offset for u32 {
    fn get(self) -> u64 {
        self.into()
    }
    fn of(x: u64) -> Self {
        x as u32
    }
}

/// A row index built in two passes over the same row ranges
/// `rows[k]..rows[k + 1]`, one range per thread, the caller's taking the
/// first:
///
/// 1. [`RowBuild::count`] has each range set every row's slot to the
///    row's length, shifted left by `tag_bits` over a tag the range may
///    keep in the low bits until pass 2; the range then turns its lengths
///    into starts, from 0, tags kept;
/// 2. a serial pass over the ranges (not the rows) gives each its base,
///    its first position in the rows' output;
/// 3. [`RowBuild::write`] has each range add its base to its slots and
///    fill its part of the output, exactly its rows. It must leave every
///    slot the row's untagged start.
///
/// The caller allocates the output between the passes, exactly
/// [`RowBuild::len`] entries, and cuts it at [`RowBuild::bases`]. Only
/// `offsets` is allocated here; on one range nothing is spawned.
pub(crate) struct RowBuild<O> {
    rows: Vec<usize>,
    /// Each range's first output position, then the total.
    bases: Vec<usize>,
    /// One slot per row, then the total.
    offsets: Vec<O>,
    tag_bits: u32,
}

impl<O: Offset> RowBuild<O> {
    /// Pass 1 over the ranges `rows` (`rows[0] = 0`, the last the row
    /// count, non-decreasing): `count(first, slots)` sets `slots[i]`, the
    /// slot of row `first + i`, to that row's `len << tag_bits | tag`.
    pub(crate) fn count(
        rows: Vec<usize>,
        tag_bits: u32,
        count: impl Fn(usize, &mut [O]) + Sync,
    ) -> Self {
        let n = *rows.last().expect("one range or more");
        let mut offsets = vec![O::default(); n + 1];
        let mut lens = vec![0usize; rows.len() - 1];
        let tag = (1u64 << tag_bits) - 1;
        let count_range = |first: usize, slots: &mut [O], len: &mut usize| {
            count(first, slots);
            let mut at = 0u64;
            for slot in slots {
                let s = slot.get();
                *slot = O::of(at << tag_bits | s & tag);
                at += s >> tag_bits;
            }
            *len = at as usize;
        };
        let mut ranges = split_at_cuts(&mut offsets[..n], &rows)
            .into_iter()
            .zip(&rows)
            .zip(&mut lens);
        let ((first_slots, &first), first_len) = ranges.next().expect("one range or more");
        alongside(
            ranges,
            |((slots, &from), len)| count_range(from, slots, len),
            || count_range(first, first_slots, first_len),
        );
        let bases: Vec<usize> = [0]
            .into_iter()
            .chain(lens.iter().scan(0, |at, len| {
                *at += len;
                Some(*at)
            }))
            .collect();
        offsets[n] = O::of(*bases.last().expect("one base or more") as u64);
        RowBuild {
            rows,
            bases,
            offsets,
            tag_bits,
        }
    }

    /// The rows' total length: what the output holds.
    pub(crate) fn len(&self) -> usize {
        *self.bases.last().expect("one base or more")
    }

    /// Where each range's rows start in the output, then the total: the
    /// cuts for [`split_at_cuts`].
    pub(crate) fn bases(&self) -> &[usize] {
        &self.bases
    }

    /// Pass 2: `write(first, slots, part)` fills `part`, range by range
    /// (`parts[k]` is range `k`'s), each slot its row's absolute
    /// `start << tag_bits | tag`, and leaves each slot the plain start.
    /// Returns the row index.
    pub(crate) fn write<P: Send>(
        mut self,
        parts: Vec<P>,
        write: impl Fn(usize, &mut [O], P) + Sync,
    ) -> Vec<O> {
        let n = self.offsets.len() - 1;
        let tag_bits = self.tag_bits;
        let write_range = |first: usize, slots: &mut [O], base: usize, part: P| {
            for slot in slots.iter_mut() {
                *slot = O::of(slot.get() + ((base as u64) << tag_bits));
            }
            write(first, slots, part);
        };
        let mut ranges = split_at_cuts(&mut self.offsets[..n], &self.rows)
            .into_iter()
            .zip(self.rows.iter().zip(&self.bases))
            .zip(parts);
        let ((first_slots, (&first, &base)), first_part) =
            ranges.next().expect("one range or more");
        alongside(
            ranges,
            |((slots, (&from, &base)), part)| write_range(from, slots, base, part),
            || write_range(first, first_slots, base, first_part),
        );
        self.offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_rows_cover_every_row_once() {
        // Row ends of degrees 0, 5, 0, 1, 1, 9, 0.
        let ends = [0, 5, 5, 6, 7, 16, 16];
        for parts in 1..10 {
            let rows = balanced_rows(&ends, parts);
            assert_eq!(rows.len(), parts + 1);
            assert_eq!((rows[0], rows[parts]), (0, ends.len()));
            assert!(rows.windows(2).all(|w| w[0] <= w[1]), "{rows:?}");
        }
        assert_eq!(balanced_rows(&ends, 2), [0, 5, 7]);
        assert_eq!(balanced_rows(&[], 3), [0, 0, 0, 0]);
    }

    #[test]
    fn build_threads_keeps_small_inputs_on_the_caller() {
        assert_eq!(build_threads(0), 1);
        assert_eq!(build_threads(EDGES_PER_CHUNK), 1);
    }
}
