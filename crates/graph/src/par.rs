//! How the graph builders split their work across host threads.
//!
//! Every builder follows one thread rule, [`build_threads`], and the passes
//! that walk rows cut them with [`balanced_rows`] (or, on a mesh, into
//! bands of whole grid rows). [`RowBuild`] is the two-pass row build the
//! meshes and `OwnerGrouped` share. Every row index is `u32`, and a build
//! refuses a count it cannot hold with [`row_index_entry`]. Every part is
//! cut from the input alone and run as a plain serial loop, so no output
//! depends on the thread count or on which thread ran which part.

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
pub(crate) fn balanced_rows(ends: &[u32], parts: usize) -> Vec<usize> {
    // In u64: `k · step` passes `u32::MAX` when `parts` passes √`total`.
    let total = u64::from(ends.last().copied().unwrap_or(0));
    let step = total.div_ceil(parts as u64);
    (0..parts as u64)
        .map(|k| ends.partition_point(|&end| u64::from(end) < k * step))
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

/// `count` as an entry of a 32-bit row index with `tag_bits` of tag below.
///
/// # Panics
/// If `count << tag_bits` does not fit `u32`, naming `what`, count and limit.
pub(crate) fn row_index_entry(what: &str, count: usize, tag_bits: u32) -> u32 {
    let limit = u32::MAX >> tag_bits;
    assert!(
        count <= limit as usize,
        "{what}: {count} is over {limit} = u32::MAX >> {tag_bits}, the 32-bit row index's limit"
    );
    count as u32
}

/// A 32-bit row index built in two passes over the same row ranges
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
pub(crate) struct RowBuild {
    rows: Vec<usize>,
    /// Each range's first output position, then the total.
    bases: Vec<usize>,
    /// One slot per row, then the total.
    offsets: Vec<u32>,
    tag_bits: u32,
}

impl RowBuild {
    /// Pass 1 over the ranges `rows` (`rows[0] = 0`, the last the row
    /// count, non-decreasing): `count(first, slots)` sets `slots[i]`, the
    /// slot of row `first + i`, to that row's `len << tag_bits | tag`.
    ///
    /// # Panics
    /// If the rows' total, shifted left by `tag_bits`, does not fit `u32`:
    /// a mesh, with 2 tag bits, refuses 2³⁰ edges or more.
    pub(crate) fn count(
        rows: Vec<usize>,
        tag_bits: u32,
        count: impl Fn(usize, &mut [u32]) + Sync,
    ) -> Self {
        let n = *rows.last().expect("one range or more");
        let mut offsets = vec![0; n + 1];
        let mut lens = vec![0usize; rows.len() - 1];
        let tag = (1 << tag_bits) - 1;
        // A start past the limit wraps here, and the total refuses it below.
        let count_range = |first: usize, slots: &mut [u32], len: &mut usize| {
            count(first, slots);
            let mut at = 0usize;
            for slot in slots {
                let s = *slot;
                *slot = (at as u32) << tag_bits | s & tag;
                at += (s >> tag_bits) as usize;
            }
            *len = at;
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
        let total = *bases.last().expect("one base or more");
        offsets[n] = row_index_entry("RowBuild total", total, tag_bits);
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
        write: impl Fn(usize, &mut [u32], P) + Sync,
    ) -> Vec<u32> {
        let n = self.offsets.len() - 1;
        let tag_bits = self.tag_bits;
        let write_range = |first: usize, slots: &mut [u32], base: usize, part: P| {
            for slot in slots.iter_mut() {
                *slot += (base as u32) << tag_bits;
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

    /// With `parts` past √`total`, the last cut's `k · step` passes
    /// `u32::MAX`: 199 999 · 21 475 = 4 294 978 525. Computed in `u32` it
    /// would wrap to 11 229 and put both rows after the last cut.
    #[test]
    fn balanced_rows_cut_ends_near_u32_max_in_u64() {
        let ends = [u32::MAX - 1, u32::MAX];
        let parts = 200_000;
        let rows = balanced_rows(&ends, parts);
        assert_eq!(rows.len(), parts + 1);
        assert!(rows[..parts - 1].iter().all(|&r| r == 0));
        assert_eq!(rows[parts - 1..], [2, 2]);
    }

    #[test]
    fn row_index_entry_holds_up_to_its_limit() {
        assert_eq!(row_index_entry("edges", u32::MAX as usize, 0), u32::MAX);
        assert_eq!(row_index_entry("edges", (1 << 30) - 1, 2), (1 << 30) - 1);
    }

    /// `Csr::from_edges`, `transpose` and `symmetrize` check their counts
    /// with no tag bits.
    #[test]
    #[should_panic(
        expected = "Csr::from_edges pairs: 4294967296 is over 4294967295 = u32::MAX >> 0"
    )]
    fn row_index_entry_refuses_a_count_past_u32_max() {
        row_index_entry("Csr::from_edges pairs", u32::MAX as usize + 1, 0);
    }

    /// A mesh build's two keep bits leave 30 bits of row start: two rows
    /// of 2²⁹ edges are refused by the row build itself.
    #[test]
    #[should_panic(expected = "RowBuild total: 1073741824 is over 1073741823 = u32::MAX >> 2")]
    fn row_build_refuses_2_pow_30_entries_under_two_tag_bits() {
        RowBuild::count(vec![0, 2], 2, |_, slots| slots.fill(1 << 29 << 2 | 3));
    }

    /// One short of that limit, every start and tag survives both passes.
    #[test]
    fn row_build_fits_one_short_of_its_limit() {
        let build = RowBuild::count(vec![0, 1, 2], 2, |first, slots| {
            slots[0] = ((1 << 29) - first as u32) << 2 | 3;
        });
        assert_eq!(build.len(), (1 << 30) - 1);
        let offsets = build.write(vec![(), ()], |first, slots, ()| {
            assert_eq!(slots[0] & 3, 3);
            assert_eq!(slots[0] >> 2, first as u32 * (1 << 29));
            slots[0] >>= 2;
        });
        assert_eq!(offsets, [0, 1 << 29, (1 << 30) - 1]);
    }

    #[test]
    fn build_threads_keeps_small_inputs_on_the_caller() {
        assert_eq!(build_threads(0), 1);
        assert_eq!(build_threads(EDGES_PER_CHUNK), 1);
    }
}
