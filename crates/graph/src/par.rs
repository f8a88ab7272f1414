//! How the graph builders split their work across host threads.
//!
//! `rmat`, `Csr::from_edges` and `EdgeWeights::random` share one thread
//! rule, [`build_threads`], and the two passes that walk rows share one
//! split, [`balanced_rows`]. Every part is cut from the input alone and run
//! as a plain serial loop, so no output depends on the thread count or on
//! which thread ran which part.

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
