//! Compressed sparse row graph storage.
//!
//! Mirrors the `CSR` the paper's BFS worker iterates
//! (`neighborlist_start`, `neighbor_list_length`, `get_neighbor`), with
//! 32-bit vertex ids and row offsets: `u32::MAX` edges at most, where the
//! largest graph here, full-scale `twitter_s`, has 16 M and the paper's
//! largest, twitter50, 1.9 B.

#![expect(
    unsafe_code,
    reason = "the parallel scatter of from_edges writes disjoint runs through a raw pointer"
)]

use std::ops::Range;

use crate::par::{alongside, balanced_rows, build_threads, row_index_entry, split_at_cuts};
use crate::prefetch::{prefetch_row, Lookahead};

/// Vertex identifier (u32: all Table I graphs fit, and halving index width
/// matters for bandwidth-bound traversal).
pub type VertexId = u32;

/// Pairs per vertex below which [`Csr::from_edges`] stays on one thread.
/// Each extra thread holds a cursor row of 4 B/vertex beside the 4 B/pair
/// of `neighbors`, so on a sparse input the rows are a large share of the
/// build's memory: the road mesh, at about 3.5 pairs per vertex, peaked
/// 2 MiB higher on two threads when it still built an edge list
/// (DESIGN.md §6; runs in `results/measurements/pr-29.md`).
const MIN_PAIRS_PER_VERTEX: usize = 8;

/// Immutable CSR adjacency structure (out-edges).
///
/// ```
/// use atos_graph::Csr;
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (2, 1)]);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(2), 1);
/// assert_eq!(g.transpose().neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
}

impl Csr {
    /// Build from a directed edge list. Edges with an endpoint outside
    /// `0..n_vertices` are dropped, duplicates are merged, and every row
    /// comes out sorted; self-loops are kept (harmless to BFS/PR).
    ///
    /// Counting sort by source on every host core (the `rmat` thread
    /// rule): the pairs are cut into one contiguous slice per thread, and
    ///
    /// 1. each slice counts its in-range pairs per source;
    /// 2. a serial prefix pass gives every (row, slice) its own run of the
    ///    row's slots;
    /// 3. each slice scatters its targets into its runs of the one
    ///    `Vec<VertexId>` that becomes `neighbors`;
    /// 4. rows are cut into ranges of about equal edges, each range is
    ///    sorted, deduped and compacted in place, and a serial pass slides
    ///    the ranges down over the gaps; then `shrink_to_fit`.
    ///
    /// Every pass reads each pair once, and every row comes out sorted, so
    /// the graph does not depend on the thread count. Nothing ever holds a
    /// second copy of the pairs: the peak is the caller's 8 B/pair plus
    /// 4 B/pair here, and 4 B/vertex of cursors per thread beyond the
    /// first. An input of fewer than 8 pairs per vertex stays on one
    /// thread. On one thread nothing is spawned, and the build allocates
    /// exactly what the serial counting sort did: `offsets` and
    /// `neighbors`.
    ///
    /// # Panics
    /// If `edges` holds more than `u32::MAX` pairs.
    pub fn from_edges(n_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let threads = if edges.len() < MIN_PAIRS_PER_VERTEX * n_vertices {
            1
        } else {
            build_threads(edges.len())
        };
        Csr::from_edges_on_threads(n_vertices, edges, threads)
    }

    /// [`Csr::from_edges`] built on `threads` threads (the caller's among
    /// them, so 0 and 1 both mean the caller alone).
    pub(crate) fn from_edges_on_threads(
        n_vertices: usize,
        edges: &[(VertexId, VertexId)],
        threads: usize,
    ) -> Self {
        row_index_entry("Csr::from_edges pairs", edges.len(), 0);
        let in_range = |&&(u, v): &&(VertexId, VertexId)| {
            (u as usize) < n_vertices && (v as usize) < n_vertices
        };
        let mut slices = edges.chunks(edges.len().div_ceil(threads.max(1)).max(1));
        let last = slices.next_back().unwrap_or_default();
        let mut offsets = vec![0u32; n_vertices + 1];
        // Not `vec![row; k]`, which builds one row even for k = 0.
        let mut cursors: Vec<Vec<u32>> = (0..slices.len()).map(|_| vec![0; n_vertices]).collect();

        // 1. Count: the last slice into `offsets[u + 1]`, each other into
        // its row.
        alongside(
            slices.clone().zip(&mut cursors),
            |(pairs, row)| {
                for &(u, _) in pairs.iter().filter(in_range) {
                    row[u as usize] += 1;
                }
            },
            || {
                for &(u, _) in last.iter().filter(in_range) {
                    offsets[u as usize + 1] += 1;
                }
            },
        );

        // 2. Prefix: row u's slots go to the slices in input order, each
        // cursor now absolute; the last slice's cursor is `offsets[u]`. A
        // row whose pairs arrive sorted stays sorted, which its sort in
        // step 4 then only has to confirm.
        let mut start = 0u32;
        for u in 0..n_vertices {
            let mut at = start;
            for row in &mut cursors {
                let count = row[u];
                row[u] = at;
                at += count;
            }
            start = at + offsets[u + 1];
            offsets[u] = at;
        }
        offsets[n_vertices] = start;

        // 3. Scatter: afterwards `offsets[u]` holds row u's raw *end*, which
        // the compaction below turns back into the compacted start.
        let mut neighbors = vec![0 as VertexId; start as usize];
        // The slices write the one array concurrently, so its address
        // crosses threads as a `usize`.
        let out = neighbors.as_mut_ptr() as usize;
        let put = |slot: u32, v: VertexId| {
            // SAFETY: step 2 gave each (row, slice) a run of exactly the
            // slice's count of the row's slots, inside `neighbors` and
            // disjoint from every other run. Each slice below puts a pair
            // only at its own cursor for the pair's row, which walks that
            // run: the slot is in bounds and no other thread touches it.
            // Nothing reads `neighbors` until every slice has joined.
            unsafe { (out as *mut VertexId).add(slot as usize).write(v) }
        };
        alongside(
            slices.zip(&mut cursors),
            |(pairs, row)| {
                for &(u, v) in pairs.iter().filter(in_range) {
                    put(row[u as usize], v);
                    row[u as usize] += 1;
                }
            },
            || {
                for &(u, v) in last.iter().filter(in_range) {
                    put(offsets[u as usize], v);
                    offsets[u as usize] += 1;
                }
            },
        );
        drop(cursors);

        // 4. Sort + dedup.
        let len = compact(&mut offsets[..n_vertices], &mut neighbors, threads);
        offsets[n_vertices] = len as u32;
        neighbors.truncate(len);
        neighbors.shrink_to_fit();
        Csr { offsets, neighbors }
    }

    /// A graph from its parts, built elsewhere in this crate: `offsets`
    /// holds every row's start and then `neighbors.len()`, and each row is
    /// sorted and free of duplicates, as [`Csr::from_edges`] leaves it.
    pub(crate) fn from_rows(offsets: Vec<u32>, neighbors: Vec<VertexId>) -> Self {
        debug_assert_eq!(offsets.last(), Some(&(neighbors.len() as u32)));
        Csr { offsets, neighbors }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    pub fn n_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Row `v`'s positions in the edge order — what `neighbors(v)` slices
    /// by, and what every array stored parallel to the neighbor array
    /// (`EdgeWeights`) slices by too, so the row index exists once.
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// The row index itself, for the hint path (`get`, never indexing).
    #[inline]
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.row(v)]
    }

    /// Announce that row `v` is about to be read: `Far` touches its offset
    /// entry, `Near` reads that entry and touches the row's first line.
    #[inline]
    pub fn prefetch(&self, v: VertexId, ahead: Lookahead) {
        hot!(prefetch, {
            prefetch_row(&self.offsets, &self.neighbors, v as usize, ahead);
        })
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.n_vertices() == 0 {
            return 0.0;
        }
        self.n_edges() as f64 / self.n_vertices() as f64
    }

    /// Heap bytes of the row index and the neighbor array, by capacity.
    pub fn bytes(&self) -> usize {
        4 * (self.offsets.capacity() + self.neighbors.capacity())
    }

    /// Transposed graph (in-edges become out-edges).
    ///
    /// # Panics
    /// If the graph holds more than `u32::MAX` edges (no [`Csr`] does).
    pub fn transpose(&self) -> Csr {
        let n = self.n_vertices();
        row_index_entry("Csr::transpose edges", self.n_edges(), 0);
        let mut offsets = vec![0u32; n + 1];
        for &v in &self.neighbors {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; self.neighbors.len()];
        for u in 0..n {
            for &v in self.neighbors(u as VertexId) {
                let c = &mut cursor[v as usize];
                neighbors[*c as usize] = u as VertexId;
                *c += 1;
            }
        }
        Csr { offsets, neighbors }
    }

    /// Undirected view: union of the graph and its transpose.
    ///
    /// # Panics
    /// If `2 · n_edges()`, the pairs it would hand [`Csr::from_edges`],
    /// pass `u32::MAX`; before it allocates them.
    pub fn symmetrize(&self) -> Csr {
        row_index_entry("Csr::symmetrize pairs", 2 * self.n_edges(), 0);
        let mut edges = Vec::with_capacity(self.n_edges() * 2);
        for u in 0..self.n_vertices() as VertexId {
            for &v in self.neighbors(u) {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        Csr::from_edges(self.n_vertices(), &edges)
    }

    /// Iterate all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n_vertices() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }
}

/// `from_edges` step 4: sort and dedup every row and compact them to the
/// front of `neighbors`, on `threads` threads; `ends[u]` goes from row u's
/// raw end to its compacted start. Returns the compacted length. Rows are
/// cut into edge-balanced ranges, each range compacts in place from its own
/// raw start, and the ranges then close up on the ones before them.
fn compact(ends: &mut [u32], neighbors: &mut [VertexId], threads: usize) -> usize {
    if threads <= 1 {
        return compact_rows(ends, neighbors, 0);
    }
    let rows = balanced_rows(ends, threads);
    // A range's raw start is the raw end of the row before it.
    let starts: Vec<usize> = rows
        .iter()
        .map(|&r| r.checked_sub(1).map_or(0, |u| ends[u] as usize))
        .collect();
    let mut lens = vec![0usize; threads];
    let mut ranges = split_at_cuts(ends, &rows)
        .into_iter()
        .zip(split_at_cuts(neighbors, &starts))
        .zip(&starts)
        .zip(&mut lens);
    let (((first_ends, first_range), _), first_len) = ranges.next().expect("two ranges or more");
    alongside(
        ranges,
        |(((range_ends, range), &base), len)| *len = compact_rows(range_ends, range, base as u32),
        || *first_len = compact_rows(first_ends, first_range, 0),
    );
    let mut len = lens[0];
    for k in 1..threads {
        let from = starts[k];
        if from != len {
            neighbors.copy_within(from..from + lens[k], len);
            for end in &mut ends[rows[k]..rows[k + 1]] {
                *end -= (from - len) as u32;
            }
        }
        len += lens[k];
    }
    len
}

/// `from_edges` step 4 for one range of rows: sort and dedup each row in
/// place and compact the range to the front of `neighbors`. `ends[i]` is
/// row i's raw end, absolute, and `base` the range's raw start; each entry
/// becomes the row's compacted start, as if the range began at `base`.
/// Returns the range's compacted length.
fn compact_rows(ends: &mut [u32], neighbors: &mut [VertexId], base: u32) -> usize {
    let (mut raw_start, mut len) = (0usize, 0usize);
    for end in ends {
        let raw_end = (*end - base) as usize;
        *end = base + len as u32;
        neighbors[raw_start..raw_end].sort_unstable();
        for i in raw_start..raw_end {
            let v = neighbors[i];
            if i == raw_start || neighbors[len - 1] != v {
                neighbors[len] = v;
                len += 1;
            }
        }
        raw_start = raw_end;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-counting-sort `from_edges`, kept as the oracle: filter-copy
    /// every pair, one global `sort_unstable`, dedup, count.
    fn from_edges_oracle(n_vertices: usize, edges: &[(VertexId, VertexId)]) -> Csr {
        let mut sorted: Vec<(VertexId, VertexId)> = edges
            .iter()
            .copied()
            .filter(|&(u, v)| (u as usize) < n_vertices && (v as usize) < n_vertices)
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut offsets = vec![0u32; n_vertices + 1];
        for &(u, _) in &sorted {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n_vertices {
            offsets[i + 1] += offsets[i];
        }
        let neighbors = sorted.into_iter().map(|(_, v)| v).collect();
        Csr { offsets, neighbors }
    }

    /// `from_edges` equals the oracle on every thread count here: one
    /// slice per pair and more (64), counts that leave a short last slice
    /// (3, 7), and the caller alone (1).
    fn assert_matches_oracle_on_every_thread_count(n: usize, edges: &[(VertexId, VertexId)]) {
        let oracle = from_edges_oracle(n, edges);
        assert_eq!(Csr::from_edges(n, edges), oracle);
        for threads in [1, 2, 3, 7, 64] {
            let g = Csr::from_edges_on_threads(n, edges, threads);
            assert_eq!(g, oracle, "threads={threads} n={n} edges={edges:?}");
            assert_eq!(g.neighbors.capacity(), g.neighbors.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Endpoints range past `n` (out-of-range rows and targets), and a
        /// small id space forces heavy duplication and self-loops, so every
        /// row range leaves gaps for the closing pass.
        #[test]
        fn from_edges_matches_oracle(
            n in 0usize..40,
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..600),
        ) {
            assert_matches_oracle_on_every_thread_count(n, &edges);
        }

        /// One hub row holds every edge (the whole build is a single row
        /// sort, and every range but one is empty), with duplicates, a
        /// self-loop and out-of-range targets.
        #[test]
        fn from_edges_single_hub_matches_oracle(
            n in 1usize..200,
            hub in 0u32..200,
            targets in proptest::collection::vec(0u32..260, 0..800),
        ) {
            let edges: Vec<_> = targets.iter().map(|&v| (hub, v)).chain([(hub, hub)]).collect();
            assert_matches_oracle_on_every_thread_count(n, &edges);
        }
    }

    #[test]
    fn from_edges_degenerate_inputs_match_oracle() {
        let loops: Vec<_> = (0..5).flat_map(|v| [(v, v), (v, v)]).collect();
        for (n, edges) in [
            (0, vec![]),
            (0, vec![(0, 0), (3, 1)]),
            (7, vec![]),
            (5, loops),
            (2, vec![(VertexId::MAX, 0), (0, VertexId::MAX)]),
        ] {
            assert_matches_oracle_on_every_thread_count(n, &edges);
        }
    }

    fn diamond() -> Csr {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3
        Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn builds_and_indexes() {
        let g = diamond();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_count_both_arrays_by_capacity() {
        assert_eq!(diamond().bytes(), 4 * 5 + 4 * 4);
        assert_eq!(Csr::from_edges(0, &[]).bytes(), 4);
    }

    #[test]
    fn dedups_and_filters_out_of_range() {
        let g = Csr::from_edges(2, &[(0, 1), (0, 1), (0, 1), (1, 5), (9, 0)]);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        assert_eq!(t.n_edges(), g.n_edges());
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetrize_makes_undirected() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let s = g.symmetrize();
        assert_eq!(s.neighbors(1), &[0, 2]);
        assert_eq!(s.n_edges(), 4);
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let rebuilt = Csr::from_edges(4, &edges);
        assert_eq!(rebuilt, g);
    }

    #[test]
    fn prefetch_never_panics() {
        // Vertex 3 is the last one and isolated: its row starts at
        // `neighbors.len()`. Out-of-range ids are ignored too.
        let g = diamond();
        for ahead in [Lookahead::Far, Lookahead::Near] {
            for v in [0, 3, 4, VertexId::MAX] {
                g.prefetch(v, ahead);
            }
            Csr::from_edges(0, &[]).prefetch(0, ahead);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }
}
