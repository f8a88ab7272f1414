//! Compressed sparse row graph storage.
//!
//! Mirrors the `CSR` the paper's BFS worker iterates
//! (`neighborlist_start`, `neighbor_list_length`, `get_neighbor`): 64-bit
//! offsets so twitter-scale edge counts fit, 32-bit vertex ids to halve
//! memory traffic (the paper's graphs all fit u32).

use std::ops::Range;

use crate::prefetch::{prefetch_row, Lookahead};

/// Vertex identifier (u32: all Table I graphs fit, and halving index width
/// matters for bandwidth-bound traversal).
pub type VertexId = u32;

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
    offsets: Vec<u64>,
    neighbors: Vec<VertexId>,
}

impl Csr {
    /// Build from a directed edge list. Edges with an endpoint outside
    /// `0..n_vertices` are dropped, duplicates are merged, and every row
    /// comes out sorted; self-loops are kept (harmless to BFS/PR).
    ///
    /// Counting sort by source — degree histogram, prefix sum, scatter of
    /// the targets into one `Vec<VertexId>` — then a per-row sort + dedup
    /// compacted in place. Nothing ever holds a second copy of the pairs,
    /// so the peak is the caller's 8 B/edge plus 4 B/edge here.
    pub fn from_edges(n_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let in_range = |&&(u, v): &&(VertexId, VertexId)| {
            (u as usize) < n_vertices && (v as usize) < n_vertices
        };
        let mut offsets = vec![0u64; n_vertices + 1];
        for &(u, _) in edges.iter().filter(in_range) {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n_vertices {
            offsets[i + 1] += offsets[i];
        }
        // Scatter with `offsets[u]` as row u's write cursor: afterwards it
        // holds the row's raw *end*, which the compaction pass below turns
        // back into the compacted start.
        let mut neighbors = vec![0 as VertexId; offsets[n_vertices] as usize];
        for &(u, v) in edges.iter().filter(in_range) {
            let cursor = &mut offsets[u as usize];
            neighbors[*cursor as usize] = v;
            *cursor += 1;
        }
        let (mut raw_start, mut len) = (0usize, 0usize);
        for offset in offsets.iter_mut().take(n_vertices) {
            let raw_end = *offset as usize;
            *offset = len as u64;
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
        offsets[n_vertices] = len as u64;
        neighbors.truncate(len);
        neighbors.shrink_to_fit();
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
    pub(crate) fn offsets(&self) -> &[u64] {
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
    // atos-lint: hot(no-index)
    pub fn prefetch(&self, v: VertexId, ahead: Lookahead) {
        prefetch_row(&self.offsets, &self.neighbors, v as usize, ahead);
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

    /// Transposed graph (in-edges become out-edges).
    pub fn transpose(&self) -> Csr {
        let n = self.n_vertices();
        let mut offsets = vec![0u64; n + 1];
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
    pub fn symmetrize(&self) -> Csr {
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

    /// Total out-degree over a set of vertices (frontier work estimate).
    pub fn frontier_edges(&self, frontier: &[VertexId]) -> u64 {
        frontier.iter().map(|&v| self.degree(v) as u64).sum()
    }
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
        let mut offsets = vec![0u64; n_vertices + 1];
        for &(u, _) in &sorted {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n_vertices {
            offsets[i + 1] += offsets[i];
        }
        let neighbors = sorted.into_iter().map(|(_, v)| v).collect();
        Csr { offsets, neighbors }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Endpoints range past `n` (out-of-range rows and targets), and a
        /// small id space forces heavy duplication and self-loops.
        #[test]
        fn from_edges_matches_oracle(
            n in 0usize..40,
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..600),
        ) {
            prop_assert_eq!(Csr::from_edges(n, &edges), from_edges_oracle(n, &edges));
        }

        /// One hub row holds every edge (the whole build is a single row
        /// sort), with duplicates, a self-loop and out-of-range targets.
        #[test]
        fn from_edges_single_hub_matches_oracle(
            n in 1usize..200,
            hub in 0u32..200,
            targets in proptest::collection::vec(0u32..260, 0..800),
        ) {
            let edges: Vec<_> = targets.iter().map(|&v| (hub, v)).chain([(hub, hub)]).collect();
            prop_assert_eq!(Csr::from_edges(n, &edges), from_edges_oracle(n, &edges));
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
            let g = Csr::from_edges(n, &edges);
            assert_eq!(g, from_edges_oracle(n, &edges), "n={n} edges={edges:?}");
            assert_eq!(g.neighbors.capacity(), g.neighbors.len());
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
    fn frontier_edges_sums_degrees() {
        let g = diamond();
        assert_eq!(g.frontier_edges(&[0, 1]), 3);
        assert_eq!(g.frontier_edges(&[]), 0);
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
