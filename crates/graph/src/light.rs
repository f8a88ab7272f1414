//! Light rows: the edges a delta-stepping light task relaxes, stored apart.
//!
//! Delta-stepping relaxes a vertex's *light* edges (weight ≤ `delta`) many
//! times while its bucket settles and its heavy edges once afterwards. Over
//! plain [`Csr`] + [`EdgeWeights`] a light task walks the whole row — two
//! arrays, a load and a data-dependent branch per edge — to relax the few
//! that pass the filter. Which edges a task visits is decided by `delta`
//! alone, so it is decided here, once: every row's light edges, target and
//! weight side by side, in [`Csr::neighbors`] order.
//!
//! It sits beside [`crate::grouped::OwnerGrouped`] as the second derived
//! adjacency. It costs 8 B per light edge and 4 B per vertex; when every
//! edge is light (`delta` ≥ the largest weight) that is a full second copy
//! of the graph.

use crate::csr::{Csr, VertexId};
use crate::prefetch::{prefetch_row, Lookahead};
use crate::weights::EdgeWeights;

/// Every vertex's out-edges of weight ≤ `delta`, as `(target, weight)`.
///
/// ```
/// use atos_graph::{light::LightEdges, weights::EdgeWeights, Csr};
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// let w = EdgeWeights::unit(&g);
/// let light = LightEdges::build(&g, &w, 1);
/// assert_eq!(light.row(0), [(1, 1), (2, 1)]);
/// assert_eq!(light.degree(2), 0);
/// assert_eq!(LightEdges::build(&g, &w, 0).degree(0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LightEdges {
    /// Row `v` is `edges[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<u32>,
    edges: Vec<(VertexId, u32)>,
}

impl LightEdges {
    /// Copy out the edges of `graph` whose weight is at most `delta`. One
    /// pass over the edges with no per-edge branch: every edge is written
    /// at the cursor and only a light one advances it.
    pub fn build(graph: &Csr, weights: &EdgeWeights, delta: u64) -> Self {
        let (n, m) = (graph.n_vertices(), graph.n_edges());
        let mut offsets = Vec::with_capacity(n + 1);
        // Zeroed and written only up to the cursor, so the pages past the
        // last light edge are never touched.
        let mut edges = vec![(0 as VertexId, 0u32); m];
        let mut len = 0usize;
        for v in 0..n as VertexId {
            offsets.push(len as u32);
            for (&w, &wt) in graph.neighbors(v).iter().zip(weights.of(graph, v)) {
                edges[len] = (w, wt);
                len += (wt as u64 <= delta) as usize;
            }
        }
        offsets.push(len as u32);
        edges.truncate(len);
        edges.shrink_to_fit();
        LightEdges { offsets, edges }
    }

    /// `v`'s light edges as `(target, weight)`, in `Csr::neighbors` order.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[(VertexId, u32)] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Number of light out-edges of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Announce that row `v` is about to be read: `Far` touches its offset
    /// entry, `Near` reads that entry and touches the row's first line.
    #[inline]
    pub fn prefetch(&self, v: VertexId, ahead: Lookahead) {
        hot!(prefetch, {
            prefetch_row(&self.offsets, &self.edges, v as usize, ahead);
        })
    }
}
