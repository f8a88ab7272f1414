//! Owner-grouped adjacency: the distributed layout of a partitioned graph.
//!
//! A push application visiting `v` sends something to every out-neighbour
//! `w`, and where depends on `Partition::owner(w)`: the local queue, or a
//! one-sided push to the owning PE. Over plain [`Csr`] that is an owner
//! lookup and a data-dependent branch per edge. Here every row is regrouped
//! once — a stable counting sort of `Csr::neighbors(v)` by owner — so a
//! visit walks one contiguous *segment* per owner: the local one in the
//! original relative order, each remote one as a run toward its PE.
//!
//! Storage is a two-level CSR (vertices → segments → neighbours) with a
//! segment only for owners that occur in the row, so the overhead is
//! bounded by the edge count, whatever the number of PEs.

use crate::csr::{Csr, VertexId};
use crate::partition::Partition;
use crate::prefetch::{prefetch, Lookahead};

/// Every vertex's out-neighbours, stably grouped by owning PE.
///
/// ```
/// use atos_graph::{grouped::OwnerGrouped, Csr, Partition};
/// let g = Csr::from_edges(4, &[(0, 1), (0, 2), (0, 3), (3, 0)]);
/// let p = Partition::block(4, 2); // PE 0 owns {0, 1}, PE 1 owns {2, 3}
/// let adj = OwnerGrouped::build(&g, &p);
/// let row: Vec<_> = adj.segments(0).collect();
/// assert_eq!(row, [(0, &[1][..]), (1, &[2, 3][..])]);
/// assert_eq!(adj.degree(0), 3);
/// assert_eq!(adj.segments(1).count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerGrouped {
    /// Row `v`'s segments are `seg_offsets[v]..seg_offsets[v + 1]`.
    seg_offsets: Vec<u32>,
    /// Owning PE of each segment; ascending within a row.
    seg_owner: Vec<u16>,
    /// Segment `s` is `neighbors[seg_bounds[s]..seg_bounds[s + 1]]`.
    seg_bounds: Vec<u32>,
    neighbors: Vec<VertexId>,
}

impl OwnerGrouped {
    /// Group every row of `graph` by `partition`'s owners. One pass over
    /// the edges with one owner lookup each.
    ///
    /// # Panics
    /// If the partition is for another vertex count, or the graph has more
    /// than `u32::MAX` edges (segment bounds are 32-bit: they are read once
    /// per segment on the traversal's hot path).
    pub fn build(graph: &Csr, partition: &Partition) -> Self {
        let (n, m) = (graph.n_vertices(), graph.n_edges());
        assert_eq!(partition.n_vertices(), n, "partition/graph size");
        assert!(m <= u32::MAX as usize, "segment bounds are 32-bit");
        let mut seg_offsets = Vec::with_capacity(n + 1);
        let mut seg_owner = Vec::new();
        let mut seg_bounds = vec![0u32];
        let mut neighbors = vec![0 as VertexId; m];
        // Per owner: the row's neighbour count, then its write cursor.
        let mut cursor = vec![0usize; partition.n_parts()];
        let mut owners: Vec<u16> = Vec::new();
        let mut end = 0usize;
        for v in 0..n as VertexId {
            let first_seg = seg_owner.len();
            seg_offsets.push(first_seg as u32);
            let row = graph.neighbors(v);
            owners.clear();
            owners.extend(row.iter().map(|&w| partition.owner(w) as u16));
            for &o in &owners {
                cursor[o as usize] += 1;
            }
            for (o, c) in cursor.iter_mut().enumerate() {
                if *c > 0 {
                    // The segment starts where the previous one ended.
                    let count = std::mem::replace(c, end);
                    end += count;
                    seg_owner.push(o as u16);
                    seg_bounds.push(end as u32);
                }
            }
            for (&w, &o) in row.iter().zip(&owners) {
                let c = &mut cursor[o as usize];
                neighbors[*c] = w;
                *c += 1;
            }
            for &o in &seg_owner[first_seg..] {
                cursor[o as usize] = 0;
            }
        }
        seg_offsets.push(seg_owner.len() as u32);
        seg_owner.shrink_to_fit();
        seg_bounds.shrink_to_fit();
        OwnerGrouped {
            seg_offsets,
            seg_owner,
            seg_bounds,
            neighbors,
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let lo = self.seg_bounds[self.seg_offsets[v as usize] as usize];
        let hi = self.seg_bounds[self.seg_offsets[v as usize + 1] as usize];
        (hi - lo) as usize
    }

    /// Announce that row `v` is about to be read: `Far` touches its
    /// segment-index entry, `Near` reads that entry and touches the row's
    /// first segment (its bound and its owner).
    #[inline]
    // atos-lint: hot(no-index)
    pub fn prefetch(&self, v: VertexId, ahead: Lookahead) {
        match ahead {
            Lookahead::Far => prefetch(&self.seg_offsets, v as usize),
            Lookahead::Near => {
                if let Some(&s) = self.seg_offsets.get(v as usize) {
                    prefetch(&self.seg_bounds, s as usize);
                    prefetch(&self.seg_owner, s as usize);
                }
            }
        }
    }

    /// `(owner, neighbours of v it owns)` for every owner with at least
    /// one, ascending by owner; a segment keeps the relative order its
    /// vertices have in `Csr::neighbors(v)`.
    #[inline]
    pub fn segments(&self, v: VertexId) -> impl Iterator<Item = (usize, &[VertexId])> + '_ {
        let lo = self.seg_offsets[v as usize] as usize;
        let hi = self.seg_offsets[v as usize + 1] as usize;
        (lo..hi).map(move |s| {
            let (from, to) = (self.seg_bounds[s] as usize, self.seg_bounds[s + 1] as usize);
            (self.seg_owner[s] as usize, &self.neighbors[from..to])
        })
    }
}
