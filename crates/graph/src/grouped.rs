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
use crate::par::{balanced_rows, build_threads, split_at_cuts, RowBuild};
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
    /// Group every row of `graph` by `partition`'s owners, on every host
    /// core (the `rmat` thread rule): a two-pass row build over edge-balanced
    /// row ranges counts each row's owners, then writes its segments. A
    /// row keeps the positions it has in `graph`, so each range writes its
    /// neighbours where `graph` holds them. Every array is allocated
    /// exactly.
    ///
    /// # Panics
    /// If the partition is for another vertex count.
    pub fn build(graph: &Csr, partition: &Partition) -> Self {
        Self::build_on_threads(graph, partition, build_threads(graph.n_edges()))
    }

    /// [`OwnerGrouped::build`] on `threads` threads (the caller's among
    /// them, so 0 and 1 both mean the caller alone).
    pub(crate) fn build_on_threads(graph: &Csr, partition: &Partition, threads: usize) -> Self {
        let (n, m) = (graph.n_vertices(), graph.n_edges());
        assert_eq!(partition.n_vertices(), n, "partition/graph size");
        let rows = balanced_rows(&graph.offsets()[1..], threads.max(1));
        let edge_cuts: Vec<usize> = rows.iter().map(|&r| graph.offsets()[r] as usize).collect();
        let build = RowBuild::count(rows, 0, |first, lens: &mut [u32]| {
            // Per owner, the last row that had it, plus one.
            let mut seen = vec![0usize; partition.n_parts()];
            for (v, len) in (first..).zip(lens) {
                for &w in graph.neighbors(v as VertexId) {
                    let last = &mut seen[partition.owner(w)];
                    *len += (*last != v + 1) as u32;
                    *last = v + 1;
                }
            }
        });
        let segs = build.len();
        let mut seg_owner = vec![0u16; segs];
        let mut seg_bounds = vec![0u32; segs + 1];
        seg_bounds[segs] = m as u32;
        let mut neighbors = vec![0 as VertexId; m];
        let parts: Vec<_> = split_at_cuts(&mut seg_owner, build.bases())
            .into_iter()
            .zip(split_at_cuts(&mut seg_bounds[..segs], build.bases()))
            .zip(split_at_cuts(&mut neighbors, &edge_cuts))
            .collect();
        let seg_offsets = build.write(parts, |first, starts, ((owner_out, bound_out), out)| {
            // Per owner: the row's neighbour count, then its write cursor,
            // both in `out`, which starts at the range's first edge.
            let mut cursor = vec![0usize; partition.n_parts()];
            let mut owners: Vec<u16> = Vec::new();
            let base = graph.offsets()[first] as usize;
            let (mut seg, mut end) = (0, 0);
            for v in first as VertexId..(first + starts.len()) as VertexId {
                let first_seg = seg;
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
                        owner_out[seg] = o as u16;
                        bound_out[seg] = (base + end) as u32;
                        seg += 1;
                        end += count;
                    }
                }
                for (&w, &o) in row.iter().zip(&owners) {
                    let c = &mut cursor[o as usize];
                    out[*c] = w;
                    *c += 1;
                }
                for &o in &owner_out[first_seg..seg] {
                    cursor[o as usize] = 0;
                }
            }
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{rmat, road_network};
    use proptest::prelude::*;

    /// The one-pass serial build, kept as the oracle: a stable counting
    /// sort of each row by owner, the segment arrays grown by `push`.
    fn build_serial(graph: &Csr, partition: &Partition) -> OwnerGrouped {
        let (n, m) = (graph.n_vertices(), graph.n_edges());
        let mut seg_offsets = Vec::with_capacity(n + 1);
        let mut seg_owner = Vec::new();
        let mut seg_bounds = vec![0u32];
        let mut neighbors = vec![0 as VertexId; m];
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
        OwnerGrouped {
            seg_offsets,
            seg_owner,
            seg_bounds,
            neighbors,
        }
    }

    /// On the caller alone (1), two, and counts that leave uneven ranges
    /// (3, 7).
    fn assert_matches_serial(g: &Csr, p: &Partition) {
        let want = build_serial(g, p);
        assert_eq!(OwnerGrouped::build(g, p), want);
        for threads in [1, 2, 3, 7] {
            let got = OwnerGrouped::build_on_threads(g, p, threads);
            assert_eq!(got, want, "threads={threads} parts={}", p.n_parts());
            assert_eq!(
                got.seg_owner.capacity(),
                got.seg_owner.len(),
                "allocated exactly"
            );
            assert_eq!(
                got.seg_bounds.capacity(),
                got.seg_bounds.len(),
                "allocated exactly"
            );
        }
    }

    #[test]
    fn owner_grouped_on_threads_matches_the_serial_build() {
        let scale_free = rmat(10, 12_000, (0.57, 0.19, 0.19, 0.05), 4);
        let n = scale_free.n_vertices();
        for p in [
            Partition::single(n),
            Partition::block(n, 4),
            Partition::random(n, 8, 3),
            Partition::random(n, 300, 3),
            Partition::bfs_grow(&scale_free, 3, 1),
        ] {
            assert_matches_serial(&scale_free, &p);
        }
        let mesh = road_network(40, 30, 2);
        assert_matches_serial(&mesh, &Partition::block(mesh.n_vertices(), 4));
        assert_matches_serial(&Csr::from_edges(0, &[]), &Partition::single(0));
        assert_matches_serial(&Csr::from_edges(5, &[]), &Partition::random(5, 2, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random graphs with hub rows and empty rows, under random owners.
        #[test]
        fn owner_grouped_on_threads_matches_the_serial_build_on_random_graphs(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40), 0..400),
            parts in 1usize..6,
            seed in 0u64..1000,
        ) {
            let g = Csr::from_edges(n, &edges);
            assert_matches_serial(&g, &Partition::random(n, parts, seed));
        }
    }
}
