//! Edge weights and weighted serial references (SSSP).
//!
//! The paper's two applications are unweighted, but its priority queue —
//! `DistributedPriorityQueues` with `threshold` / `threshold_delta` — is
//! the delta-stepping scheduling structure, and single-source shortest
//! paths is its canonical client. This module supplies deterministic edge
//! weights aligned to a [`Csr`] and a Dijkstra reference, used by the
//! `atos-apps` SSSP extension.

use crate::csr::{Csr, VertexId};
use crate::par::{alongside, balanced_rows, build_threads, split_at_cuts};
use crate::prefetch::{prefetch_row, Lookahead};

/// Distance value for unreachable vertices.
pub const UNREACHED_DIST: u64 = u64::MAX;

/// Per-edge weights stored parallel to a CSR's neighbor array.
///
/// Only the weights are stored: the row index is the graph's own, so every
/// row accessor takes the [`Csr`] the weights were made for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeWeights {
    w: Vec<u32>,
}

impl EdgeWeights {
    /// Deterministic pseudo-random weights in `1..=max_weight`, seeded.
    ///
    /// Weights are a pure function of `(u, v, seed)`, so two CSRs with the
    /// same edges get the same weights regardless of construction order.
    /// Rows are filled on every host core (the `rmat` thread rule), each
    /// thread a range of rows of about equal edges.
    ///
    /// # Panics
    /// If `max_weight` is 0.
    pub fn random(g: &Csr, max_weight: u32, seed: u64) -> Self {
        Self::random_on_threads(g, max_weight, seed, build_threads(g.n_edges()))
    }

    /// [`EdgeWeights::random`] filled on `threads` threads (the caller's
    /// among them, so 0 and 1 both mean the caller alone).
    pub(crate) fn random_on_threads(g: &Csr, max_weight: u32, seed: u64, threads: usize) -> Self {
        assert!(
            max_weight >= 1,
            "EdgeWeights::random: max_weight must be at least 1, got {max_weight}"
        );
        let offsets = g.offsets();
        let rows = balanced_rows(&offsets[1..], threads.max(1));
        let cuts: Vec<usize> = rows.iter().map(|&r| offsets[r] as usize).collect();
        let mut w = vec![0; g.n_edges()];
        // `out` holds exactly the edges of rows `range[0]..range[1]`.
        let fill = |range: &[usize], out: &mut [u32]| {
            let mut slots = out.iter_mut();
            for u in range[0] as VertexId..range[1] as VertexId {
                for (&v, slot) in g.neighbors(u).iter().zip(&mut slots) {
                    *slot = hash_edge(u, v, seed) % max_weight + 1;
                }
            }
        };
        let mut parts = rows.windows(2).zip(split_at_cuts(&mut w, &cuts));
        let (first_rows, first_out) = parts.next().expect("one range or more");
        alongside(
            parts,
            |(range, out)| fill(range, out),
            || fill(first_rows, first_out),
        );
        EdgeWeights { w }
    }

    /// Unit weights (SSSP degenerates to BFS).
    pub fn unit(g: &Csr) -> Self {
        EdgeWeights {
            w: vec![1; g.n_edges()],
        }
    }

    /// Weights of `u`'s out-edges, parallel to `g.neighbors(u)`; `g` is the
    /// graph these weights were made for.
    #[inline]
    pub fn of(&self, g: &Csr, u: VertexId) -> &[u32] {
        debug_assert_eq!(self.w.len(), g.n_edges(), "weights of another graph");
        &self.w[g.row(u)]
    }

    /// Announce that `of(g, u)` is about to be read. The row index is the
    /// graph's, so the `Far` stage is [`Csr::prefetch`]'s and nothing is
    /// left to do here; `Near` reads the offset entry that stage fetched
    /// and touches the row's first line.
    #[inline]
    pub fn prefetch(&self, g: &Csr, u: VertexId, ahead: Lookahead) {
        hot!(prefetch, {
            if ahead == Lookahead::Near {
                prefetch_row(g.offsets(), &self.w, u as usize, ahead);
            }
        })
    }

    /// Maximum weight present (delta-stepping tuning input).
    pub fn max(&self) -> u32 {
        self.w.iter().copied().max().unwrap_or(1)
    }
}

fn hash_edge(u: VertexId, v: VertexId, seed: u64) -> u32 {
    // splitmix64 over the packed edge id.
    let mut x = ((u as u64) << 32 | v as u64) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    (x ^ (x >> 31)) as u32
}

/// Serial Dijkstra; returns distances (`UNREACHED_DIST` if unreachable).
pub fn dijkstra(g: &Csr, w: &EdgeWeights, src: VertexId) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut dist = vec![UNREACHED_DIST; g.n_vertices()];
    if g.n_vertices() == 0 {
        return dist;
    }
    dist[src as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (&v, &wt) in g.neighbors(u).iter().zip(w.of(g, u)) {
            let nd = d + wt as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Serial connected components of the *symmetrized* view of `g`: labels
/// are the minimum vertex id in each component.
pub fn connected_components(g: &Csr) -> Vec<u32> {
    let s = g.symmetrize();
    let n = s.n_vertices();
    let mut label = vec![u32::MAX; n];
    let mut stack = Vec::new();
    for start in 0..n as VertexId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        label[start as usize] = start;
        stack.push(start);
        while let Some(u) = stack.pop() {
            for &v in s.neighbors(u) {
                if label[v as usize] == u32::MAX {
                    label[v as usize] = start;
                    stack.push(v);
                }
            }
        }
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_2d, rmat};
    use crate::reference::bfs;

    #[test]
    fn weights_align_with_neighbors() {
        let g = rmat(8, 1200, (0.57, 0.19, 0.19, 0.05), 3);
        let w = EdgeWeights::random(&g, 16, 7);
        for u in 0..g.n_vertices() as VertexId {
            assert_eq!(w.of(&g, u).len(), g.degree(u));
            assert!(w.of(&g, u).iter().all(|&x| (1..=16).contains(&x)));
        }
        assert!(w.max() <= 16);
    }

    #[test]
    fn prefetch_never_panics() {
        // Vertex 2 is the last one and has no out-edges.
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let w = EdgeWeights::unit(&g);
        for ahead in [Lookahead::Far, Lookahead::Near] {
            for u in [0, 2, 3, VertexId::MAX] {
                w.prefetch(&g, u, ahead);
            }
        }
    }

    #[test]
    fn weights_are_seed_deterministic() {
        let g = rmat(7, 500, (0.57, 0.19, 0.19, 0.05), 1);
        assert_eq!(EdgeWeights::random(&g, 8, 5), EdgeWeights::random(&g, 8, 5));
        assert_ne!(EdgeWeights::random(&g, 8, 5), EdgeWeights::random(&g, 8, 6));
    }

    #[test]
    fn weights_are_independent_of_the_thread_count() {
        // A hub row, isolated rows at both ends, and the empty graph.
        let hub = Csr::from_edges(9, &[(1, 2), (1, 3), (1, 4), (1, 5), (4, 1), (6, 7)]);
        for g in [
            rmat(9, 3000, (0.57, 0.19, 0.19, 0.05), 4),
            hub,
            Csr::from_edges(0, &[]),
        ] {
            // Each weight is its own edge's, slot for slot.
            let serial = EdgeWeights {
                w: g.edges()
                    .map(|(u, v)| hash_edge(u, v, 3) % 20 + 1)
                    .collect(),
            };
            assert_eq!(EdgeWeights::random(&g, 20, 3), serial);
            for threads in [1, 2, 7] {
                assert_eq!(EdgeWeights::random_on_threads(&g, 20, 3, threads), serial);
            }
        }
    }

    #[test]
    #[should_panic(expected = "max_weight must be at least 1, got 0")]
    fn random_rejects_zero_max_weight() {
        EdgeWeights::random(&grid_2d(2, 2), 0, 1);
    }

    #[test]
    fn unit_weight_dijkstra_equals_bfs() {
        let g = rmat(9, 3000, (0.57, 0.19, 0.19, 0.05), 2);
        let w = EdgeWeights::unit(&g);
        let src = 0;
        let d = dijkstra(&g, &w, src);
        let b = bfs(&g, src);
        for v in 0..g.n_vertices() {
            if b[v] == u32::MAX {
                assert_eq!(d[v], UNREACHED_DIST);
            } else {
                assert_eq!(d[v], b[v] as u64);
            }
        }
    }

    #[test]
    fn dijkstra_chain_with_shortcut() {
        // 0 -> 1 -> 2 cheap; 0 -> 2 expensive.
        let g = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        // Hand-build weights: of(0) = [w(0,1), w(0,2)], of(1) = [w(1,2)].
        let w = EdgeWeights { w: vec![1, 10, 1] };
        assert_eq!(dijkstra(&g, &w, 0), vec![0, 1, 2]);
    }

    #[test]
    fn components_on_disconnected_grids() {
        // Two 3x3 grids, disjoint.
        let a = grid_2d(3, 3);
        let mut edges: Vec<(u32, u32)> = a.edges().collect();
        edges.extend(a.edges().map(|(u, v)| (u + 9, v + 9)));
        let g = Csr::from_edges(18, &edges);
        let labels = connected_components(&g);
        assert!(labels[..9].iter().all(|&l| l == 0));
        assert!(labels[9..].iter().all(|&l| l == 9));
    }

    #[test]
    fn directed_chain_is_one_weak_component() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(connected_components(&g), vec![0, 0, 0, 0]);
    }
}
