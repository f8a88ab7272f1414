//! Vertex partitioning across PEs.
//!
//! The paper partitions with METIS where possible ("Groute requires Metis,
//! so for all tests that Groute can run, we use Metis partitionings;
//! twitter50 uses a random partitioning"). METIS's role in the evaluation
//! is to control the *remote edge fraction* — the share of edges whose
//! endpoints live on different GPUs, i.e. the traffic the interconnect must
//! carry. Three partitioners cover that space:
//!
//! * [`Partition::random`] — worst-case cut (≈ `1 - 1/p` of edges remote);
//!   what the paper uses for twitter50.
//! * [`Partition::block`] — contiguous ranges; good for meshes whose vertex
//!   order is spatial (our grid generators), poor for social graphs.
//! * [`Partition::bfs_grow`] — greedy BFS region growing with balance caps,
//!   a METIS-like min-cut heuristic adequate at our scales.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::csr::{Csr, VertexId};

/// An assignment of every vertex to one of `n_parts` PEs.
///
/// ```
/// use atos_graph::{generators::grid_2d, Partition};
/// let g = grid_2d(8, 8);
/// let p = Partition::bfs_grow(&g, 4, 1);
/// assert_eq!(p.n_parts(), 4);
/// assert_eq!(p.part_sizes().iter().sum::<usize>(), 64);
/// assert!(p.edge_cut(&g) < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    owner: Vec<u16>,
    n_parts: usize,
}

impl Partition {
    /// All vertices on one PE (single-GPU runs).
    pub fn single(n_vertices: usize) -> Self {
        Partition {
            owner: vec![0; n_vertices],
            n_parts: 1,
        }
    }

    /// Uniform random assignment.
    ///
    /// # Panics
    /// If `n_parts` is 0 or exceeds `u16::MAX`.
    pub fn random(n_vertices: usize, n_parts: usize, seed: u64) -> Self {
        check_n_parts(n_parts);
        let mut rng = SmallRng::seed_from_u64(seed);
        Partition {
            owner: (0..n_vertices)
                .map(|_| rng.gen_range(0..n_parts) as u16)
                .collect(),
            n_parts,
        }
    }

    /// Contiguous equal ranges of the vertex id space.
    ///
    /// # Panics
    /// If `n_parts` is 0 or exceeds `u16::MAX`.
    pub fn block(n_vertices: usize, n_parts: usize) -> Self {
        check_n_parts(n_parts);
        let per = n_vertices.div_ceil(n_parts).max(1);
        // `n_vertices.div_ceil(per)` ≤ `n_parts` runs of `per` owners.
        let mut owner = vec![0; n_vertices];
        for (p, run) in owner.chunks_mut(per).enumerate() {
            run.fill(p as u16);
        }
        Partition { owner, n_parts }
    }

    /// Greedy BFS region growing: seeds one BFS per part at spread-out
    /// high-degree vertices and grows regions breadth-first under a balance
    /// cap, then assigns any unreached vertices round-robin. A METIS-like
    /// low-edge-cut heuristic.
    ///
    /// # Panics
    /// If `n_parts` is 0 or exceeds `u16::MAX`.
    pub fn bfs_grow(g: &Csr, n_parts: usize, seed: u64) -> Self {
        check_n_parts(n_parts);
        let n = g.n_vertices();
        if n_parts == 1 || n == 0 {
            return Partition {
                owner: vec![0; n],
                n_parts,
            };
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        const UNASSIGNED: u16 = u16::MAX;
        let mut owner = vec![UNASSIGNED; n];
        let cap = n.div_ceil(n_parts);
        let mut sizes = vec![0usize; n_parts];
        let mut frontiers: Vec<std::collections::VecDeque<VertexId>> =
            (0..n_parts).map(|_| Default::default()).collect();
        // Seed each part at a random vertex, retrying to avoid collisions.
        for p in 0..n_parts {
            for _ in 0..64 {
                let v = rng.gen_range(0..n) as VertexId;
                if owner[v as usize] == UNASSIGNED {
                    owner[v as usize] = p as u16;
                    sizes[p] += 1;
                    frontiers[p].push_back(v);
                    break;
                }
            }
        }
        // Round-robin BFS growth under the balance cap.
        let mut active = true;
        while active {
            active = false;
            for p in 0..n_parts {
                if sizes[p] >= cap {
                    continue;
                }
                if let Some(v) = frontiers[p].pop_front() {
                    active = true;
                    for &w in g.neighbors(v) {
                        if owner[w as usize] == UNASSIGNED && sizes[p] < cap {
                            owner[w as usize] = p as u16;
                            sizes[p] += 1;
                            frontiers[p].push_back(w);
                        }
                    }
                }
            }
        }
        // Unreached vertices (disconnected or cap spill): round-robin to
        // the smallest parts.
        for o in owner.iter_mut() {
            if *o == UNASSIGNED {
                let p = sizes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, s)| *s)
                    .map(|(i, _)| i)
                    .unwrap();
                *o = p as u16;
                sizes[p] += 1;
            }
        }
        Partition { owner, n_parts }
    }

    /// Owning PE of `v` (the paper's `findPE`).
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Number of parts.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.owner.len()
    }

    /// Vertices owned by each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.n_parts];
        for &o in &self.owner {
            sizes[o as usize] += 1;
        }
        sizes
    }

    /// Vertices owned by `part`, in id order.
    pub fn vertices_of(&self, part: usize) -> Vec<VertexId> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, &o)| o as usize == part)
            .map(|(v, _)| v as VertexId)
            .collect()
    }

    /// Fraction of edges whose endpoints are on different parts.
    pub fn edge_cut(&self, g: &Csr) -> f64 {
        if g.n_edges() == 0 {
            return 0.0;
        }
        let cut = g
            .edges()
            .filter(|&(u, v)| self.owner(u) != self.owner(v))
            .count();
        cut as f64 / g.n_edges() as f64
    }
}

/// Owners are `u16`, so a partition has 1 to `u16::MAX` parts.
fn check_n_parts(n_parts: usize) {
    assert!(
        (1..=u16::MAX as usize).contains(&n_parts),
        "n_parts must be in 1..={}, got {n_parts}",
        u16::MAX
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_2d, rmat};

    /// Max/min part-size ratio (1.0 = perfectly balanced).
    fn imbalance(p: &Partition) -> f64 {
        let sizes = p.part_sizes();
        let (max, min) = (sizes.iter().max().unwrap(), sizes.iter().min().unwrap());
        *max as f64 / *min as f64
    }

    #[test]
    fn single_owns_everything() {
        let p = Partition::single(10);
        assert_eq!(p.n_parts(), 1);
        assert!((0..10).all(|v| p.owner(v) == 0));
        assert_eq!(p.part_sizes(), vec![10]);
    }

    /// The per-vertex division form `block` had before it filled runs,
    /// kept as the oracle.
    fn block_oracle(n_vertices: usize, n_parts: usize) -> Vec<u16> {
        let per = n_vertices.div_ceil(n_parts).max(1);
        (0..n_vertices)
            .map(|v| ((v / per) as u16).min(n_parts as u16 - 1))
            .collect()
    }

    #[test]
    fn block_matches_the_division_form() {
        for n in [0, 1, 7, 1000] {
            for parts in [1, 2, 3, 9, 4096] {
                let p = Partition::block(n, parts);
                assert_eq!(p.owner, block_oracle(n, parts), "n={n} parts={parts}");
                assert_eq!(p.n_parts(), parts);
            }
        }
    }

    #[test]
    fn block_is_contiguous_and_balanced() {
        let p = Partition::block(10, 3);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(9), 2);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(imbalance(&p) <= 2.0);
    }

    #[test]
    fn random_is_deterministic_and_covers_parts() {
        let a = Partition::random(1000, 4, 3);
        let b = Partition::random(1000, 4, 3);
        assert_eq!(a, b);
        assert!(a.part_sizes().iter().all(|&s| s > 150));
    }

    #[test]
    fn bfs_grow_beats_random_cut_on_mesh() {
        let g = grid_2d(40, 40);
        let random = Partition::random(g.n_vertices(), 4, 1).edge_cut(&g);
        let grown = Partition::bfs_grow(&g, 4, 1).edge_cut(&g);
        assert!(
            grown < random / 3.0,
            "bfs_grow cut {grown} vs random {random}"
        );
    }

    #[test]
    fn block_beats_random_cut_on_grid() {
        // Grid vertex order is row-major, so block = horizontal strips.
        let g = grid_2d(32, 32);
        let random = Partition::random(g.n_vertices(), 4, 1).edge_cut(&g);
        let block = Partition::block(g.n_vertices(), 4).edge_cut(&g);
        assert!(block < random / 2.0);
    }

    #[test]
    fn bfs_grow_is_balanced_on_scale_free() {
        let g = rmat(10, 8_000, (0.57, 0.19, 0.19, 0.05), 2);
        let p = Partition::bfs_grow(&g, 4, 2);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), g.n_vertices());
        assert!(imbalance(&p) < 1.5, "imbalance {}", imbalance(&p));
    }

    #[test]
    fn vertices_of_matches_owner() {
        let p = Partition::block(10, 2);
        assert_eq!(p.vertices_of(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(p.vertices_of(1), vec![5, 6, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "n_parts must be in 1..=65535, got 0")]
    fn random_rejects_zero_parts() {
        Partition::random(10, 0, 1);
    }

    #[test]
    #[should_panic(expected = "n_parts must be in 1..=65535, got 65536")]
    fn block_rejects_more_parts_than_owner_ids() {
        Partition::block(10, 1 << 16);
    }

    #[test]
    #[should_panic(expected = "n_parts must be in 1..=65535, got 0")]
    fn bfs_grow_rejects_zero_parts() {
        Partition::bfs_grow(&grid_2d(2, 2), 0, 1);
    }

    #[test]
    fn random_cut_near_theory() {
        let g = rmat(10, 10_000, (0.5, 0.2, 0.2, 0.1), 4);
        let p = Partition::random(g.n_vertices(), 4, 9);
        let cut = p.edge_cut(&g);
        // Theory: 1 - 1/4 = 0.75.
        assert!((cut - 0.75).abs() < 0.05, "cut {cut}");
    }
}
