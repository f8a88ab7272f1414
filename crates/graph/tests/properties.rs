//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use atos_graph::csr::{Csr, VertexId};
use atos_graph::generators::{grid_2d, rmat, road_network};
use atos_graph::partition::Partition;
use atos_graph::reference::{bfs, pagerank_push, UNREACHED};

fn arb_edges(n: usize, m: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    proptest::collection::vec((0..n as VertexId, 0..n as VertexId), 0..m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR round-trips the sorted deduplicated edge list.
    #[test]
    fn csr_roundtrip(edges in arb_edges(64, 400)) {
        let g = Csr::from_edges(64, &edges);
        let mut expect = edges.clone();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<_> = g.edges().collect();
        prop_assert_eq!(got, expect);
    }

    /// Degrees sum to the edge count; neighbor lists are sorted.
    #[test]
    fn csr_degree_invariants(edges in arb_edges(48, 300)) {
        let g = Csr::from_edges(48, &edges);
        let total: usize = (0..48).map(|v| g.degree(v as VertexId)).sum();
        prop_assert_eq!(total, g.n_edges());
        for v in 0..48u32 {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    /// Transpose is an involution and preserves edge count.
    #[test]
    fn transpose_involution(edges in arb_edges(40, 250)) {
        let g = Csr::from_edges(40, &edges);
        let t = g.transpose();
        prop_assert_eq!(t.n_edges(), g.n_edges());
        prop_assert_eq!(t.transpose(), g);
    }

    /// Every partitioner assigns every vertex to a valid part.
    #[test]
    fn partitions_cover(n in 1usize..300, parts in 1usize..9, seed in 0u64..100) {
        for p in [
            Partition::random(n, parts, seed),
            Partition::block(n, parts),
        ] {
            prop_assert_eq!(p.n_vertices(), n);
            prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), n);
            for v in 0..n {
                prop_assert!(p.owner(v as VertexId) < parts);
            }
        }
    }

    /// BFS-grown partitions cover arbitrary graphs too (including
    /// disconnected ones).
    #[test]
    fn bfs_grow_covers(edges in arb_edges(60, 200), parts in 1usize..6, seed in 0u64..20) {
        let g = Csr::from_edges(60, &edges);
        let p = Partition::bfs_grow(&g, parts, seed);
        prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), 60);
    }

    /// BFS depths satisfy the relaxation fixed point: for every edge
    /// (u, v) with u reached, depth[v] <= depth[u] + 1, and every reached
    /// non-source vertex has a parent at depth - 1.
    #[test]
    fn bfs_is_a_shortest_path_fixed_point(edges in arb_edges(50, 250), src in 0u32..50) {
        let g = Csr::from_edges(50, &edges);
        let d = bfs(&g, src);
        prop_assert_eq!(d[src as usize], 0);
        for (u, v) in g.edges() {
            if d[u as usize] != UNREACHED {
                prop_assert!(d[v as usize] <= d[u as usize] + 1);
            }
        }
        let t = g.transpose();
        for v in 0..50u32 {
            let dv = d[v as usize];
            if dv != UNREACHED && dv > 0 {
                prop_assert!(
                    t.neighbors(v).iter().any(|&u| d[u as usize] == dv - 1),
                    "vertex {} at depth {} needs a parent", v, dv
                );
            }
        }
    }

    /// PageRank: ranks are nonnegative and total mass never exceeds n.
    #[test]
    fn pagerank_mass_bounds(edges in arb_edges(40, 200), eps_exp in 3u32..7) {
        let g = Csr::from_edges(40, &edges);
        let eps = 10f64.powi(-(eps_exp as i32));
        let pr = pagerank_push(&g, 0.85, eps);
        let total: f64 = pr.rank.iter().sum();
        prop_assert!(pr.rank.iter().all(|&r| r >= 0.0));
        prop_assert!(total <= 40.0 + 1e-9, "mass {total}");
    }

    /// Generators honor their size contracts.
    #[test]
    fn generator_contracts(scale in 4u32..9, m in 10usize..2000, seed in 0u64..50) {
        let g = rmat(scale, m, (0.57, 0.19, 0.19, 0.05), seed);
        prop_assert_eq!(g.n_vertices(), 1 << scale);
        prop_assert!(g.n_edges() <= m);
    }

    /// Grids and road networks are undirected (every edge has a reverse).
    #[test]
    fn meshes_are_symmetric(w in 2usize..12, h in 2usize..12, seed in 0u64..10) {
        for g in [grid_2d(w, h), road_network(w.max(4), h.max(4), seed)] {
            for (u, v) in g.edges() {
                prop_assert!(g.neighbors(v).contains(&u), "missing reverse of ({u},{v})");
            }
        }
    }
}
