//! Structural statistics — validates presets against Table I.

use crate::csr::{Csr, VertexId};
use crate::reference::{bfs, UNREACHED};

/// Summary statistics mirroring Table I's columns.
#[derive(Debug, Clone)]
pub struct GraphStats {
    /// Vertex count.
    pub vertices: usize,
    /// Directed edge count.
    pub edges: usize,
    /// Estimated diameter (double-sweep lower bound).
    pub diameter_est: u32,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Average out-degree.
    pub avg_degree: f64,
}

/// Compute Table I-style stats for a graph.
pub fn stats(g: &Csr) -> GraphStats {
    let mut in_degree = vec![0usize; g.n_vertices()];
    for (_, v) in g.edges() {
        in_degree[v as usize] += 1;
    }
    GraphStats {
        vertices: g.n_vertices(),
        edges: g.n_edges(),
        diameter_est: estimate_diameter(g),
        max_in_degree: in_degree.into_iter().max().unwrap_or(0),
        max_out_degree: g.max_degree(),
        avg_degree: g.avg_degree(),
    }
}

/// Double-sweep diameter lower bound: BFS from the max-degree vertex, then
/// BFS again from the deepest reached vertex; the second eccentricity is a
/// strong lower bound on (and for meshes usually equal to) the diameter.
pub fn estimate_diameter(g: &Csr) -> u32 {
    if g.n_vertices() == 0 {
        return 0;
    }
    let start = (0..g.n_vertices() as VertexId)
        .max_by_key(|&v| g.degree(v))
        .unwrap();
    let first = bfs(g, start);
    let far = deepest(&first).unwrap_or(start);
    // On directed graphs the deepest vertex can be a sink, so the second
    // sweep may be shorter than the first; take the max of both.
    deepest_depth(&bfs(g, far)).max(deepest_depth(&first))
}

fn deepest(depths: &[u32]) -> Option<VertexId> {
    depths
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != UNREACHED)
        .max_by_key(|(_, &d)| d)
        .map(|(v, _)| v as VertexId)
}

fn deepest_depth(depths: &[u32]) -> u32 {
    depths
        .iter()
        .copied()
        .filter(|&d| d != UNREACHED)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_2d, rmat, road_network, GraphKind, Preset, Scale};

    #[test]
    fn grid_diameter_exact() {
        let g = grid_2d(10, 6);
        assert_eq!(estimate_diameter(&g), 10 + 6 - 2);
    }

    #[test]
    fn mesh_presets_have_huge_diameter_scale_free_small() {
        for p in Preset::ALL {
            let g = p.build(Scale::Tiny);
            let d = estimate_diameter(&g);
            match p.kind {
                // Tiny road networks are ~48x48 grids: diameter ≈ 90+.
                GraphKind::MeshLike => assert!(d >= 50, "{}: diameter {d}", p.name),
                GraphKind::ScaleFree => assert!(d <= 30, "{}: diameter {d}", p.name),
            }
        }
    }

    #[test]
    fn stats_fields_consistent() {
        let g = rmat(9, 3000, (0.57, 0.19, 0.19, 0.05), 1);
        let s = stats(&g);
        assert_eq!(s.vertices, g.n_vertices());
        assert_eq!(s.edges, g.n_edges());
        assert_eq!(s.max_out_degree, g.max_degree());
        assert!((s.avg_degree - g.avg_degree()).abs() < 1e-12);
        assert_eq!(s.max_in_degree, g.transpose().max_degree());
    }

    #[test]
    fn road_networks_mostly_connected_from_hub() {
        let g = road_network(48, 48, 7);
        let src = Preset::by_name("road_usa_s").unwrap().bfs_source(&g);
        let reached = bfs(&g, src).iter().filter(|&&d| d != UNREACHED).count();
        assert!(reached as f64 > 0.95 * g.n_vertices() as f64);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(estimate_diameter(&g), 0);
        assert_eq!(stats(&g).max_in_degree, 0);
    }
}
