//! The owner-grouped adjacency is, row by row, the stable partition of
//! the CSR row by `Partition::owner` — on scale-free, mesh and single-PE
//! inputs.

use atos_graph::generators::{rmat, road_network};
use atos_graph::grouped::OwnerGrouped;
use atos_graph::{Csr, Lookahead, Partition, VertexId};

/// For every vertex the grouped row is the stable partition of the CSR
/// row by owner: ascending owners, none empty, none repeated, and each
/// segment is exactly the row filtered to that owner, in row order.
fn assert_stable_partition(g: &Csr, p: &Partition) {
    let adj = OwnerGrouped::build(g, p);
    for v in 0..g.n_vertices() as VertexId {
        let row = g.neighbors(v);
        assert_eq!(adj.degree(v), row.len(), "degree of {v}");
        let mut seen = 0;
        let mut last_owner = None;
        for (owner, seg) in adj.segments(v) {
            assert!(last_owner < Some(owner), "owners ascend in row {v}");
            last_owner = Some(owner);
            assert!(!seg.is_empty(), "empty segment in row {v}");
            let want: Vec<VertexId> = row
                .iter()
                .copied()
                .filter(|&w| p.owner(w) == owner)
                .collect();
            assert_eq!(seg, want, "row {v}, owner {owner}");
            seen += seg.len();
        }
        assert_eq!(seen, row.len(), "row {v} is covered");
    }
}

#[test]
fn rows_are_stable_partitions_on_rmat() {
    let g = rmat(11, 30_000, (0.57, 0.19, 0.19, 0.05), 3);
    assert_stable_partition(&g, &Partition::random(g.n_vertices(), 8, 5));
    assert_stable_partition(&g, &Partition::bfs_grow(&g, 3, 1));
}

#[test]
fn rows_are_stable_partitions_on_a_road_network() {
    let g = road_network(40, 30, 2);
    assert_stable_partition(&g, &Partition::block(g.n_vertices(), 4));
    assert_stable_partition(&g, &Partition::random(g.n_vertices(), 64, 9));
}

#[test]
fn a_single_pe_keeps_every_row_whole() {
    let g = rmat(9, 4_000, (0.57, 0.19, 0.19, 0.05), 1);
    let p = Partition::single(g.n_vertices());
    assert_stable_partition(&g, &p);
    let adj = OwnerGrouped::build(&g, &p);
    for v in 0..g.n_vertices() as VertexId {
        let rows: Vec<_> = adj.segments(v).collect();
        match g.degree(v) {
            0 => assert!(rows.is_empty()),
            _ => assert_eq!(rows, [(0, g.neighbors(v))]),
        }
    }
}

#[test]
fn empty_graph_builds() {
    OwnerGrouped::build(&Csr::from_edges(0, &[]), &Partition::single(0));
}

#[test]
fn prefetch_never_panics() {
    // Vertex 3 is the last one and isolated: its first segment is one past
    // the end of `seg_owner`. Out-of-range ids are ignored too.
    let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
    let adj = OwnerGrouped::build(&g, &Partition::block(4, 2));
    let empty = OwnerGrouped::build(&Csr::from_edges(0, &[]), &Partition::single(0));
    for ahead in [Lookahead::Far, Lookahead::Near] {
        for v in [0, 3, 4, VertexId::MAX] {
            adj.prefetch(v, ahead);
        }
        empty.prefetch(0, ahead);
    }
}
