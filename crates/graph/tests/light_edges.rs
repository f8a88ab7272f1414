//! The light rows are, row by row, the CSR row zipped with its weights and
//! filtered to weight ≤ `delta`, in row order — for every `delta` from
//! "nothing is light" to "everything is".

use proptest::prelude::*;

use atos_graph::light::LightEdges;
use atos_graph::weights::EdgeWeights;
use atos_graph::{Csr, Lookahead, VertexId};

/// Vertices `0..N - 1` can have edges; vertex `N - 1` is the last one and
/// always isolated.
const N: usize = 49;

fn assert_filtered_rows(g: &Csr, w: &EdgeWeights, delta: u64) -> usize {
    let light = LightEdges::build(g, w, delta);
    let mut total = 0;
    for v in 0..g.n_vertices() as VertexId {
        let want: Vec<(VertexId, u32)> = g
            .neighbors(v)
            .iter()
            .zip(w.of(g, v))
            .map(|(&t, &wt)| (t, wt))
            .filter(|&(_, wt)| wt as u64 <= delta)
            .collect();
        assert_eq!(light.row(v), want, "row {v} at delta {delta}");
        assert_eq!(
            light.degree(v),
            want.len(),
            "degree of {v} at delta {delta}"
        );
        total += want.len();
    }
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rows_are_the_filtered_csr_rows(
        edges in proptest::collection::vec((0..N as VertexId - 1, 0..N as VertexId - 1), 0..300),
        max_weight in 1u32..70,
        seed in 0u64..50,
    ) {
        let g = Csr::from_edges(N, &edges);
        let w = EdgeWeights::random(&g, max_weight, seed);
        let max = w.max() as u64;
        prop_assert_eq!(assert_filtered_rows(&g, &w, 0), 0, "weights start at 1: none is light");
        let mut last = 0;
        for delta in [1, max.div_ceil(2), max, max + 1, u64::MAX] {
            let total = assert_filtered_rows(&g, &w, delta);
            prop_assert!(total >= last, "a wider delta keeps every light edge");
            last = total;
            if delta >= max {
                prop_assert_eq!(total, g.n_edges(), "everything is light: a full copy");
            }
        }
    }
}

#[test]
fn empty_graph_builds() {
    let g = Csr::from_edges(0, &[]);
    LightEdges::build(&g, &EdgeWeights::unit(&g), 1);
}

#[test]
fn prefetch_never_panics() {
    // Vertex 2 has no out-edges; vertex 3 is the last one and isolated, so
    // its row starts one past the end of the edges. Out-of-range ids are
    // ignored too.
    let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2)]);
    let light = LightEdges::build(&g, &EdgeWeights::unit(&g), 1);
    let none = LightEdges::build(&g, &EdgeWeights::unit(&g), 0);
    let empty_graph = Csr::from_edges(0, &[]);
    let empty = LightEdges::build(&empty_graph, &EdgeWeights::unit(&empty_graph), 1);
    for ahead in [Lookahead::Far, Lookahead::Near] {
        for v in [0, 2, 3, 4, VertexId::MAX] {
            light.prefetch(v, ahead);
            none.prefetch(v, ahead);
        }
        empty.prefetch(0, ahead);
    }
}
