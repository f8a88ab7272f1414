//! Golden fingerprints of every generator's output.
//!
//! The constants were computed on the commit *before* the branch-free
//! R-MAT sampler and the counting-sort CSR build landed, so a pass here
//! means the rewritten construction layer returns byte-identical graphs.
//! A mismatch means the `SmallRng` stream, the draws-per-edge contract
//! or the CSR layout moved — all of which invalidate `results/`.
//!
//! To re-capture after an *intentional* change:
//! `cargo test -p atos-graph --test generator_golden -- --nocapture`
//! prints every `(name, fingerprint)` pair before asserting.

use atos_graph::csr::{Csr, VertexId};
use atos_graph::generators::{grid_2d, rmat, road_network, Preset, Scale};

/// FNV-1a over `(offsets, neighbors)`: the vertex count, then per row its
/// end offset (u64 LE) followed by its neighbor ids (u32 LE).
fn fingerprint(g: &Csr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(g.n_vertices() as u64).to_le_bytes());
    let mut end = 0u64;
    for v in 0..g.n_vertices() as VertexId {
        let row = g.neighbors(v);
        end += row.len() as u64;
        eat(&end.to_le_bytes());
        for &w in row {
            eat(&w.to_le_bytes());
        }
    }
    h
}

const LJ: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
const INDOCHINA: (f64, f64, f64, f64) = (0.7, 0.15, 0.1, 0.05);
const TWITTER: (f64, f64, f64, f64) = (0.6, 0.19, 0.16, 0.05);

#[test]
fn generators_match_parent_commit_fingerprints() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut add = |name: String, g: Csr| {
        let fp = fingerprint(&g);
        println!("    (\"{name}\", 0x{fp:016x}),");
        got.push((name, fp));
    };
    for p in Preset::ALL {
        add(format!("tiny/{}", p.name), p.build(Scale::Tiny));
    }
    for seed in 1..=3 {
        add(format!("rmat14/lj/{seed}"), rmat(14, 250_000, LJ, seed));
    }
    add("rmat14/indochina/1".into(), rmat(14, 250_000, INDOCHINA, 1));
    add("rmat14/twitter/1".into(), rmat(14, 250_000, TWITTER, 1));
    for seed in 1..=3 {
        add(format!("road200/{seed}"), road_network(200, 200, seed));
    }
    add("grid37x19".into(), grid_2d(37, 19));

    let golden: Vec<_> = GOLDEN.iter().map(|&(n, f)| (n.to_string(), f)).collect();
    assert_eq!(got, golden);
}

/// The mesh shapes a row-banded build or the highway merge can get wrong:
/// single rows and columns (one of the two keep draws never happens),
/// widths just past a power of two, 128×64 (the first size with a highway,
/// n/2048 = 4), and tall narrow and odd-sized meshes with a few highways.
/// Captured on the commit before the meshes wrote their rows directly,
/// when both still built an edge list for `Csr::from_edges`.
#[test]
fn mesh_shapes_match_parent_commit_fingerprints() {
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut add = |name: String, g: Csr| {
        let fp = fingerprint(&g);
        println!("    (\"{name}\", 0x{fp:016x}),");
        got.push((name, fp));
    };
    for (w, h) in [
        (1, 1),
        (2, 2),
        (1, 4097),
        (4097, 1),
        (128, 64),
        (257, 131),
        (3000, 17),
    ] {
        add(format!("road{w}x{h}/7"), road_network(w, h, 7));
    }
    for (w, h) in [(1, 9), (9, 1)] {
        add(format!("grid{w}x{h}"), grid_2d(w, h));
    }

    let golden: Vec<_> = MESH_GOLDEN
        .iter()
        .map(|&(n, f)| (n.to_string(), f))
        .collect();
    assert_eq!(got, golden);
}

const GOLDEN: &[(&str, u64)] = &[
    ("tiny/soc-LiveJournal1_s", 0xea5ead624dc2f50e),
    ("tiny/hollywood_2009_s", 0x4c4ea200cab15649),
    ("tiny/indochina_2004_s", 0x3cca23fb95be5b12),
    ("tiny/twitter_s", 0x87673cbdc61c5932),
    ("tiny/road_usa_s", 0x9cf651f5798a82c5),
    ("tiny/osm_eur_s", 0xafeff8cb5802b2fd),
    ("rmat14/lj/1", 0x964e3d047a3f27e7),
    ("rmat14/lj/2", 0xc3993d65eb93b313),
    ("rmat14/lj/3", 0x24b29ecdcc3aeb00),
    ("rmat14/indochina/1", 0xbd4861562547c772),
    ("rmat14/twitter/1", 0xeb093df6cd9b914e),
    ("road200/1", 0x322267ff19aecd58),
    ("road200/2", 0x927860c29553eb6c),
    ("road200/3", 0xaf899f30230f1f7d),
    ("grid37x19", 0x4cea58472240471b),
];

const MESH_GOLDEN: &[(&str, u64)] = &[
    ("road1x1/7", 0x392209f14dea4c24),
    ("road2x2/7", 0x21ebeed1a51462b1),
    ("road1x4097/7", 0xb900c4d965b8e5cf),
    ("road4097x1/7", 0x5b651f7dc6c49ef6),
    ("road128x64/7", 0xc75cd31700199f05),
    ("road257x131/7", 0x20748c28aa22ce7f),
    ("road3000x17/7", 0x76809d74f39bdd81),
    ("grid1x9", 0xa9b413c8f3f90004),
    ("grid9x1", 0xa9b413c8f3f90004),
];
