//! Seeded graph generators and the Table I preset catalog.
//!
//! Two families mirror the paper's dataset split:
//!
//! * [`rmat`] — recursive-matrix (Kronecker) scale-free graphs; skew is
//!   controlled by the `(a, b, c, d)` quadrant probabilities. `a ≫ d`
//!   yields the heavy hubs of indochina-2004; balanced-ish settings give
//!   LiveJournal-like social graphs.
//! * [`grid_2d`] / [`road_network`] — degree-≈4 meshes with enormous
//!   diameter; `road_network` perturbs the grid with deletions and a few
//!   shortcut edges so degrees and local structure resemble road graphs.
//!
//! All generators are deterministic in their seed.

#![expect(
    unsafe_code,
    reason = "calls the R-MAT sampler's AVX-512F and AVX2 compilations where the CPU has them"
)]

use std::sync::Mutex;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::csr::{Csr, VertexId};
use crate::par::{alongside, build_threads, split_at_cuts, RowBuild, EDGES_PER_CHUNK};

/// Generator streams one chunk is sampled as: each lane owns a contiguous
/// sixteenth of the chunk and all of them step together, like one 16-wide
/// warp. A constant, not a setting: 4 and 8 lanes sampled little or no
/// faster than one serial stream, and 32 no faster than 16 on AVX-512 and
/// slower on AVX2 (DESIGN.md §6; runs in `results/measurements/pr-30.md`).
const LANES: usize = 16;

/// Integer thresholds `⌈a·2⁵³⌉, ⌈(a+b)·2⁵³⌉, ⌈(a+b+c)·2⁵³⌉` for
/// [`quadrant_bits`]. A unit-interval draw is `k·2⁻⁵³` with `k < 2⁵³`, and
/// both that product and the scaling of a probability by 2⁵³ are exact in
/// f64, so `r < p ⇔ k < ⌈p·2⁵³⌉`: the integer compare is the f64 compare.
fn quadrant_thresholds(a: f64, b: f64, c: f64) -> [u64; 3] {
    const TWO_53: f64 = (1u64 << 53) as f64;
    [a, a + b, a + b + c].map(|p| (p * TWO_53).ceil() as u64)
}

/// R-MAT source and target bit of the 53-bit draw `k`. With `ta ≤ tab ≤
/// tabc` the quadrant is the compare count `(k≥ta) + (k≥tab) + (k≥tabc)`:
/// its high bit is `k ≥ tab` and its low bit the three compares' parity.
///
/// Each compare is signed, as the sign bit of `t − 1 − k`: set exactly
/// when `k ≥ t`, and the subtraction cannot overflow because `k < 2⁵³`
/// and every threshold is below 2⁵⁴. The parity is one XOR of the three
/// differences and one shift. Every vector unit has 64-bit subtract, XOR
/// and shift; SSE2, the x86_64 baseline, has no 64-bit compare, and in
/// that form the plain compilation sampled slower than one serial stream.
#[inline(always)]
fn quadrant_bits(k: i64, [ta, tab, tabc]: [i64; 3]) -> (VertexId, VertexId) {
    let [a, ab, abc] = [ta, tab, tabc].map(|t| (t - 1 - k) as u64);
    ((ab >> 63) as VertexId, ((a ^ ab ^ abc) >> 63) as VertexId)
}

/// Generate a scale-free directed graph with `2^scale` vertices and
/// `n_edges` edges via R-MAT recursive quadrant sampling.
///
/// Consumes exactly one `SmallRng` draw per level per edge, edge `i`
/// taking draws `i·scale … (i+1)·scale − 1`; the committed goldens depend
/// on that stream position. Sampling runs on every host core: threads
/// claim `EDGES_PER_CHUNK`-edge chunks in order and reach each chunk's
/// first draw with [`SmallRng::advance`], so the graph does not depend on
/// the thread count or on which thread sampled what. An input of one
/// chunk or less stays on the calling thread, where a spawn and a jump
/// would cost more than the draws they take over. The CSR build,
/// [`Csr::from_edges`], follows the same thread rule.
///
/// Each chunk is sampled as [`LANES`] generator streams stepped in
/// lock-step ([`sample_edges`]), compiled for the widest vector unit the
/// host has: AVX-512F, else AVX2, else plain code, the only path off
/// x86_64. The platform picks it once per call; no setting does. Every
/// compilation gives every edge the same draws, so the graph does not
/// depend on the host's vector unit either.
///
/// # Panics
/// If `scale > 31` (vertex ids would not fit [`VertexId`]), a probability
/// is negative or not finite, or `a + b + c` exceeds 1.
pub fn rmat(scale: u32, n_edges: usize, probs: (f64, f64, f64, f64), seed: u64) -> Csr {
    rmat_on_threads(scale, n_edges, probs, seed, build_threads(n_edges))
}

/// [`rmat`] sampled on `threads` threads (the caller's among them, so 0
/// and 1 both mean the caller alone).
pub(crate) fn rmat_on_threads(
    scale: u32,
    n_edges: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
    threads: usize,
) -> Csr {
    let (a, b, c, d) = probs;
    assert!(
        scale <= 31,
        "rmat scale {scale} exceeds 31: 1 << scale must fit VertexId"
    );
    assert!(
        [a, b, c, d].iter().all(|p| p.is_finite() && *p >= 0.0),
        "quadrant probabilities must be finite and non-negative, got {probs:?}"
    );
    assert!(a + b + c < 1.0 + 1e-9, "quadrant probabilities exceed 1");
    let thresholds = quadrant_thresholds(a, b, c);
    let (_, sample_chunk) = host_samplers()
        .next()
        .expect("plain code runs on every host");
    let seeded = SmallRng::seed_from_u64(seed);
    let mut edges = vec![(0, 0); n_edges];
    // Chunks are claimed, not dealt: a thread on a contended core takes
    // fewer of them instead of holding the others up.
    let chunks = Mutex::new(edges.chunks_mut(EDGES_PER_CHUNK).enumerate());
    let sample = || {
        // `rng` sits at draw `at·scale`; claims only ever move forward.
        let (mut rng, mut at) = (seeded.clone(), 0);
        loop {
            let Some((i, out)) = chunks.lock().unwrap_or_else(|e| e.into_inner()).next() else {
                return;
            };
            let start = i * EDGES_PER_CHUNK;
            rng.advance((start - at) as u64 * u64::from(scale));
            // SAFETY: `host_samplers` yields only compilations whose
            // target features this host has.
            unsafe { sample_chunk(out, &mut rng, scale, thresholds) };
            at = start + out.len();
        }
    };
    alongside(1..threads, |_| sample(), sample);
    Csr::from_edges(1 << scale, &edges)
}

/// Fill `out` with consecutive R-MAT edges drawn from `rng`, and leave
/// `rng` after the last of their draws.
///
/// The edges are cut into [`LANES`] contiguous runs of
/// `m = out.len() / LANES`, and the last run also takes the
/// `out.len() mod LANES` edges after them. Lane `l`'s generator starts at
/// its run's first draw, `l·m·scale` ([`SmallRng::lanes`]). The lanes step
/// together, one `[u64; LANES]` word of draws per level, and each writes
/// its own run. The last lane then finishes the tail on its own and is
/// handed back as `rng`. Every edge thus gets exactly the draws a serial
/// walk would give it, whatever the compilation.
#[inline(always)]
fn sample_edges(
    out: &mut [(VertexId, VertexId)],
    rng: &mut SmallRng,
    scale: u32,
    thresholds: [u64; 3],
) {
    let run = out.len() / LANES;
    let thresholds = thresholds.map(|t| t as i64);
    let mut lanes = rng.lanes::<LANES>(run as u64 * u64::from(scale));
    let (runs, tail) = out.split_at_mut(run * LANES);
    for j in 0..run {
        let (mut u, mut v) = ([0; LANES], [0; LANES]);
        for _ in 0..scale {
            let draws = lanes.next_u64s();
            for l in 0..LANES {
                let (ub, vb) = quadrant_bits((draws[l] >> 11) as i64, thresholds);
                u[l] = u[l] << 1 | ub;
                v[l] = v[l] << 1 | vb;
            }
        }
        for l in 0..LANES {
            runs[l * run + j] = (u[l], v[l]);
        }
    }
    *rng = lanes.lane(LANES - 1);
    for e in tail {
        let (mut u, mut v): (VertexId, VertexId) = (0, 0);
        for _ in 0..scale {
            let (ub, vb) = quadrant_bits((rng.next_u64() >> 11) as i64, thresholds);
            u = u << 1 | ub;
            v = v << 1 | vb;
        }
        *e = (u, v);
    }
}

/// One compilation of [`sample_edges`].
///
/// # Safety
/// The host must have the target features the function was compiled
/// for; [`host_samplers`] hands out only such.
type Sampler = unsafe fn(&mut [(VertexId, VertexId)], &mut SmallRng, u32, [u64; 3]);

/// The compilations of [`sample_edges`] this host runs, widest first, each
/// with its name: AVX-512F and AVX2 where the CPU reports them, then plain
/// code, which every host runs and is the only one off x86_64.
fn host_samplers() -> impl Iterator<Item = (&'static str, Sampler)> {
    #[cfg(target_arch = "x86_64")]
    let wide: [(&str, Sampler, bool); 2] = [
        (
            "avx512f",
            x86::sample_edges_avx512f,
            std::is_x86_feature_detected!("avx512f"),
        ),
        (
            "avx2",
            x86::sample_edges_avx2,
            std::is_x86_feature_detected!("avx2"),
        ),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let wide: [(&str, Sampler, bool); 0] = [];
    wide.into_iter()
        .filter_map(|(name, sample, here)| here.then_some((name, sample)))
        .chain([("plain", sample_edges as Sampler)])
}

/// [`sample_edges`] compiled with a wider vector unit enabled: the same
/// body, so the same draws per edge.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{sample_edges, SmallRng, VertexId};

    /// [`sample_edges`] on 512-bit registers: one state word of all 16
    /// lanes per register.
    ///
    /// # Safety
    /// The host must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn sample_edges_avx512f(
        out: &mut [(VertexId, VertexId)],
        rng: &mut SmallRng,
        scale: u32,
        thresholds: [u64; 3],
    ) {
        sample_edges(out, rng, scale, thresholds)
    }

    /// [`sample_edges`] on 256-bit registers.
    ///
    /// # Safety
    /// The host must have AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sample_edges_avx2(
        out: &mut [(VertexId, VertexId)],
        rng: &mut SmallRng,
        scale: u32,
        thresholds: [u64; 3],
    ) {
        sample_edges(out, rng, scale, thresholds)
    }
}

/// 4-connected `w × h` grid, bidirectional edges. Diameter = `w + h - 2`.
///
/// Vertex `(x, y)` is `y·w + x`. The rows are written directly, on every
/// host core (the `rmat` thread rule), each thread a band of whole grid
/// rows.
///
/// # Panics
/// If `w · h` is `u32::MAX` or more: the ids would not fit [`VertexId`].
pub fn grid_2d(w: usize, h: usize) -> Csr {
    grid_2d_on_threads(w, h, build_threads(4 * mesh_vertices(w, h)))
}

/// [`grid_2d`] built on `threads` threads (the caller's among them, so 0
/// and 1 both mean the caller alone).
pub(crate) fn grid_2d_on_threads(w: usize, h: usize, threads: usize) -> Csr {
    mesh(w, h, None, threads)
}

/// Road-network-like mesh: a `w × h` grid with about 12 % of its edges
/// deleted and a few long-range "highway" shortcuts added, keeping the
/// average degree ≈ 3.5 and the diameter in the thousands (road_usa /
/// osm-eur structure).
///
/// The graph is a contract of the `SmallRng` stream: vertex `(x, y)`,
/// in row-major order, takes one draw for its right edge and then one for
/// its down edge, except that row 0's right edges and column 0's down
/// edges are never dropped and take none. The `n / 2048` highways draw
/// after the last row. The rows are written directly, on every host core,
/// each thread a band of whole grid rows reached with
/// [`SmallRng::advance`], so the graph does not depend on the
/// thread count.
///
/// # Panics
/// If `w · h` is `u32::MAX` or more: the ids would not fit [`VertexId`].
pub fn road_network(w: usize, h: usize, seed: u64) -> Csr {
    road_network_on_threads(w, h, seed, build_threads(4 * mesh_vertices(w, h)))
}

/// [`road_network`] built on `threads` threads (the caller's among them,
/// so 0 and 1 both mean the caller alone).
pub(crate) fn road_network_on_threads(w: usize, h: usize, seed: u64, threads: usize) -> Csr {
    mesh(w, h, Some(seed), threads)
}

/// Share of a road network's grid edges a keep draw drops.
const DROP: f64 = 0.12;

/// `w · h`, the vertex count of a `w × h` mesh.
///
/// # Panics
/// If it is `u32::MAX` or more.
fn mesh_vertices(w: usize, h: usize) -> usize {
    w.checked_mul(h)
        .filter(|&n| n < u32::MAX as usize)
        .unwrap_or_else(|| {
            panic!("a {w} × {h} mesh needs u32::MAX vertex ids or more: VertexId would wrap")
        })
}

/// The rows of a `w × h` mesh, written straight from its keep bits: the
/// draws of a road network seeded with `seed`, or, without one, the full
/// grid. No edge list is built.
///
/// A [`RowBuild`] over bands of whole grid rows, one per thread. Pass 1
/// draws each vertex's two keep bits ([`keep_bits`]) into the low bits of
/// its slot in `offsets` and counts its row: its kept up, left, right and
/// down edges merged with its highways ([`merge_row`]). Pass 2 writes the
/// rows and clears the bits. A band reaches its first draw with
/// [`SmallRng::advance`], and reads the up bits of its first row from a
/// second generator that draws the row above again, so no band reads
/// another's slots. Each row is sorted and free of duplicates, as
/// [`Csr::from_edges`] made it from the edge list.
fn mesh(w: usize, h: usize, seed: Option<u64>, threads: usize) -> Csr {
    let n = mesh_vertices(w, h);
    if n == 0 {
        return Csr::from_rows(vec![0], Vec::new());
    }
    let seeded = seed.map(SmallRng::seed_from_u64);
    let highways = seeded
        .clone()
        .map_or_else(Vec::new, |rng| highways(w, h, rng));
    // A generator at grid row `y`'s first keep draw: the rows above it
    // drew (y − 1)(w − 1) right and min(y, h − 1)(w − 1) down bits.
    let at_row = |y: usize| {
        seeded.clone().map(|mut rng| {
            rng.advance(((y.saturating_sub(1) + y.min(h - 1)) * (w - 1)) as u64);
            rng
        })
    };
    // Vertex `first + i`'s four grid neighbours, ascending, and which of
    // their edges were kept, from the keep bits in `slots`, those of a band
    // starting at grid row `y0` at vertex `first`. `above` draws the row
    // above the band again, one vertex a call, for its down bits.
    let grid = |slots: &[u32],
                i: usize,
                (x, y, y0): (usize, usize, usize),
                above: &mut Option<SmallRng>| {
        let up = y > 0
            && if y == y0 {
                keep_bits(above, x, y - 1, w, h) & 2 != 0
            } else {
                slots[i - w] & 2 != 0
            };
        let left = x > 0 && slots[i - 1] & 1 != 0;
        let (v, w) = ((y * w + x) as VertexId, w as VertexId);
        let kept = [up, left, slots[i] & 1 != 0, slots[i] & 2 != 0];
        let row = [
            v.wrapping_sub(w),
            v.wrapping_sub(1),
            v + 1,
            v.wrapping_add(w),
        ];
        (row, kept)
    };
    let from = |first: usize| &highways[highways.partition_point(|&(u, _)| (u as usize) < first)..];

    let bands = threads.clamp(1, h);
    let cuts = (0..=bands).map(|k| h * k / bands * w).collect();
    let build = RowBuild::count(cuts, 2, |first, slots: &mut [u32]| {
        let y0 = first / w;
        let (mut rng, mut above) = (at_row(y0), at_row(y0.saturating_sub(1)));
        let mut rest = from(first);
        let mut i = 0;
        for y in y0..y0 + slots.len() / w {
            for x in 0..w {
                slots[i] = keep_bits(&mut rng, x, y, w, h);
                let (row, kept) = grid(slots, i, (x, y, y0), &mut above);
                let mut len = kept.iter().filter(|&&k| k).count();
                let mine = take_highways(&mut rest, first + i);
                if !mine.is_empty() {
                    len = 0;
                    merge_row(row, kept, mine, |_| len += 1);
                }
                slots[i] |= (len as u32) << 2;
                i += 1;
            }
        }
    });
    let mut neighbors = vec![0 as VertexId; build.len()];
    let parts = split_at_cuts(&mut neighbors, build.bases());
    let offsets = build.write(parts, |first, slots, out| {
        let y0 = first / w;
        let mut above = at_row(y0.saturating_sub(1));
        let mut rest = from(first);
        let (mut i, mut at) = (0, 0);
        for y in y0..y0 + slots.len() / w {
            for x in 0..w {
                let (row, kept) = grid(slots, i, (x, y, y0), &mut above);
                merge_row(row, kept, take_highways(&mut rest, first + i), |t| {
                    out[at] = t;
                    at += 1;
                });
                i += 1;
            }
            // The row above is read for the last time: clear its bits.
            if y > y0 {
                for slot in &mut slots[i - 2 * w..i - w] {
                    *slot >>= 2;
                }
            }
        }
        let last_row = slots.len().saturating_sub(w);
        for slot in &mut slots[last_row..] {
            *slot >>= 2;
        }
    });
    Csr::from_rows(offsets, neighbors)
}

/// The highways leaving vertex `v`, taken off the front of `rest`.
fn take_highways<'a>(
    rest: &mut &'a [(VertexId, VertexId)],
    v: usize,
) -> &'a [(VertexId, VertexId)] {
    let k = rest.iter().take_while(|&&(u, _)| u as usize == v).count();
    let (mine, after) = rest.split_at(k);
    *rest = after;
    mine
}

/// Vertex `(x, y)`'s right (bit 0) and down (bit 1) edge, kept or not,
/// taking their draws from `rng` in stream order: a right edge's before a
/// down edge's. Row 0's right edges and column 0's down edges are never
/// dropped, so the mesh stays connected; without a generator none is.
#[inline(always)]
fn keep_bits(rng: &mut Option<SmallRng>, x: usize, y: usize, w: usize, h: usize) -> u32 {
    let mut keep = |spine: bool| spine || rng.as_mut().is_none_or(|rng| rng.gen::<f64>() > DROP);
    let right = x + 1 < w && keep(y == 0);
    let down = y + 1 < h && keep(x == 0);
    right as u32 | (down as u32) << 1
}

/// A road network's highways, both directions of each, sorted and
/// deduplicated: `n / 2048` shortcuts of bounded length, which perturb
/// shortest paths without collapsing the diameter. `rng` is the seeded
/// generator; the highways draw after the mesh's 2(h − 1)(w − 1) keep
/// draws.
fn highways(w: usize, h: usize, mut rng: SmallRng) -> Vec<(VertexId, VertexId)> {
    rng.advance((2 * (h - 1) * (w - 1)) as u64);
    let at = |x: usize, y: usize| (y * w + x) as VertexId;
    let count = w * h / 2048;
    let mut pairs = Vec::with_capacity(2 * count);
    for _ in 0..count {
        let x = rng.gen_range(0..w);
        let y = rng.gen_range(0..h);
        let dx = rng.gen_range(0..(w / 16).max(2));
        let dy = rng.gen_range(0..(h / 16).max(2));
        let (a, b) = (at(x, y), at((x + dx).min(w - 1), (y + dy).min(h - 1)));
        pairs.extend([(a, b), (b, a)]);
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// One mesh row: the `grid` targets that were `kept` (ascending, distinct)
/// merged with the targets of `highways` (one source's pairs, ascending
/// and distinct), a target in both put once.
#[inline(always)]
fn merge_row(
    grid: [VertexId; 4],
    kept: [bool; 4],
    highways: &[(VertexId, VertexId)],
    mut put: impl FnMut(VertexId),
) {
    if highways.is_empty() {
        for (t, k) in grid.into_iter().zip(kept) {
            if k {
                put(t);
            }
        }
        return;
    }
    let mut extra = highways.iter().map(|&(_, t)| t).peekable();
    for (t, _) in grid.into_iter().zip(kept).filter(|&(_, k)| k) {
        while let Some(h) = extra.next_if(|&h| h < t) {
            put(h);
        }
        extra.next_if_eq(&t);
        put(t);
    }
    extra.for_each(put);
}

/// Structural family of a dataset, Table I's "type" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Power-law degrees, low diameter (social/web graphs).
    ScaleFree,
    /// Degree ≈ 2–4, huge diameter (road networks).
    MeshLike,
}

impl GraphKind {
    /// Table suffix used in the paper's dataset names (`s` / `m`).
    pub fn suffix(self) -> &'static str {
        match self {
            GraphKind::ScaleFree => "s",
            GraphKind::MeshLike => "m",
        }
    }
}

/// Generation size: `Full` for benchmark tables, `Tiny` for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The DESIGN.md §6 sizes used by every table/figure binary.
    Full,
    /// Orders-of-magnitude smaller, same structure; for tests.
    Tiny,
}

/// A scaled stand-in for one Table I dataset.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    /// Short name used in table output.
    pub name: &'static str,
    /// The paper dataset this preset mirrors.
    pub mirrors: &'static str,
    /// Structural family.
    pub kind: GraphKind,
}

impl Preset {
    /// The six Table I stand-ins, in the paper's row order.
    pub const ALL: [Preset; 6] = [
        Preset {
            name: "soc-LiveJournal1_s",
            mirrors: "soc-LiveJournal1",
            kind: GraphKind::ScaleFree,
        },
        Preset {
            name: "hollywood_2009_s",
            mirrors: "hollywood_2009",
            kind: GraphKind::ScaleFree,
        },
        Preset {
            name: "indochina_2004_s",
            mirrors: "indochina_2004",
            kind: GraphKind::ScaleFree,
        },
        Preset {
            name: "twitter_s",
            mirrors: "twitter50",
            kind: GraphKind::ScaleFree,
        },
        Preset {
            name: "road_usa_s",
            mirrors: "road_usa",
            kind: GraphKind::MeshLike,
        },
        Preset {
            name: "osm_eur_s",
            mirrors: "osm_eur",
            kind: GraphKind::MeshLike,
        },
    ];

    /// The four strong-scaling datasets used in Figures 5, 8, and 9.
    pub const SCALING: [&'static str; 4] =
        ["soc-LiveJournal1_s", "twitter_s", "road_usa_s", "osm_eur_s"];

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<Preset> {
        Preset::ALL.iter().copied().find(|p| p.name == name)
    }

    /// Build the graph. Deterministic per preset and scale.
    pub fn build(&self, scale: Scale) -> Csr {
        match (self.name, scale) {
            // Social graph: moderately skewed R-MAT.
            ("soc-LiveJournal1_s", Scale::Full) => {
                rmat(18, 4_300_000, (0.57, 0.19, 0.19, 0.05), 11)
            }
            ("soc-LiveJournal1_s", Scale::Tiny) => rmat(10, 12_000, (0.57, 0.19, 0.19, 0.05), 11),
            // Dense collaboration graph: high average degree.
            ("hollywood_2009_s", Scale::Full) => rmat(16, 7_000_000, (0.55, 0.2, 0.2, 0.05), 22),
            ("hollywood_2009_s", Scale::Tiny) => rmat(9, 30_000, (0.55, 0.2, 0.2, 0.05), 22),
            // Web graph: extreme hub skew (max in-degree 256 k in Table I).
            ("indochina_2004_s", Scale::Full) => rmat(19, 3_600_000, (0.7, 0.15, 0.1, 0.05), 33),
            ("indochina_2004_s", Scale::Tiny) => rmat(10, 10_000, (0.7, 0.15, 0.1, 0.05), 33),
            // The big one.
            ("twitter_s", Scale::Full) => rmat(19, 16_000_000, (0.6, 0.19, 0.16, 0.05), 44),
            ("twitter_s", Scale::Tiny) => rmat(11, 60_000, (0.6, 0.19, 0.16, 0.05), 44),
            ("road_usa_s", Scale::Full) => road_network(707, 707, 55),
            ("road_usa_s", Scale::Tiny) => road_network(48, 48, 55),
            ("osm_eur_s", Scale::Full) => road_network(1000, 1000, 66),
            ("osm_eur_s", Scale::Tiny) => road_network(64, 64, 66),
            (other, _) => panic!("unknown preset {other}"),
        }
    }

    /// A sensible BFS source: the highest-out-degree vertex, which is in
    /// the giant component for every preset.
    pub fn bfs_source(&self, g: &Csr) -> VertexId {
        (0..g.n_vertices() as VertexId)
            .max_by_key(|&v| g.degree(v))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-threshold quadrant pick, kept as the oracle: the f64
    /// compare chain on `r = k·2⁻⁵³`, exactly as `gen::<f64>()` forms it.
    fn quadrant_f64(k: u64, a: f64, b: f64, c: f64) -> VertexId {
        let r = k as f64 * (1.0 / (1u64 << 53) as f64);
        if r < a {
            0
        } else if r < a + b {
            1
        } else if r < a + b + c {
            2
        } else {
            3
        }
    }

    /// Every valid draw within one of each threshold, plus both ends.
    fn boundary_draws(thresholds: [u64; 3]) -> Vec<u64> {
        let max = (1u64 << 53) - 1;
        let mut ks = vec![0, max];
        for t in thresholds {
            ks.extend([t.saturating_sub(1), t, t.saturating_add(1)].map(|k| k.min(max)));
        }
        ks
    }

    /// The pre-lane quadrant pick, kept for the oracle: a sum of compares.
    fn quadrant(k: u64, [ta, tab, tabc]: [u64; 3]) -> VertexId {
        (k >= ta) as VertexId + (k >= tab) as VertexId + (k >= tabc) as VertexId
    }

    /// The pre-lane sampler, kept as the oracle: edge after edge, one
    /// draw per level from the one generator.
    fn sample_edges_serial(
        out: &mut [(VertexId, VertexId)],
        rng: &mut SmallRng,
        scale: u32,
        thresholds: [u64; 3],
    ) {
        for e in out {
            let (mut u, mut v): (VertexId, VertexId) = (0, 0);
            for _ in 0..scale {
                let q = quadrant(rng.next_u64() >> 11, thresholds);
                u = (u << 1) | (q >> 1);
                v = (v << 1) | (q & 1);
            }
            *e = (u, v);
        }
    }

    fn assert_quadrants_agree(ks: &[u64], a: f64, b: f64, c: f64) {
        let t = quadrant_thresholds(a, b, c);
        for &k in ks {
            let q = quadrant_f64(k, a, b, c);
            assert_eq!(quadrant(k, t), q, "k={k} probs=({a},{b},{c})");
            let (u, v) = quadrant_bits(k as i64, t.map(|t| t as i64));
            assert_eq!(u << 1 | v, q, "bits: k={k} probs=({a},{b},{c})");
        }
    }

    #[test]
    fn every_sampler_this_host_runs_matches_the_serial_oracle() {
        let mut ran = Vec::new();
        for (name, sample) in host_samplers() {
            // A preset's exact thresholds, and inexact ones (below 0.5).
            for (a, b, c) in [(0.57, 0.19, 0.19), (0.3, 0.1, 0.05)] {
                let thresholds = quadrant_thresholds(a, b, c);
                for (scale, len) in [0, 1, 18, 31]
                    .into_iter()
                    .flat_map(|scale| [0, 1, 15, 16, 17, 4_099, 65_536].map(|len| (scale, len)))
                {
                    let seeded = SmallRng::seed_from_u64(u64::from(scale) << 20 | len as u64);
                    let (mut want_rng, mut got_rng) = (seeded.clone(), seeded);
                    let mut want = vec![(0, 0); len];
                    sample_edges_serial(&mut want, &mut want_rng, scale, thresholds);
                    let mut got = vec![(VertexId::MAX, VertexId::MAX); len];
                    // SAFETY: `host_samplers` yields only compilations
                    // whose target features this host has.
                    unsafe { sample(&mut got, &mut got_rng, scale, thresholds) };
                    let at = format!("{name}: scale={scale} len={len}");
                    assert!(got == want, "{at}: edges differ from the oracle");
                    assert_eq!(
                        got_rng.next_u64(),
                        want_rng.next_u64(),
                        "{at}: rng left elsewhere"
                    );
                }
            }
            ran.push(name);
        }
        assert_eq!(ran.last(), Some(&"plain"));
        println!("sampler compilations checked against the oracle: {ran:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary `(a, b, c)` with `a + b + c ≤ 1 + 1e-9` — drawn at
        /// full 53-bit resolution so thresholds land on odd integers —
        /// on random draws and on `k ∈ {t−1, t, t+1}` for each threshold.
        #[test]
        fn threshold_quadrant_equals_f64_chain(
            parts in (0u64..1 << 53, 0u64..1 << 53, 0u64..1 << 53, 1u64..1 << 53),
            draws in proptest::collection::vec(0u64..1 << 53, 64..65),
        ) {
            let (wa, wb, wc, wd) = parts;
            let total = (wa + wb + wc + wd) as f64;
            let (a, b, c) = (wa as f64 / total, wb as f64 / total, wc as f64 / total);
            prop_assert!(a + b + c < 1.0 + 1e-9);
            let mut ks = boundary_draws(quadrant_thresholds(a, b, c));
            ks.extend(draws);
            assert_quadrants_agree(&ks, a, b, c);
        }
    }

    #[test]
    fn threshold_quadrant_edge_probabilities() {
        let two_53 = (1u64 << 53) as f64;
        for (a, b, c) in [
            // Preset probabilities: every f64 in [0.5, 1) is a multiple of
            // 2⁻⁵³, so these thresholds are exact integers...
            (0.57, 0.19, 0.19),
            (0.7, 0.15, 0.1),
            // ...and below 0.5 they are not: the ceiling matters here.
            (0.3, 0.1, 0.05),
            (1e-3, 1e-3, 1e-3),
            // A zero-probability quadrant collapses two thresholds.
            (0.0, 0.5, 0.25),
            (0.4, 0.0, 0.3),
            (0.4, 0.3, 0.0),
            // a + b + c ≥ 1: last threshold ≥ 2⁵³, quadrant d unreachable.
            (0.5, 0.25, 0.25),
            (0.6, 0.3, 0.1 + 1e-10),
            (1.0, 0.0, 0.0),
            // Exactly representable boundaries, and one ulp either side.
            (0.25, 0.25, 0.25),
            (0.25 + f64::EPSILON, 0.25, 0.25 - f64::EPSILON),
            (3.0 / two_53, 1.0 / two_53, 0.5),
        ] {
            let t = quadrant_thresholds(a, b, c);
            assert_quadrants_agree(&boundary_draws(t), a, b, c);
            if a + b + c >= 1.0 {
                assert!(t[2] >= 1 << 53, "d must be unreachable for ({a},{b},{c})");
            }
        }
        // Zero-probability quadrants are never picked.
        let none_b = quadrant_thresholds(0.4, 0.0, 0.3);
        let none_a = quadrant_thresholds(0.0, 0.5, 0.25);
        for k in boundary_draws(none_b) {
            assert_ne!(quadrant(k, none_b), 1);
        }
        for k in boundary_draws(none_a) {
            assert_ne!(quadrant(k, none_a), 0);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 31")]
    fn rmat_rejects_scale_that_overflows_vertex_id() {
        rmat(32, 1, (0.25, 0.25, 0.25, 0.25), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rmat_rejects_negative_probability() {
        rmat(4, 1, (0.5, -0.1, 0.3, 0.3), 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rmat_rejects_nan_probability() {
        rmat(4, 1, (f64::NAN, 0.1, 0.3, 0.3), 0);
    }

    #[test]
    fn rmat_is_deterministic() {
        let a = rmat(8, 1000, (0.57, 0.19, 0.19, 0.05), 7);
        let b = rmat(8, 1000, (0.57, 0.19, 0.19, 0.05), 7);
        assert_eq!(a, b);
        let c = rmat(8, 1000, (0.57, 0.19, 0.19, 0.05), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(12, 40_000, (0.6, 0.19, 0.16, 0.05), 1);
        // Scale-free: max degree far above average.
        assert!(g.max_degree() as f64 > 10.0 * g.avg_degree());
    }

    #[test]
    fn grid_dimensions_and_degrees() {
        let g = grid_2d(5, 4);
        assert_eq!(g.n_vertices(), 20);
        // Interior vertex has degree 4, corner 2.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(6), 4);
        // Undirected: every edge has its reverse.
        for (u, v) in g.edges() {
            assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn road_network_is_mesh_like() {
        let g = road_network(48, 48, 3);
        let avg = g.avg_degree();
        assert!(avg > 2.0 && avg < 5.0, "avg degree {avg}");
        assert!(g.max_degree() <= 12);
    }

    /// The benchmark's mesh holds 4 B per row-index entry and 4 B per
    /// edge, each array exactly: an 8-byte row index fails here.
    #[test]
    fn road_network_bytes_are_four_per_entry() {
        let g = road_network(1000, 1000, 1);
        let (n, m) = (g.n_vertices(), g.n_edges());
        assert_eq!(n, 1_000_000);
        assert_eq!(g.bytes(), 4 * (n + 1) + 4 * m);
    }

    #[test]
    fn road_network_row0_col0_connected_spine() {
        let g = road_network(32, 32, 9);
        // Row 0 keeps all horizontal edges, column 0 all vertical ones.
        for x in 0..31u32 {
            assert!(g.neighbors(x).contains(&(x + 1)));
        }
        for y in 0..31u32 {
            assert!(g.neighbors(y * 32).contains(&((y + 1) * 32)));
        }
    }

    #[test]
    fn all_presets_build_tiny() {
        for p in Preset::ALL {
            let g = p.build(Scale::Tiny);
            assert!(g.n_vertices() > 0, "{}", p.name);
            assert!(g.n_edges() > 0, "{}", p.name);
            let src = p.bfs_source(&g);
            assert!(g.degree(src) > 0);
        }
    }

    #[test]
    fn preset_kinds_match_structure() {
        for p in Preset::ALL {
            let g = p.build(Scale::Tiny);
            match p.kind {
                GraphKind::ScaleFree => {
                    assert!(g.max_degree() as f64 > 5.0 * g.avg_degree(), "{}", p.name)
                }
                GraphKind::MeshLike => assert!(g.max_degree() <= 12, "{}", p.name),
            }
        }
    }

    #[test]
    fn preset_lookup() {
        assert_eq!(Preset::by_name("twitter_s").unwrap().mirrors, "twitter50");
        assert!(Preset::by_name("nope").is_none());
        assert_eq!(GraphKind::ScaleFree.suffix(), "s");
        assert_eq!(GraphKind::MeshLike.suffix(), "m");
    }

    #[test]
    fn rmat_is_independent_of_the_thread_count() {
        let probs = (0.57, 0.19, 0.19, 0.05);
        for n_edges in [0, 1, 5, 250_001] {
            let one = rmat_on_threads(10, n_edges, probs, 5, 1);
            assert_eq!(one.n_vertices(), 1 << 10);
            for threads in [2, 3, 7] {
                assert_eq!(
                    rmat_on_threads(10, n_edges, probs, 5, threads),
                    one,
                    "n_edges={n_edges} threads={threads}"
                );
            }
        }
        // More threads than edges: all but one claim nothing.
        assert_eq!(
            rmat_on_threads(6, 3, probs, 8, 64),
            rmat_on_threads(6, 3, probs, 8, 1)
        );
    }

    /// The edge-list `grid_2d`, kept as the oracle: every edge pushed in
    /// both directions, then `Csr::from_edges`.
    fn grid_2d_oracle(w: usize, h: usize) -> Csr {
        let n = w * h;
        let at = |x: usize, y: usize| (y * w + x) as VertexId;
        let mut edges = Vec::with_capacity(4 * n);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((at(x, y), at(x + 1, y)));
                    edges.push((at(x + 1, y), at(x, y)));
                }
                if y + 1 < h {
                    edges.push((at(x, y), at(x, y + 1)));
                    edges.push((at(x, y + 1), at(x, y)));
                }
            }
        }
        Csr::from_edges(n, &edges)
    }

    /// The edge-list `road_network`, kept as the oracle: every kept edge
    /// and every highway pushed in both directions, in draw order, then
    /// `Csr::from_edges`.
    fn road_network_oracle(w: usize, h: usize, seed: u64) -> Csr {
        let n = w * h;
        let at = |x: usize, y: usize| (y * w + x) as VertexId;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges = Vec::with_capacity(4 * n);
        let push_bidir = |edges: &mut Vec<(VertexId, VertexId)>, u: VertexId, v: VertexId| {
            edges.push((u, v));
            edges.push((v, u));
        };
        for y in 0..h {
            for x in 0..w {
                // Delete ~12% of grid edges to break the regular lattice (but
                // keep row 0 / column 0 intact so the graph stays connected).
                if x + 1 < w && (y == 0 || rng.gen::<f64>() > 0.12) {
                    push_bidir(&mut edges, at(x, y), at(x + 1, y));
                }
                if y + 1 < h && (x == 0 || rng.gen::<f64>() > 0.12) {
                    push_bidir(&mut edges, at(x, y), at(x, y + 1));
                }
            }
        }
        // Sparse highways: n/2048 shortcuts of bounded length, which perturb
        // shortest paths without collapsing the diameter.
        for _ in 0..(n / 2048) {
            let x = rng.gen_range(0..w);
            let y = rng.gen_range(0..h);
            let dx = rng.gen_range(0..(w / 16).max(2));
            let dy = rng.gen_range(0..(h / 16).max(2));
            let x2 = (x + dx).min(w - 1);
            let y2 = (y + dy).min(h - 1);
            push_bidir(&mut edges, at(x, y), at(x2, y2));
        }
        Csr::from_edges(n, &edges)
    }

    /// Both meshes equal their oracles on every thread count here: one
    /// band per grid row and more (64, clamped to `h`), counts that leave
    /// uneven bands (3, 7), and the caller alone (1).
    fn assert_meshes_match_oracles(w: usize, h: usize, seed: u64) {
        let (grid, road) = (grid_2d_oracle(w, h), road_network_oracle(w, h, seed));
        assert_eq!(grid_2d(w, h), grid, "grid {w}x{h}");
        assert_eq!(road_network(w, h, seed), road, "road {w}x{h} seed={seed}");
        for threads in [1, 2, 3, 7, 64] {
            assert_eq!(
                grid_2d_on_threads(w, h, threads),
                grid,
                "grid {w}x{h} threads={threads}"
            );
            let got = road_network_on_threads(w, h, seed, threads);
            assert_eq!(got, road, "road {w}x{h} seed={seed} threads={threads}");
        }
    }

    #[test]
    fn meshes_on_threads_match_the_edge_list_oracles() {
        // Degenerate shapes; a single row or column, where one of the two
        // keep draws never happens; the first size with highways
        // (n/2048 = 4) and larger ones, where they collide with grid edges
        // and each other; and widths and heights that cut into uneven
        // bands.
        for (w, h) in [
            (0, 0),
            (0, 5),
            (5, 0),
            (1, 1),
            (2, 2),
            (1, 97),
            (97, 1),
            (128, 64),
            (257, 131),
            (3000, 17),
            (17, 3000),
        ] {
            for seed in 1..=3 {
                assert_meshes_match_oracles(w, h, seed);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Shapes around the highway threshold (w·h ≥ 2048), where a
        /// highway's clamped end can land on its start (a self-loop) or on
        /// a kept grid edge, which the merge must put once.
        #[test]
        fn meshes_on_threads_match_oracles_on_random_shapes(
            w in 1usize..128,
            h in 1usize..128,
            seed in 0u64..1 << 20,
        ) {
            assert_meshes_match_oracles(w, h, seed);
        }
    }

    #[test]
    #[should_panic(expected = "a 65536 × 65536 mesh needs u32::MAX vertex ids or more")]
    fn road_network_rejects_ids_past_vertex_id() {
        road_network(1 << 16, 1 << 16, 0);
    }

    #[test]
    #[should_panic(expected = "a 4294967295 × 1 mesh needs u32::MAX vertex ids or more")]
    fn grid_2d_rejects_u32_max_vertices() {
        grid_2d(u32::MAX as usize, 1);
    }

    #[test]
    #[should_panic(expected = "mesh needs u32::MAX vertex ids or more")]
    fn grid_2d_rejects_a_vertex_count_past_usize() {
        grid_2d(usize::MAX, 2);
    }
}
