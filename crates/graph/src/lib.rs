//! Graph substrate for the Atos reproduction.
//!
//! The paper evaluates on six graphs (Table I) spanning two structural
//! families whose contrast drives every conclusion in the evaluation:
//!
//! * **scale-free** (soc-LiveJournal1, hollywood-2009, indochina-2004,
//!   twitter50): power-law degrees, diameter 10–26 — BFS/PR are
//!   *bandwidth-bound*, parallelism is plentiful;
//! * **mesh-like** (road_usa, osm-eur): degree ≈ 2, diameter in the
//!   thousands — BFS is *latency/parallelism-bound* and kernel-launch
//!   overhead dominates level-synchronous schedulers.
//!
//! The originals are up to 1.9 B edges; [`generators::Preset`] provides
//! seeded synthetic stand-ins that preserve the family structure at
//! laptop-simulable scale (see DESIGN.md §6 for the substitution argument).
//!
//! Modules:
//! * [`csr`] — compressed sparse row storage and builders.
//! * [`generators`] — R-MAT, 2-D grid, and road-network
//!   generators plus the Table I preset catalog.
//! * [`partition`] — random / block / BFS-grown partitioners and edge-cut
//!   statistics (the paper uses METIS; BFS-grown matches its role).
//! * [`mod@reference`] — serial BFS and PageRank used as ground truth in every
//!   correctness test.
//! * [`stats`] — degree and diameter estimates used to validate presets
//!   against Table I.
//! * [`grouped`] — every row stably grouped by owning PE: the layout a
//!   partitioned traversal reads, one local segment and one run per
//!   remote PE instead of an owner lookup per edge.
//! * [`light`] — every row's edges of weight ≤ `delta`, target and weight
//!   side by side: what a delta-stepping light task walks instead of
//!   filtering the full row.
//! * [`mod@prefetch`] — the cache-line hint every structure's `prefetch`
//!   bottoms out in, and the [`Lookahead`] distance a caller announces.

#![warn(missing_docs)]

// The hot-path marker; the file lives with the queues (DESIGN.md §7).
include!("../../queue/src/hot.rs");

pub mod csr;
pub mod generators;
pub mod grouped;
pub mod light;
mod par;
pub mod partition;
pub mod prefetch;
pub mod reference;
pub mod stats;
pub mod weights;

pub use csr::{Csr, VertexId};
pub use partition::Partition;
pub use prefetch::Lookahead;
