//! Baseline frameworks, modeled on the same simulator and cost constants
//! as Atos so that every measured difference is a *framework* difference.
//!
//! The paper compares against three systems; each is reproduced as the
//! scheduling discipline the paper attributes its behavior to:
//!
//! * [`bsp`] — **Gunrock-like**: level-synchronous BSP, a schedule
//!   ([`run_bsp`]) over the same applications. Per iteration: advance +
//!   filter kernels on every GPU, a CPU-side barrier, then a bulk
//!   all-to-all exchange through the CPU control path. Suffers kernel
//!   launch overhead × diameter on mesh graphs and bursty communication
//!   everywhere.
//! * [`groute_like`] — **Groute-like**: the *same asynchronous algorithm
//!   as Atos* (the paper: "Groute and Atos use the same algorithm ... so
//!   these factors do not contribute") running on the Atos runtime, but
//!   with the two framework properties Groute actually has: a CPU-mediated
//!   communication control path and kernel-boundary (not in-kernel)
//!   communication over medium-grained fragments.
//! * [`galois_like`] — **Galois/Gluon-like**: bulk-asynchronous rounds —
//!   each round drains the available worklist, then synchronizes boundary
//!   state in bulk through Gluon, which broadcasts per-round update
//!   metadata (bitvectors) to every peer over the CPU control path. This
//!   per-round, per-peer overhead is what makes Galois anti-scale in
//!   Table V.
//!
//! The two asynchronous baselines are values, not programs:
//! [`groute_config`] and [`galois_config`] are `AtosConfig`s, and any
//! launch of `atos-apps` (`run_bfs`, `run_pagerank`, `run_cc`, `run_sssp`,
//! `run_sssp_delta`) runs under them.

#![warn(missing_docs)]

pub mod bsp;
pub mod galois_like;
pub mod groute_like;

pub use bsp::{bsp_bfs, bsp_pagerank, run_bsp, BspRun};
pub use galois_like::galois_config;
pub use groute_like::groute_config;
