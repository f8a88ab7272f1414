//! Project configuration for the lint pass.
//!
//! The configuration is code, not a config file: the invariants it encodes
//! (which files may touch raw atomics, which crates must stay
//! deterministic) are architectural facts of this workspace, and changing
//! them should be a reviewed source change next to the audit table in
//! DESIGN.md §7 — not an edit to an untracked dotfile.
//!
//! Only *path* scopes live here. Which *functions* are hot is declared at
//! the function (`#[atos_hot]` / `// atos-lint: hot`, see
//! [`crate::lints::hot_marker`]), so a rename takes its scope with it.

/// Full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path fragments of files allowed to import `std::sync::atomic` /
    /// `std::cell::UnsafeCell` directly (the facade itself, the model
    /// checker that shadows it, and the vendored dependency shims).
    pub facade_allowed: &'static [&'static str],
    /// Path fragments of files covered by `sim-determinism`: every crate
    /// that produces trace events or virtual time.
    pub sim_paths: &'static [&'static str],
    /// Identifiers forbidden in deterministic-simulation code.
    pub sim_forbidden: &'static [&'static str],
}

impl Config {
    /// The workspace's production configuration.
    pub fn project() -> Config {
        Config {
            facade_allowed: &[
                // The facade itself.
                "crates/queue/src/sync.rs",
                // The model checker: shadows the facade's types and needs
                // raw atomics for its own scheduler bookkeeping.
                "crates/check/",
                // Vendored dependency shims (outside the runtime proper).
                "crates/rand-shim/",
                "crates/proptest-shim/",
                // The standalone benchmark package: a measurement harness
                // outside the workspace, never built under `atos_check`.
                "benchmark/",
            ],
            sim_paths: &[
                "crates/sim/src/",
                // The runtime records trace events and advances virtual
                // time; the applications and baselines charge it. A clock
                // that cannot be named in these files cannot reach a trace.
                "crates/core/src/",
                "crates/apps/src/",
                "crates/baselines/src/",
            ],
            sim_forbidden: &[
                "Instant",
                "SystemTime",
                "HashMap",
                "HashSet",
                "RandomState",
                "thread_rng",
                "available_parallelism",
                "sleep",
            ],
        }
    }

    /// A minimal configuration for fixture tests: path scopes keyed on the
    /// fixture file names so each rule can be exercised by a single
    /// self-contained bad file.
    pub fn fixture() -> Config {
        Config {
            facade_allowed: &[],
            sim_paths: &["sim_determinism.rs"],
            sim_forbidden: Config::project().sim_forbidden,
        }
    }

    /// Is `path` allowed to bypass the atomics facade?
    pub fn is_facade_allowed(&self, path: &str) -> bool {
        self.facade_allowed.iter().any(|p| path.contains(p))
    }

    /// Is `path` inside the deterministic-simulation scope?
    pub fn is_sim_path(&self, path: &str) -> bool {
        self.sim_paths.iter().any(|p| path.contains(p))
    }
}
