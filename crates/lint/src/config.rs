//! Project configuration for the lint pass.
//!
//! The configuration is code, not a config file: the invariants it encodes
//! (which files may touch raw atomics, which functions are queue-protocol
//! kernel code, which crate must stay deterministic) are architectural
//! facts of this workspace, and changing them should be a reviewed source
//! change next to the policy documentation in DESIGN.md §7 — not an edit
//! to an untracked dotfile.

/// A panic-sensitivity scope: one source file plus the protocol functions
/// inside it that must not contain panicking constructs.
#[derive(Debug, Clone)]
pub struct KernelScope {
    /// Path suffix identifying the file (always `/`-separated).
    pub file_suffix: &'static str,
    /// Function names inside that file covered by `panic-in-kernel`.
    pub fns: &'static [&'static str],
    /// Whether panicking slice indexing (`ident[i]`) is also forbidden in
    /// those functions. Enabled only for the lock-free queue protocol
    /// files, where a bounds panic mid-protocol would strand a published
    /// reservation; the simulator runtime indexes its own dense PE arrays
    /// pervasively and is covered by the `unwrap`/`expect`/`panic!` rules
    /// only.
    pub forbid_index: bool,
}

/// An owner-computes scope: one source file holding an `Application`
/// impl whose entry points the `shard-escape` rule flow-checks. Field
/// classes (owner-indexed authoritative / per-sender private /
/// shared-immutable) come from the `#[atos_shard(..)]` attribute on the
/// impl's `process`; without it the scope is a finding.
#[derive(Debug, Clone)]
pub struct ShardScope {
    /// Path suffix identifying the file (always `/`-separated).
    pub file_suffix: &'static str,
    /// The impl's `Self` type (`BfsApp`, …).
    pub ty: &'static str,
    /// Entry points whose writes (direct and transitive) must respect the
    /// owner-computes discipline.
    pub entry_fns: &'static [&'static str],
}

/// An unchecked-accessor scope: one source file whose `# Safety: idx <
/// cap` accessors the `unchecked-guard` rule covers. Every call must
/// prove its index against a reservation bound check. `bounded_fields`
/// names the atomic fields whose acquire-loaded values are known
/// capacity-bounded (they only ever advance over capacity-checked
/// reservations), seeding the in-range-loop derivation.
#[derive(Debug, Clone)]
pub struct UncheckedScope {
    /// Path suffix identifying the file (always `/`-separated).
    pub file_suffix: &'static str,
    /// Unsafe accessor fns with an `idx < capacity` `# Safety` contract.
    pub accessors: &'static [&'static str],
    /// Atomic fields whose published values are capacity-bounded.
    pub bounded_fields: &'static [&'static str],
}

/// A function treated as `#[atos_hot]` without carrying the attribute
/// (used for crates that must stay dependency-free, like `atos-queue`,
/// which cannot depend on the proc-macro crate).
#[derive(Debug, Clone)]
pub struct HotDenyEntry {
    /// Path suffix identifying the file.
    pub file_suffix: &'static str,
    /// Function names in that file on the hot path.
    pub fns: &'static [&'static str],
}

/// Full lint configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path fragments of files allowed to import `std::sync::atomic` /
    /// `std::cell::UnsafeCell` directly (the facade itself, the model
    /// checker that shadows it, and the vendored dependency shims).
    pub facade_allowed: &'static [&'static str],
    /// Path fragments of files excluded from the ordering-dataflow rules
    /// (`relaxed-publish`, `unreleased-write`, `acquire-pairing`). The
    /// model-checker crate deliberately constructs broken protocols as
    /// negative self-tests.
    pub ordering_exempt: &'static [&'static str],
    /// Extra hot-path functions beyond `#[atos_hot]` annotations.
    pub hot_denylist: &'static [HotDenyEntry],
    /// Panic-sensitivity scopes.
    pub kernel_scopes: &'static [KernelScope],
    /// Path fragments of files covered by `sim-determinism`.
    pub sim_paths: &'static [&'static str],
    /// Identifiers forbidden in deterministic-simulation code.
    pub sim_forbidden: &'static [&'static str],
    /// Wall-clock taint sources written as paths (`Type::assoc`); matched
    /// against the trailing two path segments of a call, so both
    /// `Instant::now()` and `std::time::Instant::now()` hit.
    pub taint_path_sources: &'static [&'static str],
    /// Wall-clock taint sources written as bare calls or methods:
    /// functions whose return value reads a real clock.
    pub taint_method_sources: &'static [&'static str],
    /// Host-nondeterminism taint sources (not clocks): thread counts,
    /// contention probes. Inventoried at metric sinks but not findings at
    /// trace sinks (see the rationale in [`crate::taint`]).
    pub taint_nondet_sources: &'static [&'static str],
    /// Owner-computes scopes for the `shard-escape` rule.
    pub shard_scopes: &'static [ShardScope],
    /// Unchecked-accessor scopes for the `unchecked-guard` rule.
    pub unchecked_scopes: &'static [UncheckedScope],
    /// Path fragments of files *opaque* to the determinism-taint pass.
    /// Two categories: code that is not part of the shipped runtime
    /// (integration tests, benches, the linter itself), and generic
    /// value-agnostic plumbing (the atomics facade / model-checker shims)
    /// where many unrelated call sites resolve to one shared definition —
    /// propagating taint through those conflates every atomic in the
    /// workspace into one abstract cell and drowns the analysis.
    pub taint_exclude: &'static [&'static str],
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
            ordering_exempt: &[
                // atos-check models *broken* protocols on purpose
                // (negative self-tests for the race detector).
                "crates/check/",
            ],
            hot_denylist: &[
                HotDenyEntry {
                    file_suffix: "crates/queue/src/counter.rs",
                    fns: &["push_group", "pop_group", "drain_claim", "push"],
                },
                HotDenyEntry {
                    file_suffix: "crates/queue/src/cas.rs",
                    fns: &["push_group", "pop_group", "push"],
                },
                HotDenyEntry {
                    file_suffix: "crates/queue/src/broker.rs",
                    fns: &["push", "pop"],
                },
                HotDenyEntry {
                    // The histogram record path: called once per sample
                    // and pinned allocation-free by `alloc_count.rs`.
                    // `atos-trace` is a leaf crate, so it cannot carry the
                    // `#[atos_hot]` proc-macro attribute.
                    file_suffix: "crates/trace/src/hist.rs",
                    fns: &["record", "bucket_index"],
                },
            ],
            kernel_scopes: &[
                KernelScope {
                    file_suffix: "crates/queue/src/counter.rs",
                    fns: &["push_group", "pop_group", "drain_claim", "push"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/queue/src/cas.rs",
                    fns: &["push_group", "pop_group", "push"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/queue/src/broker.rs",
                    fns: &["push", "pop"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/core/src/runtime.rs",
                    fns: &["step", "process_batch", "absorb_local", "run_window"],
                    forbid_index: false,
                },
                KernelScope {
                    // Send, barrier merge and receive lanes: a panic between
                    // a car's egress and its delivery strands tasks that
                    // exist nowhere else.
                    file_suffix: "crates/core/src/comm.rs",
                    fns: &[
                        "dispatch_remote",
                        "flush_bundle",
                        "depart",
                        "route",
                        "egress",
                        "merge_records",
                        "file",
                        "settle",
                        "deliver",
                        "drain_before",
                        "arrive",
                        "ring_doorbell",
                        "ring_next",
                    ],
                    forbid_index: false,
                },
                KernelScope {
                    // The work-stealing path: runs inside the scheduler
                    // step, so a panic mid-steal strands the victim's
                    // popped-but-unexecuted claim.
                    file_suffix: "crates/core/src/loadbalance.rs",
                    fns: &["try_steal", "pick_victim", "steal_from", "wake_idle_peers"],
                    forbid_index: false,
                },
                // The hint path: `process_batch` announces tasks it has not
                // run yet, so a panic in a hint aborts a step over work
                // that was never wrong. `get`, never indexing, from each
                // application's `prefetch` through the structure it reads
                // down to the one `_mm_prefetch`.
                KernelScope {
                    file_suffix: "crates/graph/src/prefetch.rs",
                    fns: &["prefetch", "prefetch_row"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/graph/src/csr.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/graph/src/weights.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/graph/src/grouped.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/graph/src/light.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/apps/src/bfs.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/apps/src/sssp.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/apps/src/pagerank.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    file_suffix: "crates/apps/src/cc.rs",
                    fns: &["prefetch"],
                    forbid_index: true,
                },
                KernelScope {
                    // The timing wheel's schedule→pop protocol: every
                    // simulated event funnels through these. Failure paths
                    // are outlined (`empty_slot_popped`) or debug-asserted.
                    file_suffix: "crates/sim/src/engine.rs",
                    fns: &[
                        "schedule_at",
                        "schedule_at_seq",
                        "pop",
                        "pop_before",
                        "place",
                        "arena_insert",
                        "advance",
                        "drain_l0_bucket",
                        "cascade_l1_bucket",
                        "cascade_l2_bucket",
                        "jump_to_far",
                    ],
                    forbid_index: false,
                },
                KernelScope {
                    // `run_host` itself is setup/teardown (its seed-phase
                    // asserts are documented API panics before any thread
                    // exists); the protocol loop is the extracted `worker`.
                    file_suffix: "crates/core/src/host.rs",
                    fns: &["worker"],
                    forbid_index: false,
                },
            ],
            sim_paths: &["crates/sim/src/"],
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
            taint_path_sources: &[
                "Instant::now",
                "SystemTime::now",
                "std::time::Instant::now",
                "std::time::SystemTime::now",
                "time::Instant::now",
                "time::SystemTime::now",
            ],
            taint_method_sources: &[
                // Wall-clock interval reads.
                "elapsed",
            ],
            taint_nondet_sources: &[
                // Host thread-count query (facade wrapper included).
                "available_parallelism",
                "host_parallelism",
                // Process-global queue contention counters (CAS retries,
                // host occupancy high-water marks).
                "global_snapshot",
            ],
            shard_scopes: &[
                ShardScope {
                    file_suffix: "crates/apps/src/bfs.rs",
                    ty: "BfsApp",
                    entry_fns: &["process", "on_receive", "on_idle"],
                },
                ShardScope {
                    file_suffix: "crates/apps/src/sssp.rs",
                    ty: "SsspApp",
                    entry_fns: &["process", "on_receive", "on_idle"],
                },
                ShardScope {
                    file_suffix: "crates/apps/src/cc.rs",
                    ty: "CcApp",
                    entry_fns: &["process", "on_receive", "on_idle"],
                },
                ShardScope {
                    file_suffix: "crates/apps/src/pagerank.rs",
                    ty: "PageRankApp",
                    entry_fns: &["process", "on_receive", "on_idle"],
                },
            ],
            unchecked_scopes: &[
                UncheckedScope {
                    file_suffix: "crates/queue/src/counter.rs",
                    accessors: &["slot"],
                    bounded_fields: &["end"],
                },
                UncheckedScope {
                    file_suffix: "crates/queue/src/cas.rs",
                    accessors: &["slot"],
                    bounded_fields: &["end"],
                },
                UncheckedScope {
                    // Broker's guards compare against `slots.len()`
                    // directly, so no bounded-field seeding is needed.
                    file_suffix: "crates/queue/src/broker.rs",
                    accessors: &["slot", "flag"],
                    bounded_fields: &[],
                },
            ],
            taint_exclude: &[
                // (The root package's own `tests/` and `examples/` have no
                // leading slash.)
                "/tests/",
                "tests/",
                "/examples/",
                "examples/",
                "crates/lint/",
                "crates/check/",
                "crates/xtask/",
                "benchmark/",
                "/src/sync.rs",
            ],
        }
    }

    /// A minimal configuration for fixture tests: scopes keyed on the
    /// fixture file names so each rule can be exercised by a single
    /// self-contained bad file.
    pub fn fixture() -> Config {
        Config {
            facade_allowed: &[],
            ordering_exempt: &[],
            hot_denylist: &[HotDenyEntry {
                file_suffix: "hot_path_alloc.rs",
                fns: &["denylisted_hot"],
            }],
            kernel_scopes: &[KernelScope {
                file_suffix: "panic_in_kernel.rs",
                fns: &["push_group", "pop_group"],
                forbid_index: true,
            }],
            sim_paths: &["sim_determinism.rs"],
            sim_forbidden: Config::project().sim_forbidden,
            taint_path_sources: Config::project().taint_path_sources,
            taint_method_sources: Config::project().taint_method_sources,
            taint_nondet_sources: Config::project().taint_nondet_sources,
            shard_scopes: &[ShardScope {
                file_suffix: "shard_escape.rs",
                ty: "BadApp",
                entry_fns: &["process", "on_receive", "on_idle"],
            }],
            unchecked_scopes: &[UncheckedScope {
                file_suffix: "unchecked_guard.rs",
                accessors: &["slot"],
                bounded_fields: &["end"],
            }],
            taint_exclude: &[],
        }
    }

    /// Is `path` allowed to bypass the atomics facade?
    pub fn is_facade_allowed(&self, path: &str) -> bool {
        self.facade_allowed.iter().any(|p| path.contains(p))
    }

    /// Is `path` exempt from the ordering-dataflow rules?
    pub fn is_ordering_exempt(&self, path: &str) -> bool {
        self.ordering_exempt.iter().any(|p| path.contains(p))
    }

    /// Is `path` inside the deterministic-simulation scope?
    pub fn is_sim_path(&self, path: &str) -> bool {
        self.sim_paths.iter().any(|p| path.contains(p))
    }

    /// The kernel scope covering `path`, if any.
    pub fn kernel_scope(&self, path: &str) -> Option<&KernelScope> {
        self.kernel_scopes
            .iter()
            .find(|s| path.ends_with(s.file_suffix))
    }

    /// Is `path` opaque to the determinism-taint pass?
    pub fn is_taint_excluded(&self, path: &str) -> bool {
        self.taint_exclude.iter().any(|p| path.contains(p))
    }

    /// Hot-denylisted function names for `path`.
    pub fn hot_fns(&self, path: &str) -> &'static [&'static str] {
        self.hot_denylist
            .iter()
            .find(|e| path.ends_with(e.file_suffix))
            .map(|e| e.fns)
            .unwrap_or(&[])
    }

    /// The owner-computes scope covering `path`, if any.
    pub fn shard_scope(&self, path: &str) -> Option<&ShardScope> {
        self.shard_scopes
            .iter()
            .find(|s| path.ends_with(s.file_suffix))
    }

    /// The unchecked-accessor scope covering `path`, if any.
    pub fn unchecked_scope(&self, path: &str) -> Option<&UncheckedScope> {
        self.unchecked_scopes
            .iter()
            .find(|s| path.ends_with(s.file_suffix))
    }
}
