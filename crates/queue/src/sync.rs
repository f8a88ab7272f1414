//! Synchronization facade: `std` primitives normally, `atos-check` shadow
//! types under `--cfg atos_check`.
//!
//! Every atomic, cell, fence, spin hint, and thread operation the queue
//! protocols (and `atos-core`'s host path) perform is imported from this
//! module instead of `std`, so the exact same protocol code runs in
//! production and inside the model checker:
//!
//! ```text
//! cargo build                                  → std atomics (zero cost)
//! RUSTFLAGS="--cfg atos_check" cargo test -p atos-check
//!                                              → shadow types, every
//!                                                interleaving explored
//! ```
//!
//! The std path wraps `UnsafeCell` in a `#[repr(transparent)]` newtype with
//! `#[inline(always)]` accessors, so release builds are byte-identical to
//! using `std::cell::UnsafeCell` directly (pinned by the existing
//! `alloc_count` and trace-golden tests). The build is driven by a `cfg`
//! rather than a cargo feature so that feature unification can never leak
//! shadow types into production test binaries.

#[cfg(not(atos_check))]
mod imp {
    pub use core::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

    /// Thin `UnsafeCell` wrapper exposing the closure-style accessors the
    /// shadow type requires; compiles to the raw pointer accesses.
    #[repr(transparent)]
    pub struct UnsafeCell<T>(core::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Wrap a value.
        #[inline(always)]
        pub fn new(v: T) -> Self {
            Self(core::cell::UnsafeCell::new(v))
        }

        /// Shared access to the contents via raw pointer.
        #[inline(always)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access to the contents via raw pointer. The *caller*
        /// guarantees exclusivity (reserved index ranges); the checker
        /// build verifies that guarantee.
        #[inline(always)]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// Safe exclusive access through `&mut`.
        #[inline(always)]
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }

        /// Consume, returning the wrapped value.
        #[inline(always)]
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }

    /// Spin/yield hints.
    pub mod hint {
        pub use core::hint::spin_loop;
    }

    /// Threading primitives. `yield_now` and `park_timeout` cannot unwind
    /// here, so an idle worker's wait leaves its hot loop no unwinding edge.
    pub mod thread {
        pub use std::thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};

        /// `std::thread::yield_now`, aborting instead of unwinding.
        #[inline]
        pub fn yield_now() {
            crate::nounwind(std::thread::yield_now)
        }

        /// `std::thread::park_timeout`, aborting instead of unwinding.
        #[inline]
        pub fn park_timeout(dur: core::time::Duration) {
            crate::nounwind(|| std::thread::park_timeout(dur))
        }
    }

    /// Hardware threads available to this process (1 when unknown).
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(atos_check)]
mod imp {
    pub use atos_check::sync::{
        fence, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering, UnsafeCell,
    };

    /// Spin/yield hints (model-scheduled).
    pub mod hint {
        pub use atos_check::sync::spin_loop;
    }

    /// Threading primitives (model-scheduled).
    pub mod thread {
        pub use atos_check::thread::{
            scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle,
        };

        /// Model-scheduled stand-in for `std::thread::park_timeout`: a
        /// timed park may wake spuriously at any point, so a scheduler
        /// yield is a sound model — the checker stays free to schedule
        /// the parked thread whenever it chooses.
        pub fn park_timeout(_dur: core::time::Duration) {
            yield_now();
        }
    }

    /// Fixed small parallelism under the model checker: enough to exercise
    /// multi-thread protocols without exploding the interleaving space.
    pub fn host_parallelism() -> usize {
        2
    }
}

pub use imp::*;
