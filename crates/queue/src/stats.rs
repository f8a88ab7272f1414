//! Contention observability counters for the queue families.
//!
//! The paper's Figure 1 argument is *statistical* — "CAS failure
//! probability increases significantly with increasing contention" — so
//! the queues count the contention events themselves: CAS retry loop
//! iterations ([`crate::cas::CasQueue`]), pop-reservation overshoots past
//! the publication frontier ([`crate::counter::CounterQueue`]), and
//! occupancy high-water marks (both). Counters are per-queue [`Padded`]
//! relaxed atomics updated off the reservation fast path (retries are
//! tallied locally and added once per operation), so instrumentation does
//! not itself add a contended cache line to the protocol under study.
//!
//! Each queue reports its own totals (`contention()`); a caller that wants
//! one figure for several queues merges their snapshots.

#![allow(
    clippy::disallowed_types,
    reason = "observability counters are deliberately invisible to the model checker (they \
              carry no synchronization and would only multiply the explored state space)"
)]

use core::sync::atomic::{AtomicU64, Ordering};

use crate::padded::Padded;

/// Per-queue contention counters. All updates are `Relaxed`: these are
/// statistics, not synchronization.
#[derive(Debug, Default)]
pub struct ContentionCounters {
    cas_retries: Padded<AtomicU64>,
    reservation_conflicts: Padded<AtomicU64>,
    occupancy_hwm: Padded<AtomicU64>,
}

impl ContentionCounters {
    /// Fresh zeroed counters.
    pub const fn new() -> Self {
        ContentionCounters {
            cas_retries: Padded::new(AtomicU64::new(0)),
            reservation_conflicts: Padded::new(AtomicU64::new(0)),
            occupancy_hwm: Padded::new(AtomicU64::new(0)),
        }
    }

    /// Add `n` failed compare-exchange iterations (no-op for `n == 0`, the
    /// uncontended common case, so the counter line stays cold).
    #[inline]
    pub fn add_cas_retries(&self, n: u64) {
        if n > 0 {
            self.cas_retries.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one pop reservation that overshot the publication frontier
    /// (the claim could not be filled immediately).
    #[inline]
    pub fn add_reservation_conflict(&self) {
        self.reservation_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the occupancy high-water mark to `occupancy` if larger.
    #[inline]
    pub fn raise_occupancy(&self, occupancy: u64) {
        self.occupancy_hwm.fetch_max(occupancy, Ordering::Relaxed);
    }

    /// Copy out the current values.
    pub fn snapshot(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            cas_retries: self.cas_retries.load(Ordering::Relaxed),
            reservation_conflicts: self.reservation_conflicts.load(Ordering::Relaxed),
            occupancy_hwm: self.occupancy_hwm.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one queue's counters (or of several, merged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionSnapshot {
    /// Failed compare-exchange iterations across all CAS retry loops.
    pub cas_retries: u64,
    /// Pop reservations that overshot the publication frontier.
    pub reservation_conflicts: u64,
    /// Largest published-minus-reserved occupancy ever observed.
    pub occupancy_hwm: u64,
}

impl ContentionSnapshot {
    /// Fold `other` into `self`: counts add, high-water marks take max.
    pub fn merge(&mut self, other: &ContentionSnapshot) {
        self.cas_retries += other.cas_retries;
        self.reservation_conflicts += other.reservation_conflicts;
        self.occupancy_hwm = self.occupancy_hwm.max(other.occupancy_hwm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = ContentionCounters::new();
        c.add_cas_retries(0); // no-op path
        c.add_cas_retries(3);
        c.add_reservation_conflict();
        c.raise_occupancy(10);
        c.raise_occupancy(4); // lower: ignored
        let s = c.snapshot();
        assert_eq!(
            s,
            ContentionSnapshot {
                cas_retries: 3,
                reservation_conflicts: 1,
                occupancy_hwm: 10
            }
        );
    }

    #[test]
    fn merge_adds_counts_maxes_hwm() {
        let mut a = ContentionSnapshot {
            cas_retries: 1,
            reservation_conflicts: 2,
            occupancy_hwm: 5,
        };
        a.merge(&ContentionSnapshot {
            cas_retries: 10,
            reservation_conflicts: 0,
            occupancy_hwm: 3,
        });
        assert_eq!(a.cas_retries, 11);
        assert_eq!(a.reservation_conflicts, 2);
        assert_eq!(a.occupancy_hwm, 5);
    }
}
