//! Traffic tracing: the fabric-wide utilization timeline and message
//! totals.
//!
//! The paper argues that Atos "smooths the interconnection usage for
//! bisection-limited problems": BSP frameworks emit traffic in bursts at
//! kernel boundaries while Atos's fine-grained pushes spread it over the
//! whole runtime. [`FabricTrace::burstiness`] quantifies that claim as the
//! coefficient of variation of wire bytes per time bucket.

use crate::engine::Time;

/// Width of a utilization bucket, ns (5 µs).
///
/// The bucket must be finer than a BSP iteration period for barrier
/// bursts to register as bursts: at test scale a mesh BFS iteration is a
/// few tens of µs, so a 50 µs bucket blurred consecutive barriers into a
/// flat series and inverted the paper's smoothing comparison (Fig. 10
/// shape). 5 µs resolves the phase structure at every scale this repo
/// runs.
pub const BUCKET_NS: Time = 5_000;

/// Recorded traffic for one fabric.
#[derive(Debug, Clone)]
pub struct FabricTrace {
    /// Wire bytes per [`BUCKET_NS`] bucket, summed over all links.
    buckets: Vec<u64>,
    total_messages: u64,
    total_wire_bytes: u64,
}

impl Default for FabricTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl FabricTrace {
    /// Empty trace.
    pub fn new() -> Self {
        FabricTrace {
            buckets: Vec::new(),
            total_messages: 0,
            total_wire_bytes: 0,
        }
    }

    /// Record `wire_bytes` leaving on some link at time `at`.
    pub fn record_link(&mut self, at: Time, wire_bytes: u64) {
        let b = (at / BUCKET_NS) as usize;
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += wire_bytes;
        self.total_wire_bytes += wire_bytes;
    }

    /// Record one application message.
    pub fn record_message(&mut self) {
        self.total_messages += 1;
    }

    /// Extend the utilization bucket series to cover `[0, at]`.
    ///
    /// `record_link` only grows the series to the last bucket that saw
    /// traffic, so a run whose tail is pure compute would otherwise drop
    /// its trailing idle time from the burstiness statistic (idle buckets
    /// raise the coefficient of variation). The runtime calls this once
    /// with the final virtual time; calling it again with an earlier time
    /// is a no-op, and a trace that saw no traffic at all stays empty.
    pub fn finish(&mut self, at: Time) {
        if self.total_wire_bytes == 0 {
            return;
        }
        let need = (at / BUCKET_NS) as usize + 1;
        if need > self.buckets.len() {
            self.buckets.resize(need, 0);
        }
    }

    /// Total messages recorded.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total wire bytes recorded.
    pub fn total_wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// Coefficient of variation (σ/μ) of per-bucket traffic over the busy
    /// interval. 0 = perfectly smooth; larger = burstier. `None` if fewer
    /// than two buckets saw traffic.
    pub fn burstiness(&self) -> Option<f64> {
        if self.buckets.len() < 2 {
            return None;
        }
        let n = self.buckets.len() as f64;
        let mean = self.buckets.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return None;
        }
        let var = self
            .buckets
            .iter()
            .map(|&b| {
                let d = b as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Some(var.sqrt() / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut t = FabricTrace::new();
        t.record_link(0, 100);
        t.record_link(BUCKET_NS + 1, 200);
        t.record_message();
        t.record_message();
        assert_eq!(t.total_wire_bytes(), 300);
        assert_eq!(t.total_messages(), 2);
        assert_eq!(t.buckets, [100, 200]);
    }

    #[test]
    fn burstiness_distinguishes_smooth_from_bursty() {
        let mut smooth = FabricTrace::new();
        for i in 0..100 {
            smooth.record_link(i * BUCKET_NS, 1000);
        }
        let mut bursty = FabricTrace::new();
        for i in 0..10 {
            bursty.record_link(i * 10 * BUCKET_NS, 10_000);
        }
        // Bursts stop at bucket 90; extend both series to the same run
        // end so trailing idle counts toward the variance.
        bursty.finish(99 * BUCKET_NS);
        smooth.finish(99 * BUCKET_NS);
        let s = smooth.burstiness().unwrap();
        let b = bursty.burstiness().unwrap();
        assert!(b > 2.0 * s, "smooth={s} bursty={b}");
    }

    #[test]
    fn burstiness_none_when_insufficient() {
        let t = FabricTrace::new();
        assert!(t.burstiness().is_none());
    }

    #[test]
    fn finish_extends_series_to_run_end() {
        let mut t = FabricTrace::new();
        t.record_link(0, 100);
        assert_eq!(t.buckets.len(), 1);
        t.finish(10 * BUCKET_NS);
        assert_eq!(t.buckets.len(), 11);
        assert_eq!(t.buckets[10], 0);
        // Earlier time: no shrink.
        t.finish(0);
        assert_eq!(t.buckets.len(), 11);
        // No traffic at all: stays empty.
        let mut idle = FabricTrace::new();
        idle.finish(10 * BUCKET_NS);
        assert!(idle.buckets.is_empty());
        assert!(idle.burstiness().is_none());
    }
}
