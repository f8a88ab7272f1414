//! Fixed-bucket log-linear histogram (HDR-style) for latency-shaped
//! distributions.
//!
//! The bucket layout is the classic log-linear compromise: values below
//! [`SUB_BUCKETS`] get one bucket each (exact), and every octave above
//! that is split into [`SUB_BUCKETS`] linear sub-buckets, bounding the
//! relative quantile error at `1 / SUB_BUCKETS` (≈3%) across the full
//! `u64` range. The bucket array is allocated once at construction;
//! [`Histogram::record`] is branch-light integer arithmetic plus one
//! slot increment — no allocation, no floating point — so it is safe on
//! a hot path (enforced by `atos-lint`'s hot-path scope and
//! `alloc_count.rs`).
//!
//! Histograms are mergeable ([`Histogram::merge`]): merging two
//! histograms is exactly equivalent to recording the concatenation of
//! their inputs, which is what lets per-producer telemetry fold into a
//! run-wide distribution deterministically.

use crate::json;

/// Power-of-two linear resolution: one bucket per value below this, and
/// this many sub-buckets per octave above.
pub const SUB_BUCKETS: usize = 32;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Total bucket count: the linear region plus `SUB_BUCKETS` buckets for
/// each of the remaining octaves of a `u64`.
pub const N_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// The quantiles every summary export carries, as (label, q) pairs.
pub const SUMMARY_QUANTILES: [(&str, f64); 4] =
    [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// A fixed-bucket log-linear histogram over `u64` samples.
///
/// Tracks exact `count`, `sum`, `min`, and `max` alongside the bucketed
/// distribution; quantile queries return the *lower bound* of the bucket
/// containing the target rank (exact for values below [`SUB_BUCKETS`],
/// within `1/SUB_BUCKETS` relatively above), except that the final rank
/// reports the exact maximum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for `v`: identity below [`SUB_BUCKETS`], log-linear
/// above. Always `< N_BUCKETS` (the top octave's last sub-bucket is
/// index `N_BUCKETS - 1`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let mantissa = (v >> (exp - SUB_BITS)) as usize - SUB_BUCKETS;
        (exp - SUB_BITS + 1) as usize * SUB_BUCKETS + mantissa
    }
}

/// Smallest value mapping to bucket `i` — the representative a quantile
/// query reports for ranks landing in that bucket.
#[inline]
pub fn bucket_floor(i: usize) -> u64 {
    debug_assert!(i < N_BUCKETS);
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let octave = (i / SUB_BUCKETS - 1) as u32;
        let mantissa = (i % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + mantissa) << octave
    }
}

impl Histogram {
    /// New empty histogram. The single allocation lives here; recording
    /// into an existing histogram never allocates.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; N_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Allocation-free: integer bucket arithmetic and
    /// five field updates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Value at quantile `q ∈ [0, 1]`: the floor of the bucket holding
    /// rank `ceil(q · count)` (clamped to `[1, count]`), except the top
    /// rank, which reports the exact maximum. Returns 0 when empty.
    /// Monotone in `q` by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_floor(i);
            }
        }
        self.max
    }

    /// Median ([`Histogram::quantile`] at 0.50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold `other` into `self`. Equivalent to having recorded `other`'s
    /// samples into `self` directly (bucket-exactly — both sides use the
    /// same fixed layout).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Serialize the summary as a single-line JSON object with keys in
    /// sorted order: `count, max, mean, min, p50, p90, p99, p999, sum`.
    /// Deterministic: a pure function of the recorded multiset.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"max\": {}, \"mean\": {:.3}, \"min\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \"sum\": {}}}",
            self.count,
            self.max(),
            self.mean(),
            self.min(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.sum
        )
    }

    /// Parse a summary produced by [`Histogram::to_json`] into
    /// `(count, min, max, p50, p90, p99, p999)`. Quantile-level summary
    /// only — bucket counts are not exported — so this supports report
    /// tooling (`atos-profile`), not lossless reconstruction.
    pub fn summary_from_json(v: &json::Json) -> Option<HistogramSummary> {
        let num = |k: &str| v.get(k).and_then(|x| x.as_num());
        Some(HistogramSummary {
            count: num("count")? as u64,
            min: num("min")? as u64,
            max: num("max")? as u64,
            mean: num("mean")?,
            p50: num("p50")? as u64,
            p90: num("p90")? as u64,
            p99: num("p99")? as u64,
            p999: num("p999")? as u64,
            sum: num("sum")? as u64,
        })
    }
}

/// The quantile-level summary a histogram exports to JSON — what report
/// tooling (`atos-profile`) reads back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Mean (3-decimal precision after a JSON round trip).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Sum of samples.
    pub sum: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region_is_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_floor_inverts_bucket_index() {
        // The floor of v's bucket maps back to the same bucket, and is
        // never above v.
        for &v in &[0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < N_BUCKETS, "v={v} i={i}");
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor({i})={floor} > v={v}");
            assert_eq!(bucket_index(floor), i, "floor not in own bucket, v={v}");
        }
    }

    #[test]
    fn bucket_floors_strictly_increase() {
        for i in 1..N_BUCKETS {
            assert!(
                bucket_floor(i) > bucket_floor(i - 1),
                "floor({}) !> floor({})",
                i,
                i - 1
            );
        }
    }

    #[test]
    fn relative_error_bounded() {
        // Bucket width / floor <= 1/SUB_BUCKETS above the linear region.
        for i in SUB_BUCKETS..N_BUCKETS - 1 {
            let lo = bucket_floor(i);
            let hi = bucket_floor(i + 1);
            assert!(hi - lo <= lo / SUB_BUCKETS as u64 + 1, "bucket {i}");
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_exact_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        // All values in the exact linear region.
        assert_eq!(h.p50(), 5);
        assert_eq!(h.quantile(0.9), 9);
        assert_eq!(h.quantile(1.0), 10);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.sum(), 55);
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn top_rank_reports_exact_max() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(1.0), 1_000_003);
        assert_eq!(h.p999(), 1_000_003);
    }

    #[test]
    fn merge_equals_concat() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [3u64, 99, 12_345, 7] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64 << 40, 0, 31, 32] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn json_summary_round_trips() {
        let mut h = Histogram::new();
        for v in [5u64, 50, 500, 5000] {
            h.record(v);
        }
        let text = h.to_json();
        let parsed = json::parse(&text).unwrap();
        let s = Histogram::summary_from_json(&parsed).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5000);
        assert_eq!(s.p50, h.p50());
        assert_eq!(s.p99, h.p99());
        assert_eq!(s.sum, h.sum());
    }

    #[test]
    fn json_keys_sorted() {
        let h = Histogram::new();
        let text = h.to_json();
        let keys = ["count", "max", "mean", "min", "p50", "p90", "p99", "p999", "sum"];
        let mut last = 0;
        for k in keys {
            let pos = text.find(&format!("\"{k}\"")).unwrap();
            assert!(pos > last || last == 0, "key {k} out of order");
            last = pos;
        }
    }
}
