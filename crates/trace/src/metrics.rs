//! Named-counter + histogram registry serialized to JSON by `--metrics`.

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::json;

/// A flat registry of named `u64` counters and [`Histogram`]s.
///
/// Keys use dotted namespaces (`"queue.cas_retries"`, `"agg.flushes_size"`,
/// `"pe0.busy_ns"`). `BTreeMap`s keep the JSON output
/// deterministically key-sorted; counters and histograms share one key
/// namespace (setting one kind removes the other under the same key).
/// Metrics are end-of-run snapshots — the hot path never touches the
/// registry; producers accumulate in their own counters/histograms and
/// dump here once.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set `key` to `value`, overwriting any previous value (and removing
    /// a histogram previously stored under the same key).
    pub fn set(&mut self, key: &str, value: u64) {
        self.hists.remove(key);
        self.counters.insert(key.to_string(), value);
    }

    /// Add `delta` to `key` (creating it at zero).
    pub fn add(&mut self, key: &str, delta: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += delta;
    }

    /// Raise `key` to `value` if larger (creating it at zero).
    pub fn max(&mut self, key: &str, value: u64) {
        let e = self.counters.entry(key.to_string()).or_insert(0);
        *e = (*e).max(value);
    }

    /// Current value of counter `key`, if set.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// Store histogram `h` under `key`, overwriting any previous value
    /// (and removing a counter previously stored under the same key).
    pub fn set_histogram(&mut self, key: &str, h: Histogram) {
        self.counters.remove(key);
        self.hists.insert(key.to_string(), h);
    }

    /// The histogram stored under `key`, if any.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Number of entries (counters plus histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.hists.len()
    }

    /// True when nothing has been set.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Iterate counters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in key order.
    pub fn iter_histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialize as a pretty-printed JSON object, keys sorted across both
    /// kinds. Counters export as bare numbers, histograms as one-line
    /// summary objects (`{"count": .., "p50": .., ...}`) so the document
    /// stays flat and diff-friendly.
    pub fn to_json(&self) -> String {
        let mut ck = self.counters.iter().peekable();
        let mut hk = self.hists.iter().peekable();
        let mut lines: Vec<String> = Vec::with_capacity(self.len());
        loop {
            // Merge the two sorted maps into one sorted key stream.
            let take_counter = match (ck.peek(), hk.peek()) {
                (Some((c, _)), Some((h, _))) => c < h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_counter {
                let (k, v) = ck.next().unwrap();
                lines.push(format!("  \"{}\": {v}", json::escape(k)));
            } else {
                let (k, h) = hk.next().unwrap();
                lines.push(format!("  \"{}\": {}", json::escape(k), h.to_json()));
            }
        }
        let mut out = String::from("{\n");
        for (i, line) in lines.iter().enumerate() {
            let sep = if i + 1 == lines.len() { "" } else { "," };
            out.push_str(line);
            out.push_str(sep);
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_max_get() {
        let mut r = MetricsRegistry::new();
        r.set("a.x", 5);
        r.add("a.x", 2);
        r.add("a.y", 1);
        r.max("a.x", 3);
        r.max("a.x", 100);
        assert_eq!(r.get("a.x"), Some(100));
        assert_eq!(r.get("a.y"), Some(1));
        assert_eq!(r.get("nope"), None);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn json_is_sorted_and_parses() {
        let mut r = MetricsRegistry::new();
        r.set("z.last", 1);
        r.set("a.first", 2);
        let text = r.to_json();
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("a.first").unwrap().as_num(), Some(2.0));
        assert_eq!(v.get("z.last").unwrap().as_num(), Some(1.0));
    }

    #[test]
    fn empty_registry_serializes() {
        let r = MetricsRegistry::new();
        assert!(json::parse(&r.to_json()).is_ok());
    }

    #[test]
    fn histograms_interleave_sorted_with_counters() {
        let mut r = MetricsRegistry::new();
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        r.set("a.count", 7);
        r.set_histogram("b.lat_ns", h.clone());
        r.set("c.count", 9);
        assert_eq!(r.len(), 3);
        assert_eq!(r.histogram("b.lat_ns"), Some(&h));
        let text = r.to_json();
        let a = text.find("a.count").unwrap();
        let b = text.find("b.lat_ns").unwrap();
        let c = text.find("c.count").unwrap();
        assert!(a < b && b < c);
        // Parses back: counters as numbers, histograms as objects.
        let v = json::parse(&text).unwrap();
        assert_eq!(v.get("a.count").unwrap().as_num(), Some(7.0));
        let s = Histogram::summary_from_json(v.get("b.lat_ns").unwrap()).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
    }

    #[test]
    fn one_key_holds_one_kind() {
        let mut r = MetricsRegistry::new();
        r.set("k", 4);
        r.set_histogram("k", Histogram::new());
        assert_eq!(r.get("k"), None);
        assert!(r.histogram("k").is_some());
        assert_eq!(r.len(), 1);
        r.set("k", 5);
        assert!(r.histogram("k").is_none());
        assert_eq!(r.get("k"), Some(5));
        assert_eq!(r.len(), 1);
    }
}
