//! Named-counter registry serialized to JSON by `--metrics`.

use std::collections::BTreeMap;

use crate::json;

/// A flat registry of named `u64` counters.
///
/// Keys use dotted namespaces (`"queue.cas_retries"`, `"agg.flushes_size"`,
/// `"pe0.busy_ns"`). The `BTreeMap` keeps the JSON output
/// deterministically key-sorted. Metrics are end-of-run snapshots — the
/// hot path never touches the registry; producers accumulate in their own
/// counters and dump here once.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Set `key` to `value`, overwriting any previous value.
    pub fn set(&mut self, key: &str, value: u64) {
        self.counters.insert(key.to_string(), value);
    }

    /// Current value of counter `key`, if set.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when nothing has been set.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Iterate counters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Serialize as a pretty-printed JSON object, one `"key": value` line
    /// per counter in key order, so the document stays flat and
    /// diff-friendly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("  \"{}\": {v}{sep}\n", json::escape(k)));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites_and_get_reads() {
        let mut r = MetricsRegistry::new();
        r.set("a.x", 5);
        r.set("a.y", 1);
        r.set("a.x", 100);
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
}
