//! Named-counter registry serialized to JSON by `--metrics`.

use std::collections::BTreeMap;

use crate::escape;

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
            out.push_str(&format!("  \"{}\": {v}{sep}\n", escape(k)));
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
        assert_eq!(r.iter().collect::<Vec<_>>(), [("a.x", 100), ("a.y", 1)]);
    }

    /// The whole document, byte for byte: key order, the escaping, a
    /// comma after every line but the last, and the empty registry.
    #[test]
    fn json_is_the_expected_text() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.to_json(), "{\n}\n");
        r.set("z.last", 1);
        r.set("a.first", 2);
        r.set("q\"k\\", u64::MAX);
        assert_eq!(
            r.to_json(),
            "{\n  \"a.first\": 2,\n  \"q\\\"k\\\\\": 18446744073709551615,\n  \"z.last\": 1\n}\n"
        );
    }
}
