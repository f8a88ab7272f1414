//! Parser fuzz: `json::parse` must turn *any* text into a value or an
//! `Err` — never a panic, never a stack overflow. Inputs: arbitrary bytes
//! (kept as valid UTF-8) spliced with the grammar's hard cases, and real
//! documents — the committed `results/BENCH_trajectory.json`, a Chrome trace
//! from the exporter and a keyed report — truncated or with one structural
//! byte deleted, which must be `Err`.

use std::path::Path;

use atos_trace::json::{self, MAX_DEPTH};
use atos_trace::{perfetto, TraceBuffer, Tracer, Track};
use proptest::collection::vec;
use proptest::prelude::*;

/// What the parser has to disambiguate or balance.
const HARD_CASES: &[&str] = &[
    "{", "}", "[", "]", "\"", "\\", "\\u", "\\u00e9", "\\ud800", "\\x", ":", ",", "\"k\":", "true",
    "tru", "false", "null", "nul", "-", "-0", "1e", "1e999", "0.5", ".5", "+1", "é", " ", "\n",
];

/// A Chrome trace as the exporter writes it.
fn chrome_trace() -> String {
    let mut buf = TraceBuffer::new();
    buf.span(Track::pe(0), 0, 1_500, "step", ["tasks", "edges"], [3, 17]);
    buf.instant(Track::pe(1), 900, "msg", ["src", ""], [0, 0]);
    buf.counter(Track::pe(1), 900, "recvq", 4);
    buf.span(Track::agg(0, 1), 1_000, 250, "flush[size]", ["tasks", ""], [12, 0]);
    perfetto::to_chrome_json(&buf)
}

/// A keyed report: an object of per-name objects, one a line, mixing
/// integer and fractional numbers.
const KEYED_REPORT: &str = r#"{
  "fig5_scaling_nvlink@a1b2c3": {"wall_s": 0.412, "threads": 2, "sim_events": 81234},
  "table1_datasets": {"wall_s": 2.220, "threads": 1, "sim_threads": 4, "sim_events": 0}
}
"#;

/// Every real document: the exporter's trace, a keyed report and the
/// committed trajectory.
fn documents() -> Vec<String> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let trajectory = std::fs::read_to_string(results.join("BENCH_trajectory.json"))
        .expect("BENCH_trajectory.json");
    let docs = vec![chrome_trace(), KEYED_REPORT.to_string(), trajectory];
    for doc in &docs {
        assert!(json::parse(doc).is_ok(), "seed document must parse");
    }
    docs
}

/// Byte offsets whose deletion leaves no valid JSON: the unescaped quotes
/// (their count turns odd) and the brackets outside strings (they stop
/// balancing).
fn structural(doc: &str) -> Vec<usize> {
    let (mut out, mut in_str, mut escaped) = (Vec::new(), false, false);
    for (i, b) in doc.bytes().enumerate() {
        if escaped {
            escaped = false;
        } else if in_str && b == b'\\' {
            escaped = true;
        } else if b == b'"' {
            in_str = !in_str;
            out.push(i);
        } else if !in_str && b"{}[]".contains(&b) {
            out.push(i);
        }
    }
    out
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        assert!(json::parse(&open.repeat(100_000)).is_err(), "{open} x 100 000");
    }
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::parse(&nest(MAX_DEPTH)).is_ok());
    let too_deep = json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
    assert!(too_deep.contains("nesting deeper than"), "{too_deep}");
    assert!(json::parse(&nest(100_000)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_without_panic(
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(0usize..HARD_CASES.len(), 0..64),
    ) {
        // Interleave raw bytes (lossily decoded: still valid UTF-8) with
        // the hard cases, a few bytes between each.
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        let mut chunks = raw.char_indices().step_by(3).map(|(i, _)| i).chain([raw.len()]);
        let mut text = String::new();
        let mut from = chunks.next().unwrap_or(0);
        for pick in picks {
            let to = chunks.next().unwrap_or(raw.len());
            text.push_str(&raw[from..to]);
            text.push_str(HARD_CASES[pick]);
            from = to;
        }
        text.push_str(&raw[from..]);
        let _ = json::parse(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn near_miss_documents_are_errors(cut in any::<usize>(), drop in any::<usize>()) {
        for doc in documents() {
            // Every proper prefix of an object or array lacks its closer.
            let body = doc.trim_end();
            let mut at = cut % body.len();
            while !body.is_char_boundary(at) {
                at -= 1;
            }
            prop_assert!(json::parse(&body[..at]).is_err(), "prefix of {at} bytes parsed");

            let marks = structural(&doc);
            let mut mangled = doc.clone();
            let removed = mangled.remove(marks[drop % marks.len()]);
            prop_assert!(json::parse(&mangled).is_err(), "deleting a {removed:?} parsed");
        }
    }
}
