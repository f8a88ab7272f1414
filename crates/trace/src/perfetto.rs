//! Chrome/Perfetto `trace_event` JSON export and validation.
//!
//! The exporter emits the [Trace Event Format] consumed by
//! `ui.perfetto.dev` and `chrome://tracing`: one `"X"` complete event per
//! span, `"i"` instants, `"C"` counters, and `"M"` metadata naming each
//! track. Timestamps are virtual **microseconds** with three decimal
//! places — exact nanosecond resolution rendered with integer arithmetic,
//! so the output is byte-identical across runs of a deterministic
//! simulation.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeSet;

use crate::json::{self, Json};
use crate::{EventKind, Time, TraceBuffer, TraceEvent};

/// Render `ns` as microseconds with exact `.µµµ` nanosecond digits.
fn us(ns: Time) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn args_json(ev: &TraceEvent) -> String {
    let mut parts = Vec::new();
    if let EventKind::Counter { value } = ev.kind {
        parts.push(format!("\"value\":{value}"));
    }
    for (name, val) in ev.arg_names.iter().zip(ev.arg_vals.iter()) {
        if !name.is_empty() {
            parts.push(format!("\"{}\":{val}", json::escape(name)));
        }
    }
    format!("{{{}}}", parts.join(","))
}

/// Serialize `buf` as a Chrome `trace_event` JSON document.
///
/// Events are sorted by `(time, track, recording order)`, preceded by
/// `process_name` / `thread_name` metadata for every track, so the output
/// is deterministic and loads with labeled timelines.
pub fn to_chrome_json(buf: &TraceBuffer) -> String {
    let mut order: Vec<(usize, &TraceEvent)> = buf.events().iter().enumerate().collect();
    order.sort_by_key(|&(i, e)| (e.at, e.track, i));

    let mut lines = Vec::with_capacity(order.len() + buf.tracks().len() + 1);
    lines.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"atos (virtual time)\"}}"
            .to_string(),
    );
    for track in buf.tracks() {
        lines.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            track.0,
            json::escape(&track.label())
        ));
    }
    for (_, ev) in order {
        let common = format!(
            "\"name\":\"{}\",\"cat\":\"atos\",\"pid\":0,\"tid\":{},\"ts\":{}",
            json::escape(ev.name),
            ev.track.0,
            us(ev.at)
        );
        let line = match ev.kind {
            EventKind::Span { dur } => format!(
                "{{{common},\"ph\":\"X\",\"dur\":{},\"args\":{}}}",
                us(dur),
                args_json(ev)
            ),
            EventKind::Instant => {
                format!(
                    "{{{common},\"ph\":\"i\",\"s\":\"t\",\"args\":{}}}",
                    args_json(ev)
                )
            }
            EventKind::Counter { .. } => {
                format!("{{{common},\"ph\":\"C\",\"args\":{}}}", args_json(ev))
            }
        };
        lines.push(line);
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// What [`validate_chrome_trace`] learned about a document.
#[derive(Debug, Default, Clone)]
pub struct ChromeTraceSummary {
    /// Total events including metadata.
    pub events: usize,
    /// `"X"` complete spans.
    pub spans: usize,
    /// `"i"` instants.
    pub instants: usize,
    /// `"C"` counter samples.
    pub counters: usize,
    /// Distinct non-metadata event names.
    pub names: BTreeSet<String>,
}

/// Parse `text` and check it is structurally valid Chrome `trace_event`
/// JSON: required fields per phase, globally non-decreasing timestamps,
/// and properly nested (never partially overlapping) spans per track.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut summary = ChromeTraceSummary {
        events: events.len(),
        ..ChromeTraceSummary::default()
    };
    let mut last_ts = f64::NEG_INFINITY;
    // Per-tid stack of open span end-times, for nesting checks.
    let mut stacks: std::collections::BTreeMap<i64, Vec<f64>> = Default::default();
    const EPS: f64 = 1e-6;

    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing ph"))?;
        ev.get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing pid"))?;
        if ph == "M" {
            continue;
        }
        summary.names.insert(name.to_string());
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing ts"))?;
        if ts < 0.0 {
            return Err(at("negative ts"));
        }
        if ts + EPS < last_ts {
            return Err(at(&format!("timestamp regression: {ts} after {last_ts}")));
        }
        last_ts = last_ts.max(ts);
        let tid = ev
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| at("missing tid"))? as i64;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| at("span missing dur"))?;
                if dur < 0.0 {
                    return Err(at("negative dur"));
                }
                let stack = stacks.entry(tid).or_default();
                while stack.last().is_some_and(|&end| ts + EPS >= end) {
                    stack.pop();
                }
                if let Some(&end) = stack.last() {
                    if ts + dur > end + EPS {
                        return Err(at(&format!(
                            "span [{ts}, {}] partially overlaps enclosing span ending {end}",
                            ts + dur
                        )));
                    }
                }
                stack.push(ts + dur);
                summary.spans += 1;
            }
            "i" => summary.instants += 1,
            "C" => summary.counters += 1,
            other => return Err(at(&format!("unsupported phase {other:?}"))),
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, Track};

    fn demo() -> TraceBuffer {
        let mut b = TraceBuffer::new();
        b.span(Track::pe(0), 0, 1500, "step", ["tasks", "edges"], [4, 9]);
        b.span(Track::pe(1), 200, 300, "step", ["tasks", ""], [1, 0]);
        b.instant(Track::pe(1), 600, "msg", ["latency", ""], [400, 0]);
        b.counter(Track::pe(0), 1500, "worklist", 2);
        b.span(
            Track::agg(0, 1),
            100,
            900,
            "flush[size]",
            ["bytes", ""],
            [256, 0],
        );
        b
    }

    #[test]
    fn export_validates_and_counts() {
        let text = to_chrome_json(&demo());
        let s = validate_chrome_trace(&text).unwrap();
        assert_eq!(s.spans, 3);
        assert_eq!(s.instants, 1);
        assert_eq!(s.counters, 1);
        assert!(s.names.contains("step"));
        assert!(s.names.contains("flush[size]"));
        assert!(s.names.contains("msg"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(to_chrome_json(&demo()), to_chrome_json(&demo()));
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        let mut b = TraceBuffer::new();
        b.instant(Track::pe(0), 1_234_567, "msg", ["", ""], [0, 0]);
        let text = to_chrome_json(&b);
        assert!(text.contains("\"ts\":1234.567"), "{text}");
    }

    #[test]
    fn validator_rejects_regressions_and_overlaps() {
        let bad_ts = r#"{"traceEvents":[
            {"name":"a","ph":"i","s":"t","pid":0,"tid":0,"ts":5.0},
            {"name":"b","ph":"i","s":"t","pid":0,"tid":0,"ts":1.0}
        ]}"#;
        assert!(validate_chrome_trace(bad_ts)
            .unwrap_err()
            .contains("regression"));

        let overlap = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0.0,"dur":10.0},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":5.0,"dur":10.0}
        ]}"#;
        assert!(validate_chrome_trace(overlap)
            .unwrap_err()
            .contains("overlaps"));

        let nested = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0.0,"dur":10.0},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":2.0,"dur":3.0},
            {"name":"c","ph":"X","pid":0,"tid":0,"ts":6.0,"dur":4.0}
        ]}"#;
        assert!(validate_chrome_trace(nested).is_ok());
    }

    #[test]
    fn validator_requires_fields() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"i"}]}"#).is_err());
    }
}
