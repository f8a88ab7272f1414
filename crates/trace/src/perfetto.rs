//! Chrome/Perfetto `trace_event` JSON export.
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

use crate::{escape, EventKind, Time, TraceBuffer, TraceEvent};

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
            parts.push(format!("\"{}\":{val}", escape(name)));
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
            escape(&track.label())
        ));
    }
    for (_, ev) in order {
        let common = format!(
            "\"name\":\"{}\",\"cat\":\"atos\",\"pid\":0,\"tid\":{},\"ts\":{}",
            escape(ev.name),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, Track};

    /// Every phase on every kind of track, recorded out of time order:
    /// two events share a time on different tracks, two share a time on
    /// one track, and one name needs escaping.
    fn demo() -> TraceBuffer {
        let mut b = TraceBuffer::new();
        b.counter(Track::ENGINE, 2_000, "heap", 7);
        b.span(
            Track::pe(1),
            1_000,
            1_500,
            "step",
            ["tasks", "edges"],
            [4, 9],
        );
        b.instant(Track::pe(0), 1_000, "msg", ["latency", ""], [400, 0]);
        b.span(
            Track::agg(0, 1),
            250,
            750,
            "flush[size]",
            ["bytes", ""],
            [256, 0],
        );
        b.span(Track::pe(1), 1_000, 500, "send", ["", ""], [0, 0]);
        b.instant(Track::pe(0), 1_234_567, "a\"b\\c\n\u{1}", ["", "n"], [0, 3]);
        b.counter(Track::pe(0), 0, "worklist", 2);
        b
    }

    /// The whole document, byte for byte: the envelope, one metadata
    /// record per track, every required field of each phase, the
    /// escaping, and the `(time, track, recording order)` sort.
    const DEMO: &str = r#"{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"atos (virtual time)"}},
{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"pe0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"pe1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":65537,"args":{"name":"agg 0->1"}},
{"name":"thread_name","ph":"M","pid":0,"tid":4294967295,"args":{"name":"engine"}},
{"name":"worklist","cat":"atos","pid":0,"tid":0,"ts":0.000,"ph":"C","args":{"value":2}},
{"name":"flush[size]","cat":"atos","pid":0,"tid":65537,"ts":0.250,"ph":"X","dur":0.750,"args":{"bytes":256}},
{"name":"msg","cat":"atos","pid":0,"tid":0,"ts":1.000,"ph":"i","s":"t","args":{"latency":400}},
{"name":"step","cat":"atos","pid":0,"tid":1,"ts":1.000,"ph":"X","dur":1.500,"args":{"tasks":4,"edges":9}},
{"name":"send","cat":"atos","pid":0,"tid":1,"ts":1.000,"ph":"X","dur":0.500,"args":{}},
{"name":"heap","cat":"atos","pid":0,"tid":4294967295,"ts":2.000,"ph":"C","args":{"value":7}},
{"name":"a\"b\\c\n\u0001","cat":"atos","pid":0,"tid":0,"ts":1234.567,"ph":"i","s":"t","args":{"n":3}}
],"displayTimeUnit":"ms"}
"#;

    #[test]
    fn export_is_the_expected_text() {
        assert_eq!(to_chrome_json(&demo()), DEMO);
    }
}
