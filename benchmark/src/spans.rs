//! In-memory span recorder for the traced pass.
//!
//! Spans come from the benchmark's own code, around its calls into each
//! layer's public functions. They are kept in memory and written once, when
//! the workload ends. A span's self time is its duration minus the part of
//! that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Recorder for one workload's spans; `workload` is the identifier every
/// span of the run shares. A disabled recorder (the untraced pass) records
/// nothing.
pub struct Spans {
    workload: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Spans {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Spans {
            workload: workload.to_string(),
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a span the callee timed itself: `dur_s` seconds from
    /// `start`, under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, dur_s: f64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns + (dur_s * 1e9) as u64,
        });
        Some(self.spans.len() - 1)
    }

    /// Lay aggregated children (`name`, seconds) end to end from the start
    /// of `parent`, clipped to it: one child span per kind of callback,
    /// holding the extrapolated total of all its calls.
    pub fn aggregated_children(&mut self, parent: SpanId, children: &[(&'static str, f64)]) {
        let (mut cursor, limit) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for &(name, dur_s) in children {
            let end_ns = (cursor + (dur_s * 1e9) as u64).min(limit);
            self.spans.push(Span {
                name,
                parent: Some(parent),
                start_ns: cursor,
                end_ns,
            });
            cursor = end_ns;
        }
    }

    /// Self time of every span, in recording order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// The trace file: every span with its parent link and self time.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"unit\":\"ns\",\"spans\":[",
            self.workload
        );
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Duration of each span minus the union of its children's intervals,
/// each child clipped to the span (children may overlap one another).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            // Overlaps the previous child: the union 10..50 counts once.
            span(Some(0), 20, 50),
            // Runs past its parent: only 90..100 is inside it.
            span(Some(0), 90, 120),
            // A grandchild reduces its own parent only.
            span(Some(1), 10, 15),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 15, 30, 30, 5]);
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        assert_eq!(self_times_ns(&[span(None, 5, 12)]), vec![7]);
    }

    #[test]
    fn recorder_links_parents_and_clips_aggregates() {
        let mut sp = Spans::new("w", true);
        sp.enter("workload");
        sp.enter("run");
        let run = sp.record("core.run", sp.origin, 1_000e-9).unwrap();
        sp.spans[run].start_ns = 1_000;
        sp.spans[run].end_ns = 2_000;
        sp.aggregated_children(
            run,
            &[("apps.process", 600e-9), ("apps.on_receive", 900e-9)],
        );
        sp.exit();
        sp.exit();
        assert_eq!(sp.spans[1].parent, Some(0));
        assert_eq!(sp.spans[run].parent, Some(1));
        let kids: Vec<_> = sp.spans[run + 1..]
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert_eq!(kids, vec![(1_000, 1_600), (1_600, 2_000)]);
        assert_eq!(sp.self_times_ns()[run], 0);
        assert!(sp.to_json().contains("\"parent\":1,\"name\":\"core.run\""));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut sp = Spans::new("w", false);
        sp.enter("workload");
        assert!(sp.record("core.run", Instant::now(), 1.0).is_none());
        sp.exit();
        assert!(sp.spans.is_empty());
    }
}
