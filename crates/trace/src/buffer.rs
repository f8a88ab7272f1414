//! In-memory trace sink with timeline query helpers.

use crate::{EventKind, Time, TraceEvent, Tracer, Track};

/// Collects every [`TraceEvent`] in memory, in recording order.
///
/// Recording order is *not* globally time-sorted: the runtime records
/// message-arrival instants at dispatch time with future timestamps, so
/// query helpers sort where order matters. Per-track span sequences are
/// non-overlapping by construction (one PE does one thing at a time).
#[derive(Debug, Default, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
}

/// Summary statistics over the gaps between successive event times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterarrivalStats {
    /// Number of gaps (events minus one).
    pub count: usize,
    /// Mean gap in virtual ns.
    pub mean_ns: f64,
    /// Smallest gap in virtual ns.
    pub min_ns: Time,
    /// Largest gap in virtual ns.
    pub max_ns: Time,
}

impl TraceBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Discard all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// All distinct tracks that appear in the buffer, sorted.
    pub fn tracks(&self) -> Vec<Track> {
        let mut t: Vec<Track> = self.events.iter().map(|e| e.track).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Spans on `track`, sorted by start time, as `(start, dur, name)`.
    pub fn spans_on(&self, track: Track) -> Vec<(Time, Time, &'static str)> {
        let mut spans: Vec<(Time, Time, &'static str)> = self
            .events
            .iter()
            .filter(|e| e.track == track)
            .filter_map(|e| match e.kind {
                EventKind::Span { dur } => Some((e.at, dur, e.name)),
                _ => None,
            })
            .collect();
        spans.sort_unstable_by_key(|&(at, dur, _)| (at, dur));
        spans
    }

    /// Busy/idle decomposition of `track` over `[0, run_end]`: total span
    /// time vs everything else. Spans on one track are assumed disjoint
    /// (true for PE step spans and aggregation windows).
    pub fn busy_idle(&self, track: Track, run_end: Time) -> (Time, Time) {
        let busy: Time = self
            .spans_on(track)
            .iter()
            .map(|&(at, dur, _)| dur.min(run_end.saturating_sub(at)))
            .sum();
        (busy, run_end.saturating_sub(busy))
    }

    /// Time-series of counter `name` on `track`, sorted by time.
    pub fn counter_series(&self, track: Track, name: &str) -> Vec<(Time, u64)> {
        let mut series: Vec<(Time, u64)> = self
            .events
            .iter()
            .filter(|e| e.track == track && e.name == name)
            .filter_map(|e| match e.kind {
                EventKind::Counter { value } => Some((e.at, value)),
                _ => None,
            })
            .collect();
        series.sort_unstable_by_key(|&(at, _)| at);
        series
    }

    /// Largest value counter `name` reaches anywhere in the buffer.
    pub fn counter_peak(&self, name: &str) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match e.kind {
                EventKind::Counter { value } => Some(value),
                _ => None,
            })
            .max()
    }

    /// Events named `name` (any kind, any track), sorted by time.
    pub fn events_named(&self, name: &str) -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.name == name)
            .copied()
            .collect();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// Interarrival statistics over the (time-sorted) *end* times of
    /// events whose name starts with `prefix` — e.g. `"flush"` matches
    /// both `flush[size]` and `flush[age]` spans. Returns `None` with
    /// fewer than two matching events.
    pub fn interarrival(&self, prefix: &str) -> Option<InterarrivalStats> {
        let mut ends: Vec<Time> = self
            .events
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .map(|e| match e.kind {
                EventKind::Span { dur } => e.at + dur,
                _ => e.at,
            })
            .collect();
        if ends.len() < 2 {
            return None;
        }
        ends.sort_unstable();
        let gaps: Vec<Time> = ends.windows(2).map(|w| w[1] - w[0]).collect();
        let sum: Time = gaps.iter().sum();
        Some(InterarrivalStats {
            count: gaps.len(),
            mean_ns: sum as f64 / gaps.len() as f64,
            min_ns: *gaps.iter().min().unwrap(),
            max_ns: *gaps.iter().max().unwrap(),
        })
    }
}

impl Tracer for TraceBuffer {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> TraceBuffer {
        let mut b = TraceBuffer::new();
        b.span(Track::pe(0), 0, 100, "step", ["tasks", ""], [4, 0]);
        b.span(Track::pe(0), 250, 50, "step", ["tasks", ""], [1, 0]);
        b.span(Track::pe(1), 10, 20, "step", ["tasks", ""], [2, 0]);
        b.counter(Track::pe(0), 0, "worklist", 4);
        b.counter(Track::pe(0), 250, "worklist", 1);
        b.instant(Track::pe(1), 90, "msg", ["latency", ""], [80, 0]);
        b.span(Track::agg(0, 1), 0, 60, "flush[size]", ["bytes", ""], [128, 0]);
        b.span(Track::agg(0, 1), 100, 40, "flush[age]", ["bytes", ""], [32, 0]);
        b
    }

    #[test]
    fn busy_idle_decomposes_run() {
        let b = demo();
        let (busy, idle) = b.busy_idle(Track::pe(0), 300);
        assert_eq!(busy, 150);
        assert_eq!(idle, 150);
        // Span running past run_end is clipped.
        let (busy, _) = b.busy_idle(Track::pe(0), 260);
        assert_eq!(busy, 110);
    }

    #[test]
    fn counter_series_sorted_and_peak() {
        let b = demo();
        assert_eq!(
            b.counter_series(Track::pe(0), "worklist"),
            vec![(0, 4), (250, 1)]
        );
        assert_eq!(b.counter_peak("worklist"), Some(4));
        assert_eq!(b.counter_peak("nope"), None);
    }

    #[test]
    fn interarrival_over_prefix() {
        let b = demo();
        // flush spans end at 60 and 140 -> one gap of 80.
        let s = b.interarrival("flush").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ns, 80);
        assert_eq!(s.max_ns, 80);
        assert!((s.mean_ns - 80.0).abs() < 1e-9);
        assert!(b.interarrival("msg").is_none()); // single event
    }

    #[test]
    fn tracks_and_named_queries() {
        let b = demo();
        assert_eq!(
            b.tracks(),
            vec![Track::pe(0), Track::pe(1), Track::agg(0, 1)]
        );
        assert_eq!(b.events_named("step").len(), 3);
        assert_eq!(b.spans_on(Track::pe(1)).len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut b = demo();
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }
}
