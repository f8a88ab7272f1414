//! In-memory trace sink with timeline query helpers.

use crate::{EventKind, TraceEvent, Tracer, Track};

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

impl TraceBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All distinct tracks that appear in the buffer, sorted.
    pub fn tracks(&self) -> Vec<Track> {
        let mut t: Vec<Track> = self.events.iter().map(|e| e.track).collect();
        t.sort_unstable();
        t.dedup();
        t
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
        b.span(
            Track::agg(0, 1),
            0,
            60,
            "flush[size]",
            ["bytes", ""],
            [128, 0],
        );
        b.span(
            Track::agg(0, 1),
            100,
            40,
            "flush[age]",
            ["bytes", ""],
            [32, 0],
        );
        b
    }

    #[test]
    fn counter_peak_is_the_largest_value() {
        let b = demo();
        assert_eq!(b.counter_peak("worklist"), Some(4));
        assert_eq!(b.counter_peak("nope"), None);
    }

    #[test]
    fn tracks_and_named_queries() {
        let b = demo();
        assert_eq!(
            b.tracks(),
            vec![Track::pe(0), Track::pe(1), Track::agg(0, 1)]
        );
        assert_eq!(b.events_named("step").len(), 3);
    }
}
