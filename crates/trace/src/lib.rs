//! Virtual-time tracing and metrics for the Atos workspace.
//!
//! The paper's central claims are *temporal* — Atos "smooths the
//! interconnection usage" (Fig. 10), overlaps communication with compute,
//! and keeps PEs busy between kernel boundaries — so end-of-run aggregates
//! are not enough to diagnose scheduling pathologies. This crate provides
//! the timeline layer:
//!
//! * [`Tracer`] — an object-safe event sink trait. Producers (the sim
//!   engine, the core runtime, the bench harness) call the default
//!   [`span`](Tracer::span) / [`instant`](Tracer::instant) /
//!   [`counter`](Tracer::counter) helpers, which are guarded by
//!   [`is_enabled`](Tracer::is_enabled) so a monomorphized [`NullTracer`]
//!   compiles to nothing — the disabled path adds zero allocations and
//!   (after inlining) zero instructions per task.
//! * [`TraceBuffer`] — an in-memory sink with query helpers (tracks,
//!   events by name, counter peaks) used by tests and analysis code.
//! * [`perfetto`] — a Chrome/Perfetto `trace_event` JSON writer, so
//!   traces load directly in `ui.perfetto.dev`.
//! * [`MetricsRegistry`] — a named-counter snapshot serialized to JSON by
//!   the bench binaries' `--metrics` flag.
//!
//! All timestamps are **virtual nanoseconds** from the simulator clock,
//! not wall time: a trace is a deterministic artifact of the modeled
//! execution and is byte-identical across runs and host thread counts.
//!
//! This crate is a workspace leaf (it depends on nothing) so every other
//! crate can use it without cycles; [`Time`] mirrors `atos_sim::Time`.

#![warn(missing_docs)]

pub mod buffer;
pub mod metrics;
pub mod perfetto;

pub use buffer::TraceBuffer;
pub use metrics::MetricsRegistry;

/// Escape `s` for embedding in a JSON string (adds no quotes). The
/// writers' one JSON need: the crate writes JSON and reads none.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Virtual time in nanoseconds (mirrors `atos_sim::Time`; duplicated here
/// so the trace crate stays a dependency-free leaf).
pub type Time = u64;

/// Identifies the timeline ("thread" in Chrome trace terms) an event
/// belongs to. Encoding:
///
/// * `0 ..= 0xFFFF` — per-PE tracks ([`Track::pe`]): kernel-step spans,
///   message instants, occupancy counters.
/// * `0x1_0000 ..` — per-`(src, dst)` aggregation-window tracks
///   ([`Track::agg`]). Windows on one src→dst pair are sequential in
///   virtual time, so spans on one track never overlap and nest trivially.
/// * [`Track::ENGINE`] — simulator-engine-wide events (event-heap depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track(pub u32);

const AGG_BASE: u32 = 1 << 16;
const AGG_STRIDE: u32 = 1 << 12;

impl Track {
    /// Engine-wide track (event-heap occupancy and dispatch counts).
    pub const ENGINE: Track = Track(u32::MAX);

    /// The track of processing element `pe`.
    pub fn pe(pe: usize) -> Track {
        debug_assert!(pe < AGG_BASE as usize, "pe index {pe} out of track range");
        Track(pe as u32)
    }

    /// The aggregation-window track for messages staged at `src` bound
    /// for `dst`.
    pub fn agg(src: usize, dst: usize) -> Track {
        debug_assert!(src < AGG_STRIDE as usize && dst < AGG_STRIDE as usize);
        Track(AGG_BASE + (src as u32) * AGG_STRIDE + dst as u32)
    }

    /// Human-readable label, used for Perfetto `thread_name` metadata.
    pub fn label(self) -> String {
        if self == Track::ENGINE {
            "engine".to_string()
        } else if self.0 < AGG_BASE {
            format!("pe{}", self.0)
        } else {
            let rel = self.0 - AGG_BASE;
            format!("agg {}->{}", rel / AGG_STRIDE, rel % AGG_STRIDE)
        }
    }
}

impl core::fmt::Display for Track {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

/// What kind of mark an event leaves on its track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration starting at [`TraceEvent::at`] and lasting `dur` ns
    /// (Chrome `"X"` complete event).
    Span {
        /// Duration in virtual nanoseconds.
        dur: Time,
    },
    /// A point-in-time mark (Chrome `"i"` instant).
    Instant,
    /// A sampled counter value (Chrome `"C"` counter event).
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// One trace record. `name` and `arg_names` are `&'static str` so
/// recording never allocates; producers attach up to two numeric
/// arguments (unused slots carry an empty name and are not exported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-time stamp (span start for [`EventKind::Span`]).
    pub at: Time,
    /// Timeline the event belongs to.
    pub track: Track,
    /// Event name (e.g. `"step"`, `"flush[size]"`, `"msg"`).
    pub name: &'static str,
    /// Span / instant / counter discriminator.
    pub kind: EventKind,
    /// Names for the numeric arguments; `""` marks an unused slot.
    pub arg_names: [&'static str; 2],
    /// Values for the numeric arguments, parallel to `arg_names`.
    pub arg_vals: [u64; 2],
}

/// An event sink stamped in virtual time.
///
/// Object safe: hot paths that must stay monomorphized take a generic
/// `Tr: Tracer` (defaulted to [`NullTracer`]), while convenience entry
/// points accept `&mut dyn Tracer`. The provided helpers check
/// [`is_enabled`](Tracer::is_enabled) first, so with `NullTracer` the
/// compiler deletes the recording code entirely.
pub trait Tracer {
    /// Whether events are being collected. Producers may use this to skip
    /// argument computation; the provided helpers already check it.
    fn is_enabled(&self) -> bool;

    /// Record one event. Only called when [`is_enabled`](Tracer::is_enabled)
    /// returns true (via the helpers); direct callers should honor the same
    /// contract.
    fn record(&mut self, ev: TraceEvent);

    /// Record a duration of `dur` ns starting at `at`.
    #[inline]
    fn span(
        &mut self,
        track: Track,
        at: Time,
        dur: Time,
        name: &'static str,
        arg_names: [&'static str; 2],
        arg_vals: [u64; 2],
    ) {
        if self.is_enabled() {
            self.record(TraceEvent {
                at,
                track,
                name,
                kind: EventKind::Span { dur },
                arg_names,
                arg_vals,
            });
        }
    }

    /// Record a point-in-time mark at `at`.
    #[inline]
    fn instant(
        &mut self,
        track: Track,
        at: Time,
        name: &'static str,
        arg_names: [&'static str; 2],
        arg_vals: [u64; 2],
    ) {
        if self.is_enabled() {
            self.record(TraceEvent {
                at,
                track,
                name,
                kind: EventKind::Instant,
                arg_names,
                arg_vals,
            });
        }
    }

    /// Record a sampled counter value at `at`.
    #[inline]
    fn counter(&mut self, track: Track, at: Time, name: &'static str, value: u64) {
        if self.is_enabled() {
            self.record(TraceEvent {
                at,
                track,
                name,
                kind: EventKind::Counter { value },
                arg_names: ["", ""],
                arg_vals: [0, 0],
            });
        }
    }
}

/// The disabled sink: [`is_enabled`](Tracer::is_enabled) is a constant
/// `false`, so every monomorphized tracing call inlines to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Forwarding impl so `&mut dyn Tracer` (and `&mut TraceBuffer`) can be
/// passed wherever a generic `Tr: Tracer` is expected.
impl<T: Tracer + ?Sized> Tracer for &mut T {
    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        (**self).record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_records_nothing_and_is_disabled() {
        let mut t = NullTracer;
        assert!(!t.is_enabled());
        t.span(Track::pe(0), 0, 10, "step", ["", ""], [0, 0]);
        t.instant(Track::pe(0), 5, "msg", ["", ""], [0, 0]);
        t.counter(Track::pe(0), 5, "occ", 3);
        // Nothing observable; this test pins that the calls compile and
        // the guard path is exercised.
    }

    #[test]
    fn track_labels() {
        assert_eq!(Track::pe(3).label(), "pe3");
        assert_eq!(Track::agg(1, 2).label(), "agg 1->2");
        assert_eq!(Track::ENGINE.label(), "engine");
        assert_eq!(format!("{}", Track::pe(0)), "pe0");
    }

    #[test]
    fn tracks_are_distinct() {
        assert_ne!(Track::pe(0), Track::agg(0, 0));
        assert_ne!(Track::agg(0, 1), Track::agg(1, 0));
        assert_ne!(Track::ENGINE, Track::pe(0));
    }

    #[test]
    fn dyn_tracer_forwards() {
        let mut buf = TraceBuffer::new();
        {
            let fwd: &mut dyn Tracer = &mut buf;
            assert!(fwd.is_enabled());
            fwd.span(Track::pe(1), 100, 50, "step", ["tasks", ""], [4, 0]);
        }
        assert_eq!(buf.events().len(), 1);
        assert_eq!(buf.events()[0].name, "step");
    }
}
