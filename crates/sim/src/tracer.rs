//! Cycle-attribution tracing: scoped span events over simulated time.
//!
//! Counters say *how often* something happened; the [`Tracer`] says
//! *where the cycles went*.  Model components emit [`Phase`]-tagged spans
//! (`tracer.span(Phase::OtpGen, begin, end)`) as they account simulated
//! work.  The tracer always aggregates per-phase totals (cycles and span
//! counts, O(1) per span); when capture is enabled it additionally keeps
//! a bounded buffer of individual spans for export as a Chrome
//! trace-event JSON, viewable in `about://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Timestamps in the export are simulated **cycles**, written into the
//! trace-event `ts`/`dur` fields (the viewer labels them µs; the unit is
//! nominal).  Each phase gets its own thread track so overlapping spans
//! from different phases render side by side.
//!
//! # Example
//!
//! ```
//! use secpb_sim::cycle::Cycle;
//! use secpb_sim::tracer::{Phase, Tracer};
//!
//! let mut t = Tracer::new();
//! t.span(Phase::OtpGen, Cycle(100), Cycle(140));
//! t.span(Phase::OtpGen, Cycle(200), Cycle(240));
//! assert_eq!(t.cycles(Phase::OtpGen), 80);
//! assert_eq!(t.count(Phase::OtpGen), 2);
//! ```

use crate::cycle::Cycle;
use crate::json::Json;
use crate::telemetry::{TelemetryEvent, TelemetrySink};

/// The traced phases of the secure persist path.
///
/// The first seven mirror the paper's cycle-consuming components; the
/// `MemRead` phase covers cache-hierarchy fills observed on loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A store entering the persist path (SecPB allocate or coalesce).
    StorePersist,
    /// Fetching (and missing on) an encryption counter.
    CounterFetch,
    /// Generating an OTP (counter-mode AES pad).
    OtpGen,
    /// Updating Bonsai Merkle Tree nodes up to the root.
    BmtUpdate,
    /// Computing a data MAC.
    Mac,
    /// Draining a SecPB entry to the NVM write queue.
    Drain,
    /// The core stalled because the SecPB (or its watermark) was full.
    FullStall,
    /// A demand load filling from the cache hierarchy or NVM.
    MemRead,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASE_COUNT: usize = 8;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::StorePersist,
        Phase::CounterFetch,
        Phase::OtpGen,
        Phase::BmtUpdate,
        Phase::Mac,
        Phase::Drain,
        Phase::FullStall,
        Phase::MemRead,
    ];

    /// The stable snake_case span name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Phase::StorePersist => "store_persist",
            Phase::CounterFetch => "counter_fetch",
            Phase::OtpGen => "otp_gen",
            Phase::BmtUpdate => "bmt_update",
            Phase::Mac => "mac",
            Phase::Drain => "drain",
            Phase::FullStall => "full_stall",
            Phase::MemRead => "mem_read",
        }
    }

    /// The phase's position in [`Phase::ALL`] — the stable small integer
    /// used as the Chrome-trace tid offset and the telemetry wire code.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The inverse of [`Phase::index`]; `None` if out of range.
    pub fn from_index(index: usize) -> Option<Phase> {
        Phase::ALL.get(index).copied()
    }
}

/// One captured span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Which phase the span belongs to.
    pub phase: Phase,
    /// Start, in simulated cycles.
    pub begin: u64,
    /// Length, in simulated cycles.
    pub duration: u64,
}

/// Per-phase cycle aggregation plus optional bounded span capture.
///
/// Like [`crate::stats::Stats`], a tracer may carry a live
/// [`TelemetrySink`]: every nonzero-length span is then mirrored into
/// the ring as a [`TelemetryEvent::Span`].  The sink is ignored by
/// `PartialEq`, dropped by `Clone` (clones are snapshots), and kept by
/// [`Tracer::reset`].
#[derive(Debug)]
pub struct Tracer {
    cycles: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
    events: Vec<SpanEvent>,
    capture_capacity: usize,
    dropped: u64,
    sink: Option<TelemetrySink>,
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            cycles: self.cycles,
            counts: self.counts,
            events: self.events.clone(),
            capture_capacity: self.capture_capacity,
            dropped: self.dropped,
            sink: None,
        }
    }
}

impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.counts == other.counts
            && self.events == other.events
            && self.capture_capacity == other.capture_capacity
            && self.dropped == other.dropped
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An aggregation-only tracer (no span capture).
    pub fn new() -> Self {
        Tracer {
            cycles: [0; PHASE_COUNT],
            counts: [0; PHASE_COUNT],
            events: Vec::new(),
            capture_capacity: 0,
            dropped: 0,
            sink: None,
        }
    }

    /// A tracer that also captures up to `capacity` individual spans for
    /// Chrome-trace export; further spans still aggregate but are counted
    /// as [`Self::dropped`].
    pub fn with_capture(capacity: usize) -> Self {
        let mut t = Tracer::new();
        t.capture_capacity = capacity;
        t
    }

    /// Attaches (or with `None` detaches) a live telemetry sink; every
    /// nonzero-length span is then mirrored into the ring.  Survives
    /// [`Self::reset`]; dropped by `Clone`.
    pub fn set_sink(&mut self, sink: Option<TelemetrySink>) {
        self.sink = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn sink(&self) -> Option<&TelemetrySink> {
        self.sink.as_ref()
    }

    /// Records a span covering `[begin, end)` in simulated time.
    ///
    /// Zero-length spans still count toward [`Self::count`] (the event
    /// happened, it just cost no cycles) but are not captured.
    #[inline]
    pub fn span(&mut self, phase: Phase, begin: Cycle, end: Cycle) {
        let duration = end.since(begin);
        let i = phase.index();
        self.cycles[i] += duration;
        self.counts[i] += 1;
        if duration > 0 {
            if let Some(sink) = &self.sink {
                sink.emit(&TelemetryEvent::Span {
                    phase,
                    begin: begin.raw(),
                    duration,
                });
            }
        }
        if self.capture_capacity > 0 && duration > 0 {
            if self.events.len() < self.capture_capacity {
                self.events.push(SpanEvent {
                    phase,
                    begin: begin.raw(),
                    duration,
                });
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Total cycles attributed to `phase`.
    pub fn cycles(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Number of spans recorded for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Captured spans, in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Spans that exceeded the capture buffer (aggregated but not
    /// exported).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Zeroes aggregates and clears captured spans; the capture setting
    /// is kept.  Used at measurement-region boundaries.
    pub fn reset(&mut self) {
        self.cycles = [0; PHASE_COUNT];
        self.counts = [0; PHASE_COUNT];
        self.events.clear();
        self.dropped = 0;
    }

    /// Merges another tracer's aggregates (and captured spans, up to
    /// capacity) into this one.
    pub fn merge(&mut self, other: &Tracer) {
        for i in 0..PHASE_COUNT {
            self.cycles[i] += other.cycles[i];
            self.counts[i] += other.counts[i];
        }
        self.dropped += other.dropped;
        for e in &other.events {
            if self.capture_capacity > 0 && self.events.len() < self.capture_capacity {
                self.events.push(*e);
            } else if self.capture_capacity > 0 {
                self.dropped += 1;
            }
        }
    }

    /// Per-phase aggregate table as JSON:
    /// `{"<span name>": {"cycles": n, "count": n}, ...}` for every phase
    /// with at least one span.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for phase in Phase::ALL {
            if self.count(phase) > 0 {
                obj = obj.field(
                    phase.name(),
                    Json::obj()
                        .field("cycles", self.cycles(phase))
                        .field("count", self.count(phase)),
                );
            }
        }
        obj
    }

    /// Builds a Chrome trace-event JSON document from the captured
    /// spans.  `process` labels the process track (conventionally the
    /// scheme name); `pid` separates multiple exports in one file.
    pub fn chrome_trace(&self, process: &str, pid: u32) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(self.events.len() + 1 + PHASE_COUNT);
        events.push(metadata_event("process_name", pid, 0, process));
        for phase in Phase::ALL {
            events.push(metadata_event(
                "thread_name",
                pid,
                phase.index() as u32 + 1,
                phase.name(),
            ));
        }
        for e in &self.events {
            events.push(
                Json::obj()
                    .field("name", e.phase.name())
                    .field("cat", "secpb")
                    .field("ph", "X")
                    .field("pid", pid)
                    .field("tid", e.phase.index() as u32 + 1)
                    .field("ts", e.begin)
                    .field("dur", e.duration),
            );
        }
        Json::obj()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ns")
            .field(
                "otherData",
                Json::obj().field("dropped_spans", self.dropped),
            )
    }
}

fn metadata_event(kind: &str, pid: u32, tid: u32, name: &str) -> Json {
    Json::obj()
        .field("name", kind)
        .field("ph", "M")
        .field("pid", pid)
        .field("tid", tid)
        .field("args", Json::obj().field("name", name))
}

/// Merges several per-scheme Chrome traces (as produced by
/// [`Tracer::chrome_trace`]) into one document with one process per
/// input.
pub fn merge_chrome_traces(traces: impl IntoIterator<Item = Json>) -> Json {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for t in traces {
        events.extend(
            t.get("traceEvents")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
        if let Some(d) = t.get("otherData").and_then(|o| o.get("dropped_spans")) {
            dropped += d.as_u64().unwrap_or(0);
        }
    }
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ns")
        .field("otherData", Json::obj().field("dropped_spans", dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_without_capture() {
        let mut t = Tracer::new();
        t.span(Phase::Mac, Cycle(10), Cycle(50));
        t.span(Phase::Mac, Cycle(60), Cycle(61));
        t.span(Phase::Drain, Cycle(0), Cycle(5));
        assert_eq!(t.cycles(Phase::Mac), 41);
        assert_eq!(t.count(Phase::Mac), 2);
        assert_eq!(t.cycles(Phase::Drain), 5);
        assert!(t.events().is_empty(), "capture disabled by default");
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capture_is_bounded() {
        let mut t = Tracer::with_capture(2);
        for i in 0..5u64 {
            t.span(Phase::OtpGen, Cycle(i * 10), Cycle(i * 10 + 3));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(
            t.cycles(Phase::OtpGen),
            15,
            "aggregation continues past capacity"
        );
    }

    #[test]
    fn zero_length_spans_count_but_are_not_captured() {
        let mut t = Tracer::with_capture(10);
        t.span(Phase::FullStall, Cycle(7), Cycle(7));
        assert_eq!(t.count(Phase::FullStall), 1);
        assert_eq!(t.cycles(Phase::FullStall), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn reset_keeps_capture_setting() {
        let mut t = Tracer::with_capture(8);
        t.span(Phase::Mac, Cycle(0), Cycle(4));
        t.reset();
        assert_eq!(t.cycles(Phase::Mac), 0);
        assert!(t.events().is_empty());
        t.span(Phase::Mac, Cycle(0), Cycle(4));
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn merge_sums_phases() {
        let mut a = Tracer::new();
        a.span(Phase::Drain, Cycle(0), Cycle(10));
        let mut b = Tracer::new();
        b.span(Phase::Drain, Cycle(5), Cycle(10));
        b.span(Phase::Mac, Cycle(0), Cycle(1));
        a.merge(&b);
        assert_eq!(a.cycles(Phase::Drain), 15);
        assert_eq!(a.count(Phase::Drain), 2);
        assert_eq!(a.count(Phase::Mac), 1);
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Tracer::with_capture(16);
        t.span(Phase::BmtUpdate, Cycle(100), Cycle(180));
        let doc = t.chrome_trace("cobcm", 3);
        let events = doc.get("traceEvents").unwrap().items();
        // 1 process_name + PHASE_COUNT thread_name + 1 span.
        assert_eq!(events.len(), 1 + PHASE_COUNT + 1);
        let span = events.last().unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("name").unwrap().as_str(), Some("bmt_update"));
        assert_eq!(span.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(80));
        assert_eq!(span.get("pid").unwrap().as_u64(), Some(3));
        // The document parses back (valid JSON).
        assert!(Json::parse(&doc.to_pretty()).is_ok());
    }

    #[test]
    fn merge_chrome_traces_concatenates() {
        let mut a = Tracer::with_capture(4);
        a.span(Phase::Mac, Cycle(0), Cycle(2));
        let mut b = Tracer::with_capture(4);
        b.span(Phase::Drain, Cycle(0), Cycle(2));
        let merged = merge_chrome_traces([a.chrome_trace("x", 0), b.chrome_trace("y", 1)]);
        let n = merged.get("traceEvents").unwrap().items().len();
        assert_eq!(n, 2 * (1 + PHASE_COUNT + 1));
    }

    #[test]
    fn to_json_lists_only_active_phases() {
        let mut t = Tracer::new();
        t.span(Phase::CounterFetch, Cycle(0), Cycle(30));
        let j = t.to_json();
        assert_eq!(
            j.get("counter_fetch")
                .unwrap()
                .get("cycles")
                .unwrap()
                .as_u64(),
            Some(30)
        );
        assert!(j.get("mac").is_none());
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "store_persist",
                "counter_fetch",
                "otp_gen",
                "bmt_update",
                "mac",
                "drain",
                "full_stall",
                "mem_read"
            ]
        );
    }
}
