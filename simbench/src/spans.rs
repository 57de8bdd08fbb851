//! Outside-in span recording around calls into the simulator's layers.
//!
//! Every call the benchmark makes into a layer's public function runs
//! inside [`Spans::span`].  The call is always timed (workloads need the
//! durations for their own latency samples), but a span — name, start,
//! end, parent — is only kept when recording is on.  Spans stay in memory
//! until the run ends; [`self_times`] then splits the traced wall time
//! into each layer's self time.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use secpb_sim::json::Json;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or grouping name, e.g. `recovery.recover` or `cell`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    last: Duration,
}

impl Spans {
    /// A recorder that keeps spans when `on`, and otherwise only times.
    pub fn new(on: bool) -> Self {
        Spans {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
            last: Duration::ZERO,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let started = Instant::now();
        let index = self.on.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let result = f(self);
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].end_ns = self.now_ns();
        }
        self.last = started.elapsed();
        result
    }

    /// How long the most recently finished span took.
    pub fn last(&self) -> Duration {
        self.last
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document (complete events,
    /// microsecond timestamps, parent index in `args`).
    pub fn to_chrome_json(&self) -> Json {
        Json::obj().field(
            "traceEvents",
            Json::arr(self.spans.iter().enumerate().map(|(i, s)| {
                Json::obj()
                    .field("name", s.name)
                    .field("ph", "X")
                    .field("pid", 1u64)
                    .field("tid", 1u64)
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", s.ns() as f64 / 1e3)
                    .field(
                        "args",
                        Json::obj().field("id", i as u64).field(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                        ),
                    )
            })),
        )
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Durations in milliseconds of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("cell", 0, 100, None),
            span("gen", 5, 25, Some(0)),
            span("recovery", 40, 90, Some(0)),
            span("crash", 40, 55, Some(2)),
            span("recover", 60, 88, Some(2)),
        ];
        assert_eq!(self_times(&spans), [30, 20, 7, 15, 28]);
        // Self times of a tree always add up to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["recovery"], 7);
        assert_eq!(by_name["cell"], 30);
    }

    #[test]
    fn overlapping_or_overhanging_children_count_once() {
        let spans = [
            span("root", 10, 50, None),
            span("a", 0, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [10, 30) and [45, 50) → 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_sums_by_name() {
        let mut spans = Spans::new(true);
        spans.span("cell", |s| {
            s.span("gen", |_| std::hint::black_box(1 + 1));
            s.span("gen", |_| ());
            s.span("recovery", |s| s.span("crash", |_| ()));
        });
        let recorded = spans.spans();
        let names: Vec<_> = recorded.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cell", "gen", "gen", "recovery", "crash"]);
        assert_eq!(recorded[4].parent, Some(3));
        assert_eq!(recorded[1].parent, Some(0));
        let total: u64 = self_time_by_name(recorded).values().sum();
        assert_eq!(total, recorded[0].ns());
        assert_eq!(durations_ms(recorded, "gen").len(), 2);

        let mut off = Spans::new(false);
        off.span("cell", |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(off.spans().is_empty(), "an untraced recorder keeps nothing");
        assert!(
            off.last() >= Duration::from_millis(1),
            "but still times the call"
        );
    }
}
