//! `secpb watch`: live health streaming over any front.
//!
//! A preset of the [scenario runner](crate::scenario): runs a workload on
//! any [`StormFront`] (fanned out across cores on `mc<N>`) with a
//! telemetry ring attached and, at a fixed simulated-cycle interval,
//! drains the ring into a [`HealthMonitor`] and emits a
//! [`HealthSnapshot`] (JSON-lines) — plus, optionally, an incrementally
//! written Chrome trace fed from the same ring.  A storm-style mode runs
//! the runner's crash check every `crash_every` stores so the snapshot
//! stream shows drains, recovery-cycle estimates, and anomaly counters
//! moving under fire.
//!
//! The watch loop is an *observer* of the same deterministic replay the
//! benches run: telemetry events never steer the simulation, so watching
//! a cell does not change what the cell computes.

use std::fmt::Write as _;
use std::io::Write;

use secpb_core::facade::PersistSystem;
use secpb_core::metrics::{counters, histograms};
use secpb_core::scheme::Scheme;
use secpb_energy::drain::secpb_drain_energy;
use secpb_sim::config::SystemConfig;
use secpb_sim::fault::CrashTrigger;
use secpb_sim::telemetry::{
    self, ChromeTraceStream, HealthGauges, HealthMonitor, HealthSnapshot, DEFAULT_RING_CAPACITY,
};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::report::Rendered;
use crate::scenario::{build_front, energy_scheme, run_scenario, Outcome, Scenario, StormFront};

/// Configuration of one watch session.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Which front to run.
    pub front: StormFront,
    /// The metadata-persistence scheme.
    pub scheme: Scheme,
    /// The workload to replay.
    pub profile: WorkloadProfile,
    /// Instruction budget for the replay.
    pub instructions: u64,
    /// Simulated cycles between health snapshots.
    pub interval: u64,
    /// Telemetry ring capacity in events.
    pub ring_capacity: usize,
    /// Storm mode: crash (power loss, full drain), recover, and resync
    /// every this many stores.  `None` replays without crashes.
    pub crash_every: Option<u64>,
    /// Trace and key seed.
    pub seed: u64,
}

impl WatchConfig {
    /// A default session: 200 K instructions, a snapshot every 50 K
    /// cycles, no crashes.
    pub fn new(front: StormFront, scheme: Scheme, profile: WorkloadProfile) -> Self {
        WatchConfig {
            front,
            scheme,
            profile,
            instructions: 200_000,
            interval: 50_000,
            ring_capacity: DEFAULT_RING_CAPACITY,
            crash_every: None,
            seed: 42,
        }
    }

    /// The `--quick` smoke shape: a short storm-style cell (20 K
    /// instructions, a crash every 500 stores) snapshotting every 5 K
    /// cycles — small enough for CI, busy enough that drains, recovery
    /// estimates, and markers all appear in the stream.
    pub fn quick(mut self) -> Self {
        self.instructions = 20_000;
        self.interval = 5_000;
        self.crash_every = Some(500);
        self
    }
}

/// Runs a watch session on `sys`, a front built from `cfg.front`: the
/// scenario runner's power-loss crash check every `crash_every` stores
/// (none without it), with a snapshot taken at every `interval` crossing
/// and once more at the end of the trace.
///
/// Snapshots are appended to `snapshot_out` as JSON lines as they are
/// taken; span events stream into `trace_out` if given (the caller
/// finishes the Chrome document, passing the last snapshot's `dropped`).
/// A writer failure ends the replay as a failure of the [`Outcome`].
///
/// # Errors
///
/// Returns a message if the final snapshot cannot be written.
pub fn run_watch<W: Write, T: Write>(
    cfg: &WatchConfig,
    sys: &mut dyn PersistSystem,
    mut snapshot_out: Option<&mut W>,
    mut trace_out: Option<&mut ChromeTraceStream<T>>,
) -> Result<(Outcome, Vec<HealthSnapshot>), String> {
    let (sink, mut reader) = telemetry::channel(cfg.ring_capacity);
    sys.set_telemetry(Some(sink));
    let mut monitor = HealthMonitor::new();
    let front_name = cfg.front.name();
    let mut snapshots: Vec<HealthSnapshot> = Vec::new();
    // Drains the ring into the monitor (routing spans to the Chrome
    // stream) and emits one snapshot.
    let mut snapshot = |sys: &dyn PersistSystem, cycle: u64| -> Result<(), String> {
        let mut io_err: Option<std::io::Error> = None;
        monitor.absorb_with(&mut reader, |phase, begin, duration| {
            if let (None, Some(stream)) = (&io_err, trace_out.as_deref_mut()) {
                io_err = stream.span(phase, begin, duration).err();
            }
        });
        if let Some(e) = io_err {
            return Err(format!("trace stream write failed: {e}"));
        }
        let snap = monitor.snapshot(
            cycle,
            &front_name,
            sys.scheme().name(),
            sys.stats(),
            &health_gauges(sys),
            histograms::DRAIN_LATENCY,
            reader.dropped(),
        );
        if let Some(out) = snapshot_out.as_deref_mut() {
            writeln!(out, "{}", snap.to_json())
                .map_err(|e| format!("snapshot write failed: {e}"))?;
        }
        snapshots.push(snap);
        Ok(())
    };

    let sc = Scenario {
        trigger: cfg
            .crash_every
            .map_or(CrashTrigger::Never, CrashTrigger::EveryNthStore),
        close_out: false,
        ..Scenario::crash_at_end(cfg.front.fan_out())
    };
    let mut generator = TraceGenerator::new(cfg.profile.clone(), cfg.seed);
    let trace = generator.stream(cfg.instructions);
    let interval = cfg.interval.max(1);
    let mut next_at = interval;
    let outcome = run_scenario(sys, trace, &sc, front_name.clone(), &mut |sys| {
        // Snapshot at every interval crossing (a long stall can cross
        // several at once).
        while sys.finish_time().raw() >= next_at {
            snapshot(sys, next_at)?;
            next_at += interval;
        }
        Ok(())
    });
    // A final snapshot always covers the tail, so even a session shorter
    // than one interval streams at least one snapshot.
    snapshot(sys, sys.finish_time().raw())?;
    Ok((outcome, snapshots))
}

/// The health gauges of a front right now, for a [`HealthSnapshot`]:
/// occupancy, anomalies, NWPE, the battery energy to drain the current
/// occupancy, the recovery latency, and the memo-cache counters.
pub fn health_gauges(sys: &dyn PersistSystem) -> HealthGauges {
    let occupancy = sys.occupancy();
    let memo = sys.memo_stats();
    HealthGauges {
        occupancy,
        anomalies: sys.anomalies(),
        nwpe: sys.stats().ratio(counters::PERSISTS, counters::ALLOCATIONS),
        battery_joules: secpb_drain_energy(energy_scheme(sys.scheme()), occupancy as usize),
        recovery_cycles: sys.recovery_cost().cycles,
        memo_hits: memo.hits,
        memo_misses: memo.misses,
        memo_evictions: memo.evictions,
        ..HealthGauges::default()
    }
}

/// The gate `secpb watch` runs: a watch session whose snapshots go to
/// `out_path` (or inline into the report) and whose spans stream to a
/// Chrome trace at `trace_path`, then a summary.  Fails if no snapshot
/// streamed or the scenario failed (an inconsistent recovery or a
/// model-invariant anomaly).
///
/// # Errors
///
/// Returns a message if the front cannot be built or a file cannot be
/// written.
pub fn run_watch_gate(
    cfg: &WatchConfig,
    bench: &str,
    out_path: Option<&str>,
    trace_path: Option<&str>,
) -> Result<Rendered, String> {
    let mut jsonl: Vec<u8> = Vec::new();
    let mut trace_stream = trace_path
        .map(|path| {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            ChromeTraceStream::new(std::io::BufWriter::new(file), "secpb watch", 0)
                .map_err(|e| format!("{path}: {e}"))
        })
        .transpose()?;
    let mut sys = build_front(cfg.front, SystemConfig::default(), cfg.scheme, cfg.seed)?;
    let (outcome, snapshots) =
        run_watch(cfg, sys.as_mut(), Some(&mut jsonl), trace_stream.as_mut())?;
    let last = snapshots.last();
    let dropped = last.map_or(0, |s| s.dropped);
    if let Some(stream) = trace_stream.as_mut() {
        stream.finish(dropped).map_err(|e| e.to_string())?;
    }

    let mut text = String::new();
    let _ = writeln!(
        text,
        "watch bench={bench} front={} scheme={} instructions={} interval={}",
        cfg.front.name(),
        cfg.scheme,
        cfg.instructions,
        cfg.interval
    );
    match out_path {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("{path}: {e}"))?;
            let _ = writeln!(text, "snapshots    {} -> {path}", snapshots.len());
        }
        None => {
            text.push_str(&String::from_utf8_lossy(&jsonl));
            let _ = writeln!(text, "snapshots    {}", snapshots.len());
        }
    }
    if let Some(path) = trace_path {
        let _ = writeln!(text, "chrome trace {path}");
    }
    let _ = writeln!(text, "events       {}", last.map_or(0, |s| s.events));
    let _ = writeln!(text, "dropped      {dropped}");
    let _ = writeln!(text, "crashes      {}", outcome.crashes);
    let _ = writeln!(text, "cycles       {}", last.map_or(0, |s| s.cycle));
    let _ = writeln!(text, "anomalies    {}", outcome.anomalies);
    let _ = writeln!(text, "consistent   {}", outcome.passed());
    let failure = if snapshots.is_empty() {
        Some("watch: streamed no snapshots".to_owned())
    } else {
        outcome.failure().map(|why| format!("watch: {why}"))
    };
    Ok(Rendered::gate(text, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(front: StormFront) -> WatchConfig {
        WatchConfig::new(
            front,
            Scheme::Cobcm,
            WorkloadProfile::named("gamess").unwrap(),
        )
        .quick()
    }

    fn front(cfg: &WatchConfig) -> Box<dyn PersistSystem + Send> {
        build_front(cfg.front, SystemConfig::default(), cfg.scheme, cfg.seed).unwrap()
    }

    #[test]
    fn quick_watch_streams_snapshots_with_zero_anomalies() {
        let mut jsonl: Vec<u8> = Vec::new();
        let cfg = quick_cfg(StormFront::SecPb);
        let (outcome, snapshots) =
            run_watch::<_, Vec<u8>>(&cfg, front(&cfg).as_mut(), Some(&mut jsonl), None).unwrap();
        assert!(!snapshots.is_empty(), "must stream >= 1 snapshot");
        assert_eq!(outcome.anomalies, 0);
        assert!(outcome.passed(), "{:?}", outcome.failure());
        assert!(outcome.crashes > 0, "quick mode is storm-style");
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(
            text.lines().count(),
            snapshots.len(),
            "one JSON line per snapshot"
        );
        // Snapshots are sequenced, cycle-ordered, and drop-accounted.
        let last = snapshots.last().unwrap();
        assert!(last.events > 0, "the ring must carry events");
        assert_eq!(last.seq, snapshots.len() as u64);
        assert_eq!(last.lossy, last.dropped > 0);
        assert!(last.crashes >= outcome.crashes, "markers reach the stream");
        assert_eq!(last.front, "secpb");
    }

    #[test]
    fn watch_drives_every_front() {
        for f in [
            StormFront::SecPb,
            StormFront::Eadr,
            StormFront::MultiCore(2),
        ] {
            let cfg = quick_cfg(f);
            let (outcome, snapshots) =
                run_watch::<Vec<u8>, Vec<u8>>(&cfg, front(&cfg).as_mut(), None, None)
                    .unwrap_or_else(|e| panic!("{}: {e}", f.name()));
            assert!(!snapshots.is_empty(), "{}", f.name());
            assert_eq!(outcome.anomalies, 0, "{}", f.name());
            assert!(outcome.passed(), "{}: {:?}", f.name(), outcome.failure());
        }
    }

    #[test]
    fn multicore_watch_fans_accesses_out_across_cores() {
        let cfg = quick_cfg(StormFront::MultiCore(2));
        let mut sys = front(&cfg);
        let (outcome, _) = run_watch::<Vec<u8>, Vec<u8>>(&cfg, sys.as_mut(), None, None).unwrap();
        assert!(outcome.passed(), "{:?}", outcome.failure());
        // Core 0 alone never migrates an entry or flushes one for a
        // remote reader: these fire only when the trace drives both cores.
        let stats = sys.stats();
        assert!(
            stats.get("mc.migrations") + stats.get("mc.remote_read_flushes") > 0,
            "a 2-core watch must exercise cross-core coherence"
        );
    }

    #[test]
    fn watching_does_not_steer_the_simulation() {
        // Same replay with and without a crash-free watch: final cycle
        // counts and stats must agree with a bare facade run.
        let cfg = {
            let mut c = quick_cfg(StormFront::SecPb);
            c.crash_every = None;
            c
        };
        let (_, snapshots) =
            run_watch::<Vec<u8>, Vec<u8>>(&cfg, front(&cfg).as_mut(), None, None).unwrap();
        let mut generator = TraceGenerator::new(cfg.profile.clone(), cfg.seed);
        let mut bare = front(&cfg);
        for item in generator.stream(cfg.instructions) {
            bare.step(item);
        }
        let last = snapshots.last().unwrap();
        assert_eq!(last.cycle, bare.finish_time().raw());
        assert_eq!(last.occupancy, bare.occupancy());
        assert_eq!(last.recovery_cycles, bare.recovery_cost().cycles);
    }

    #[test]
    fn chrome_stream_receives_spans_from_the_ring() {
        let mut trace_buf: Vec<u8> = Vec::new();
        let mut stream = ChromeTraceStream::new(&mut trace_buf, "watch", 0).unwrap();
        let cfg = quick_cfg(StormFront::SecPb);
        let (_, snapshots) =
            run_watch::<Vec<u8>, _>(&cfg, front(&cfg).as_mut(), None, Some(&mut stream)).unwrap();
        stream.finish(snapshots.last().unwrap().dropped).unwrap();
        let text = String::from_utf8(trace_buf).unwrap();
        let json = secpb_sim::json::Json::parse(&text).expect("streamed trace must parse");
        let events = json.get("traceEvents").unwrap().items();
        assert!(
            events.len() as u64 > 9,
            "metadata plus at least one streamed span"
        );
    }
}
