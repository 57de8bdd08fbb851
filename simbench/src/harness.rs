//! The timed loop every workload shares, and the metrics it reports.
//!
//! A run sets the workload up several times (reporting the median as
//! `setup_s`), then replays whole passes over the workload's input until
//! the requested time has passed.  Untraced runs report the end-to-end
//! metrics; traced runs alternate untraced passes with passes that record
//! spans, and report the per-layer metrics plus the difference between
//! the two kinds of pass as the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use secpb_core::metrics::counters;

use crate::measure::{median, percentile, Checks};
use crate::spans::{durations_ms, self_time_by_name, Spans};

/// Workload sizes.  [`Scale::FULL`] is what the benchmark measures; the
/// tests run [`Scale::TINY`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// SPEC-named profiles in the `repro` grid (all 18 at full size).
    pub repro_profiles: usize,
    /// Measured instructions per `repro` cell (warm-up is twice that,
    /// capped as the grid caps it).
    pub repro_instructions: u64,
    /// Epochs per front in one `restart` pass.
    pub restart_epochs: usize,
    /// Trace items per `restart` epoch.
    pub restart_epoch_len: usize,
    /// Instructions per `serve` tenant.
    pub serve_instructions: u64,
    /// Whether the checked-in golden digests apply at this size.
    pub golden: bool,
}

impl Scale {
    /// The measured size.
    pub const FULL: Scale = Scale {
        repro_profiles: 18,
        repro_instructions: 200_000,
        restart_epochs: 200,
        restart_epoch_len: 400,
        serve_instructions: 60_000,
        golden: true,
    };

    /// A size small enough for unit tests.
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        repro_profiles: 2,
        repro_instructions: 2_000,
        restart_epochs: 20,
        restart_epoch_len: 50,
        serve_instructions: 600,
        golden: false,
    };
}

/// What one pass over a workload's input produced.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Host milliseconds of each operation: a grid cell, a restart
    /// cycle, or a service run.
    pub op_ms: Vec<f64>,
    /// Simulated stores in the pass's input (warm-up included, journal
    /// replays not counted again).
    pub stores: u64,
    /// Per-layer counts for this pass, by metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Output checks of this pass.
    pub checks: Checks,
    /// Host seconds the pass took.
    pub wall_s: f64,
}

impl PassLog {
    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }
}

/// A benchmark workload: set-up, whole passes over its input, and the
/// reference checks made after the timed region.
pub trait Workload: Sized {
    /// Builds everything the timed region needs from the seed.
    fn setup(seed: u64, scale: Scale) -> Self;
    /// One whole pass over the workload's input.
    fn pass(&mut self, spans: &mut Spans, log: &mut PassLog);
    /// Checks outputs against references and golden digests, untimed.
    fn verify(&mut self, checks: &mut Checks);
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Untimed runs stop early past this much timed work, so a run on a
/// slow host still exits well within its time limit.
const MAX_TIMED_S: f64 = 100.0;
/// Operations an untraced run measures at least, so its p90 has ten
/// samples beyond it.
const MIN_OPS: usize = 100;

/// The timed passes of one half of a run.
#[derive(Debug)]
pub struct Phase {
    /// One log per pass.
    pub passes: Vec<PassLog>,
    /// Spans recorded (none when untraced).
    pub spans: Spans,
}

impl Phase {
    fn new(traced: bool) -> Self {
        Phase {
            passes: Vec::new(),
            spans: Spans::new(traced),
        }
    }

    /// Host seconds of the phase's passes.
    fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    fn ops(&self) -> impl Iterator<Item = f64> + '_ {
        self.passes.iter().flat_map(|p| p.op_ms.iter().copied())
    }

    /// Mean of a count over the phase's passes.
    fn count(&self, name: &str) -> f64 {
        let sum: f64 = self
            .passes
            .iter()
            .map(|p| p.counts.get(name).copied().unwrap_or(0.0))
            .sum();
        sum / self.passes.len() as f64
    }
}

/// Replays whole passes, taking turns between `phases` so that each sees
/// the same host conditions, until `seconds` have passed and every phase
/// has `min_ops` operations.  Returns the peak resident memory after the
/// first round: later rounds repeat the same work, so growth past it is
/// allocator fragmentation, which varies from run to run.
fn timed<W: Workload>(
    w: &mut W,
    phases: &mut [Phase],
    seconds: f64,
    min_ops: usize,
) -> Option<f64> {
    let mut rss_mb = None;
    let start = Instant::now();
    loop {
        for phase in phases.iter_mut() {
            let mut log = PassLog::default();
            let t = Instant::now();
            w.pass(&mut phase.spans, &mut log);
            log.wall_s = t.elapsed().as_secs_f64();
            phase.passes.push(log);
        }
        if rss_mb.is_none() {
            rss_mb = peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough = phases.iter().all(|p| p.ops().count() >= min_ops);
        if (elapsed >= seconds && enough) || elapsed >= MAX_TIMED_S {
            return rss_mb;
        }
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// Metrics by name: `(value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Output checks over every pass plus the post-run verification.
    pub checks: Checks,
    /// Whole passes timed.
    pub passes: usize,
    /// Operations timed.
    pub ops: usize,
    /// Host seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Spans of the traced passes, when traced.
    pub spans: Option<Spans>,
}

/// Runs workload `W`: set-up, the timed region(s), verification.
pub fn run<W: Workload>(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Report {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(seed, scale));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let setup_s = median(&setups);

    let mut phases = vec![Phase::new(false)];
    if traced {
        phases.push(Phase::new(true));
    }
    let min_ops = if traced { 1 } else { MIN_OPS };
    let rss_mb = timed(&mut w, &mut phases, seconds, min_ops);
    let metrics = if traced {
        per_layer(&phases[0], &phases[1])
    } else {
        end_to_end(&phases[0], setup_s, rss_mb)
    };

    let mut checks = Checks::default();
    let mut passes = 0;
    let mut ops = 0;
    let mut spans = None;
    let mut pass_s = Vec::new();
    for phase in phases {
        passes += phase.passes.len();
        pass_s.extend(phase.passes.iter().map(|p| p.wall_s));
        ops += phase.ops().count();
        for log in phase.passes {
            checks.merge(log.checks);
        }
        // The traced phase, when there is one, comes last.
        if traced {
            spans = Some(phase.spans);
        }
    }
    w.verify(&mut checks);
    let mut metrics = metrics;
    // A metric that could not be measured is a failed run, never a
    // silently missing key.
    metrics.retain(|(name, v, _)| {
        let ok = v.is_finite();
        checks.record(ok, || format!("metric {name} not measurable"));
        ok
    });
    Report {
        metrics,
        checks,
        passes,
        ops,
        pass_s,
        setup_s: setups,
        spans,
    }
}

/// The end-to-end metrics, from an untraced phase.
fn end_to_end(
    phase: &Phase,
    setup_s: f64,
    rss_mb: Option<f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    let ops: Vec<f64> = phase.ops().collect();
    // The median pass, so that a pass slowed by the host's other load
    // does not move the rate.
    let rates: Vec<f64> = phase
        .passes
        .iter()
        .map(|p| p.stores as f64 / p.wall_s)
        .collect();
    vec![
        ("stores_per_s", median(&rates), "stores/s"),
        (
            "op_ms_p50",
            percentile(&ops, 50.0).unwrap_or(f64::NAN),
            "ms",
        ),
        (
            "op_ms_p90",
            percentile(&ops, 90.0).unwrap_or(f64::NAN),
            "ms",
        ),
        ("peak_rss_mb", rss_mb.unwrap_or(f64::NAN), "MB"),
        ("setup_s", setup_s, "s"),
    ]
}

/// Span name → per-layer self-time metric.  Spans not listed here
/// (`cell`, `recovery`, `restart`) group calls into one operation; their
/// self time is the benchmark's own work between calls and is reported
/// as `trace.unattributed_s`.
pub const LAYER_SPANS: [(&str, &str); 11] = [
    ("workloads.gen", "workloads.gen_s"),
    ("system.build", "system.build_s"),
    ("system.warmup", "system.warmup_s"),
    ("system.measure", "system.measure_s"),
    ("system.sync", "system.sync_s"),
    ("recovery.crash", "recovery.crash_s"),
    ("recovery.recover", "recovery.recover_s"),
    ("checkpoint.save", "checkpoint.save_s"),
    ("checkpoint.restore", "checkpoint.restore_s"),
    ("restart.replay", "restart.replay_s"),
    ("serve.run", "serve.run_s"),
];

/// Per-pass counts reported as they are.
pub const COUNTS: [(&str, &str); 24] = [
    ("workloads.items", "count"),
    ("core.stores", "count"),
    ("core.loads", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l2_hits", "count"),
    ("mem.l3_hits", "count"),
    ("mem.load_misses", "count"),
    ("secpb.persists", "count"),
    ("secpb.drains", "count"),
    ("bmt.node_hashes", "count"),
    ("crypto.macs", "count"),
    ("crypto.otps", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("serve.sync_hashes", "count"),
    ("recovery.blocks_checked", "count"),
    ("recovery_cost.hashes_folded", "count"),
    ("recovery_cost.blocks_swept", "count"),
    ("checkpoint.bytes", "B"),
    ("restart.replayed_items", "count"),
    ("serve.epochs", "count"),
    ("pool.executed", "count"),
    ("pool.stolen", "count"),
    ("pool.backpressure_waits", "count"),
];

/// Simulator counters reported per pass under their own names.
pub const SIM_COUNTERS: [&str; 11] = [
    counters::STORES,
    counters::LOADS,
    counters::L1_HITS,
    counters::L2_HITS,
    counters::L3_HITS,
    counters::LOAD_MISSES,
    counters::PERSISTS,
    counters::DRAINS,
    counters::BMT_NODE_HASHES,
    counters::MACS,
    counters::OTPS,
];

/// Span name → per-layer latency percentiles (p50 and p90, in ms).
const LATENCIES: [(&str, &str, &str); 4] = [
    ("cell", "cell_ms_p50", "cell_ms_p90"),
    ("recovery", "recover_ms_p50", "recover_ms_p90"),
    ("checkpoint.save", "checkpoint_ms_p50", "checkpoint_ms_p90"),
    ("restart", "restart_ms_p50", "restart_ms_p90"),
];

/// Counts a workload tallies for the per-store simulation cost: host ns
/// in `run_trace` and the stores it simulated, split by whether the
/// scheme pays for crypto.
pub const BBB_NS: &str = "_bbb.ns";
/// See [`BBB_NS`].
pub const BBB_STORES: &str = "_bbb.stores";
/// See [`BBB_NS`].
pub const SECURE_NS: &str = "_secure.ns";
/// See [`BBB_NS`].
pub const SECURE_STORES: &str = "_secure.stores";

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics, from an untraced and a traced phase over the
/// same workload.  Times and counts are per pass; a layer the workload
/// never calls reads 0, and so does a percentile short of samples.
fn per_layer(plain: &Phase, traced: &Phase) -> Vec<(&'static str, f64, &'static str)> {
    let n = traced.passes.len() as f64;
    let spans = traced.spans.spans();
    let self_ns = self_time_by_name(spans);
    let layer_s = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / 1e9 / n;
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut attributed = 0.0;
    for (span, metric) in LAYER_SPANS {
        attributed += layer_s(span);
        m.push((metric, layer_s(span), "s"));
    }
    for (name, unit) in COUNTS {
        m.push((name, traced.count(name), unit));
    }
    let mut max_depth: f64 = 0.0;
    for p in &traced.passes {
        max_depth = max_depth.max(p.counts.get("pool.max_queue_depth").copied().unwrap_or(0.0));
    }
    m.push(("pool.max_queue_depth", max_depth, "count"));

    let count = |name| traced.count(name);
    m.push((
        "workloads.ns_per_item",
        ratio(layer_s("workloads.gen") * 1e9, count("workloads.items")),
        "ns",
    ));
    m.push((
        "system.ns_per_store.bbb",
        ratio(count(BBB_NS), count(BBB_STORES)),
        "ns",
    ));
    m.push((
        "system.ns_per_store.secure",
        ratio(count(SECURE_NS), count(SECURE_STORES)),
        "ns",
    ));
    m.push((
        "memo.hit_ratio",
        ratio(
            count("memo.hits"),
            count("memo.hits") + count("memo.misses"),
        ),
        "ratio",
    ));
    m.push((
        "recovery.ns_per_block",
        ratio(
            layer_s("recovery.recover") * 1e9,
            count("recovery.blocks_checked"),
        ),
        "ns",
    ));
    m.push((
        "checkpoint.mb_per_s",
        ratio(count("checkpoint.bytes") / 1e6, layer_s("checkpoint.save")),
        "MB/s",
    ));
    for (span, p50, p90) in LATENCIES {
        let samples = durations_ms(spans, span);
        m.push((p50, percentile(&samples, 50.0).unwrap_or(0.0), "ms"));
        m.push((p90, percentile(&samples, 90.0).unwrap_or(0.0), "ms"));
    }
    let wall = traced.wall_s() / n;
    m.push(("trace.wall_s", wall, "s"));
    m.push(("trace.unattributed_s", wall - attributed, "s"));
    let plain_per_pass = plain.wall_s() / plain.passes.len() as f64;
    m.push(("trace.overhead_frac", wall / plain_per_pass - 1.0, "ratio"));
    m
}

/// Peak resident memory of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
