//! Deterministic crash-storm harness: the fault-injection sweep that
//! attacks the paper's central claim (the `(C, γ, M, R)` tuple survives
//! power loss at *any* point).
//!
//! A storm replays one trace per `(front, scheme, policy, trigger)` cell
//! through the [scenario runner](crate::scenario) and crashes the *same
//! surviving system* at every trigger point: each crash drains under an
//! optional battery brown-out budget (converted from joules to entries by
//! the energy model), reconciles the drained/lost split, and injects
//! seed-derived single-bit flips that recovery must detect (a flip that
//! verifies is a silent corruption — a harness failure).
//!
//! Everything is seed-driven: the same [`StormConfig`] replays the same
//! crashes, victims, and bit positions, so a storm failure is a
//! deterministic reproducer.

use secpb_core::scheme::Scheme;
use secpb_energy::drain::{entries_within_budget, secpb_drain_energy};
use secpb_sim::config::SystemConfig;
use secpb_sim::fault::CrashTrigger;
use secpb_sim::json::Json;
use secpb_sim::trace::{TraceItem, TraceSummary};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::report::Rendered;
use crate::scenario::{
    build_front, energy_scheme, run_scenario, Outcome, Scenario, StormFront, StormPolicy,
};

/// Storm parameters.  Fully determines the run: same config, same
/// faults, same verdicts.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Master seed for trace generation, victim picks, and bit positions.
    pub seed: u64,
    /// Workload profile name (see `WorkloadProfile::SPEC_NAMES`).
    pub workload: String,
    /// Starting trace length in instructions (doubled deterministically
    /// until the trace holds at least `min_stores` stores).
    pub instructions: u64,
    /// Minimum stores the storm trace must contain.
    pub min_stores: u64,
    /// Crash every this-many stores.
    pub crash_every: u64,
    /// Bit flips injected (and reverted) at each crash point.
    pub flips_per_crash: u64,
    /// Brown-out battery budget as a fraction of the scheme's provisioned
    /// worst-case drain energy; `None` models a fully provisioned battery.
    pub brown_out_fraction: Option<f64>,
    /// Schemes under storm.
    pub schemes: Vec<Scheme>,
}

impl StormConfig {
    /// The full acceptance-gate storm: every scheme, a trace of at least
    /// 10k stores.
    pub fn full(seed: u64) -> Self {
        StormConfig {
            seed,
            workload: "milc".to_owned(),
            instructions: 200_000,
            min_stores: 10_000,
            crash_every: 1_000,
            flips_per_crash: 4,
            brown_out_fraction: None,
            schemes: Scheme::ALL.to_vec(),
        }
    }

    /// A seconds-scale CI smoke with the same coverage axes.
    pub fn quick(seed: u64) -> Self {
        StormConfig {
            instructions: 6_000,
            min_stores: 200,
            crash_every: 64,
            flips_per_crash: 2,
            ..StormConfig::full(seed)
        }
    }

    /// Returns a copy with the given brown-out fraction.
    pub fn with_brown_out(mut self, fraction: f64) -> Self {
        self.brown_out_fraction = Some(fraction);
        self
    }
}

/// The verdict of a whole storm sweep.
#[derive(Debug, Clone, Default)]
pub struct StormReport {
    /// Per-cell outcomes in sweep order, labelled by [`cell_label`].
    pub cells: Vec<Outcome>,
}

impl StormReport {
    /// Whether every cell passed.
    pub fn passed(&self) -> bool {
        self.cells.iter().all(Outcome::passed)
    }

    /// Total crash points fired.
    pub fn total_crashes(&self) -> u64 {
        self.cells.iter().map(|c| c.crashes).sum()
    }

    /// Total flips that landed in persistent state.
    pub fn total_flips(&self) -> u64 {
        self.cells.iter().map(|c| c.flips_injected).sum()
    }

    /// Total entries lost to brown-outs.
    pub fn total_lost(&self) -> u64 {
        self.cells.iter().map(|c| c.lost).sum()
    }

    /// JSON report (`{"cells": [...], "passed": ...}`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("cells", Json::arr(self.cells.iter().map(Outcome::to_json)))
            .field("total_crashes", self.total_crashes())
            .field("total_flips", self.total_flips())
            .field("total_lost", self.total_lost())
            .field("passed", self.passed())
    }

    /// Aligned text table, one row per cell.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<38} {:>7} {:>7} {:>8} {:>6} {:>6} {:>6} {:>5}\n",
            "cell", "crashes", "drained", "lost", "flips", "caught", "skip", "ok"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<38} {:>7} {:>7} {:>8} {:>6} {:>6} {:>6} {:>5}\n",
                c.label,
                c.crashes,
                c.drained,
                c.lost,
                c.flips_injected,
                c.flips_detected,
                c.flips_skipped,
                if c.passed() { "pass" } else { "FAIL" }
            ));
            for f in &c.failures {
                out.push_str(&format!("    failure: {f}\n"));
            }
        }
        out.push_str(&format!(
            "storm: {} cells, {} crashes, {} flips injected, {} entries lost -> {}\n",
            self.cells.len(),
            self.total_crashes(),
            self.total_flips(),
            self.total_lost(),
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// One-line cell label, e.g. `cobcm/drain-all/every-nth-store`
/// (single-core SecPB), `eadr/drain-all/every-nth-store`, or
/// `mc4-cobcm/drain-all/every-nth-store`.
pub fn cell_label(
    front: StormFront,
    scheme: Scheme,
    policy: StormPolicy,
    trigger: CrashTrigger,
) -> String {
    let head = match front {
        StormFront::SecPb => scheme.name().to_owned(),
        StormFront::Eadr => "eadr".to_owned(),
        _ => format!("{}-{}", front.name(), scheme.name()),
    };
    let trigger = match trigger {
        CrashTrigger::Never => "never",
        CrashTrigger::AtCycle(_) => "at-cycle",
        CrashTrigger::EveryNthStore(_) => "every-nth-store",
        CrashTrigger::MidDrain => "mid-drain",
    };
    format!("{head}/{}/{trigger}", policy.name())
}

/// Deterministic per-cell seed salt so different cells attack different
/// victims/bits while staying replayable.  Bit 4 is a fixed constant so
/// each cell keeps the victims its earlier reports recorded.
fn cell_salt(front: StormFront, scheme: Scheme, policy: StormPolicy) -> u64 {
    let f = match front {
        StormFront::SecPb => 0,
        StormFront::Eadr => 1,
        StormFront::MultiCore(n) => 2 + n as u64,
        StormFront::Triad(n) => 0x100 + n as u64,
        StormFront::FastRec => 0x200,
    };
    let s = Scheme::ALL.iter().position(|&x| x == scheme).unwrap_or(0) as u64;
    let p = matches!(policy, StormPolicy::AppCrashDrainProcess) as u64;
    (f << 16) ^ (s << 8) ^ (1 << 4) ^ (p << 2)
}

/// Generates the storm trace: doubles the instruction count until the
/// trace holds at least `min_stores` stores (deterministic in the seed).
fn storm_trace(cfg: &StormConfig) -> Result<Vec<TraceItem>, String> {
    let profile = WorkloadProfile::named(&cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    let mut instructions = cfg.instructions.max(1_000);
    for _ in 0..12 {
        let trace = TraceGenerator::new(profile.clone(), cfg.seed).generate(instructions);
        if TraceSummary::of(&trace).stores >= cfg.min_stores {
            return Ok(trace);
        }
        instructions *= 2;
    }
    Err(format!(
        "workload `{}` produced fewer than {} stores even at {} instructions",
        cfg.workload, cfg.min_stores, instructions
    ))
}

/// Runs one storm cell: replays the trace, crashing at every trigger
/// point on the same surviving system, then once more after the trace
/// so the trailing partial window is also covered.
pub fn run_cell(
    cfg: &StormConfig,
    front: StormFront,
    scheme: Scheme,
    policy: StormPolicy,
    trigger: CrashTrigger,
) -> Outcome {
    let label = cell_label(front, scheme, policy, trigger);
    let salt = cell_salt(front, scheme, policy);
    let built = storm_trace(cfg).and_then(|trace| {
        let sys = build_front(front, SystemConfig::default(), scheme, cfg.seed ^ salt)?;
        Ok((trace, sys))
    });
    let (trace, mut sys) = match built {
        Ok(built) => built,
        Err(e) => return Outcome::failed(label, e),
    };
    let budget_entries = cfg.brown_out_fraction.map(|fraction| {
        let kind = energy_scheme(scheme);
        let provisioned = secpb_drain_energy(kind, sys.config().secpb.entries);
        entries_within_budget(kind, provisioned * fraction)
    });
    let sc = Scenario {
        trigger,
        policy,
        flips_per_crash: cfg.flips_per_crash,
        flip_seed: cfg.seed ^ salt,
        budget_entries,
        close_out: true,
        fan_out: front.fan_out(),
    };
    run_scenario(sys.as_mut(), trace, &sc, label, &mut |_| Ok(()))
}

/// Runs the full storm sweep: for every scheme, an every-nth-store
/// crash storm under both drain policies plus a mid-drain single crash
/// under drain-all — all on the single-core front — plus an
/// every-nth-store drain-all cell on the eADR, 4-core, Triad-NVM and
/// fast-recovery fronts so every facade implementation faces the same
/// flip storm.
pub fn run_storm(cfg: &StormConfig) -> StormReport {
    let mut report = StormReport::default();
    for &scheme in &cfg.schemes {
        for policy in StormPolicy::ALL {
            report.cells.push(run_cell(
                cfg,
                StormFront::SecPb,
                scheme,
                policy,
                CrashTrigger::EveryNthStore(cfg.crash_every),
            ));
        }
        report.cells.push(run_cell(
            cfg,
            StormFront::SecPb,
            scheme,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::MidDrain,
        ));
    }
    for front in [
        StormFront::Eadr,
        StormFront::MultiCore(4),
        StormFront::Triad(4),
        StormFront::FastRec,
    ] {
        report.cells.push(run_cell(
            cfg,
            front,
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        ));
    }
    report
}

/// The storm gate `secpb storm` runs: [`run_storm`] with a fully
/// provisioned battery, then again under a brown-out battery budgeted at
/// `brown_out` of the provisioned worst case.  Renders each pass as its
/// text table, or with `json` as its JSON document, then one summary
/// line.  The gate fails if either pass fails or the brown-out pass
/// loses no entries.
pub fn run_storm_gate(base: &StormConfig, brown_out: f64, json: bool) -> Rendered {
    let passes = [
        ("storm", run_storm(base)),
        (
            "brown-out",
            run_storm(&base.clone().with_brown_out(brown_out)),
        ),
    ];
    let mut text = String::new();
    let mut failures = 0;
    for (name, report) in &passes {
        if json {
            text.push_str(&report.to_json().to_pretty());
            text.push('\n');
        } else {
            text.push_str(&format!("=== {name} pass ===\n{}", report.render_text()));
        }
        failures += u32::from(!report.passed());
    }
    let [(_, storm), (_, brown)] = &passes;
    if brown.total_lost() == 0 {
        text.push_str(&format!(
            "FAIL brown-out: no entries lost under a {brown_out} battery budget\n"
        ));
        failures += 1;
    }
    let failure =
        (failures > 0).then(|| format!("fault storm: FAILED ({failures} failing check(s))"));
    if failure.is_none() {
        text.push_str(&format!(
            "fault storm: PASS — {} crashes, {} flips all detected, \
             {} brown-out losses all accounted\n",
            storm.total_crashes() + brown.total_crashes(),
            storm.total_flips() + brown.total_flips(),
            storm.total_lost() + brown.total_lost(),
        ));
    }
    Rendered::gate(text, failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_storm_single_cell_passes() {
        let cfg = StormConfig::quick(0x5EC9_B0A2);
        let cell = run_cell(
            &cfg,
            StormFront::SecPb,
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1, "storm should fire repeatedly");
        assert!(cell.flips_injected > 0);
        assert_eq!(cell.flips_detected, cell.flips_injected);
    }

    #[test]
    fn brown_out_cell_loses_and_accounts() {
        let cfg = StormConfig::quick(7).with_brown_out(0.10);
        let cell = run_cell(
            &cfg,
            StormFront::SecPb,
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.lost > 0, "a 10% battery must lose entries");
        assert!(cell.brown_out_crashes > 0);
    }

    #[test]
    fn mid_drain_cell_fires_at_most_once() {
        let cfg = StormConfig::quick(9);
        let cell = run_cell(
            &cfg,
            StormFront::SecPb,
            Scheme::Bcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::MidDrain,
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        // The mid-drain trigger plus the close-out crash.
        assert!(cell.crashes <= 2);
    }

    #[test]
    fn insecure_scheme_skips_flips() {
        let cfg = StormConfig::quick(11);
        let cell = run_cell(
            &cfg,
            StormFront::SecPb,
            Scheme::Bbb,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert_eq!(cell.flips_injected, 0);
        assert!(cell.flips_skipped > 0);
    }

    #[test]
    fn eadr_front_cell_passes() {
        let cfg = StormConfig::quick(19);
        let cell = run_cell(
            &cfg,
            StormFront::Eadr,
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert!(cell.flips_injected > 0, "eADR persists a secure image");
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label.starts_with("eadr/"));
    }

    #[test]
    fn multicore_front_cell_passes() {
        let cfg = StormConfig::quick(23);
        let cell = run_cell(
            &cfg,
            StormFront::MultiCore(4),
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label.starts_with("mc4-cobcm/"));
    }

    #[test]
    fn triad_front_cell_passes() {
        let cfg = StormConfig::quick(31);
        let cell = run_cell(
            &cfg,
            StormFront::Triad(4),
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label.starts_with("triad4-cobcm/"));
    }

    #[test]
    fn fastrec_front_cell_passes() {
        let cfg = StormConfig::quick(37);
        let cell = run_cell(
            &cfg,
            StormFront::FastRec,
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::EveryNthStore(cfg.crash_every),
        );
        assert!(cell.passed(), "{:?}", cell.failures);
        assert!(cell.crashes > 1);
        assert_eq!(cell.flips_detected, cell.flips_injected);
        assert!(cell.label.starts_with("fastrec-cobcm/"));
    }

    #[test]
    fn triad_front_depth_beyond_tree_reports_config_error() {
        let cfg = StormConfig::quick(41);
        let cell = run_cell(
            &cfg,
            StormFront::Triad(200),
            Scheme::Cobcm,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::Never,
        );
        assert!(!cell.passed());
        assert!(cell.failures[0].contains("depth"), "{:?}", cell.failures);
    }

    #[test]
    fn bufferless_scheme_on_multicore_front_reports_config_error() {
        let cfg = StormConfig::quick(29);
        let cell = run_cell(
            &cfg,
            StormFront::MultiCore(2),
            Scheme::Sp,
            StormPolicy::PowerLossDrainAll,
            CrashTrigger::Never,
        );
        assert!(!cell.passed());
        assert!(cell.failures[0].contains("persist-buffer scheme"));
    }

    #[test]
    fn storm_is_deterministic() {
        let cfg = StormConfig {
            schemes: vec![Scheme::Bcm],
            ..StormConfig::quick(13)
        };
        let a = run_storm(&cfg).to_json().to_pretty();
        let b = run_storm(&cfg).to_json().to_pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn report_renders_and_serializes() {
        let cfg = StormConfig {
            schemes: vec![Scheme::NoGap],
            ..StormConfig::quick(17)
        };
        let report = run_storm(&cfg);
        assert!(report.passed(), "{}", report.render_text());
        let text = report.render_text();
        assert!(text.contains("nogap/drain-all/every-nth-store"));
        assert!(text.contains("PASS"));
        let json = report.to_json();
        assert_eq!(json.get("passed").and_then(Json::as_str), None);
        assert!(json.get("cells").is_some());
    }
}
