//! The crash-scenario runner: one crash → recover → verify loop behind
//! every harness that tests the paper's central claim (the
//! `(C, γ, M, R)` tuple survives power loss at *any* point).
//!
//! A scenario is a front × scheme × trace source × crash trigger ×
//! per-crash check.  [`run_scenario`] replays the trace on a built front,
//! fires the trigger, and runs one crash check at each crash:
//!
//! 1. a crash drain under an optional battery budget, reconciled exactly
//!    against pre-crash occupancy (drained + lost == occupancy),
//! 2. a clean recovery with brown-out staleness accounted,
//! 3. optionally, seed-derived single-bit flips into the persisted
//!    ciphertexts, counter blocks, MACs and BMT root: each must be
//!    *detected*, then is reverted (flips are self-inverse XORs) and the
//!    clean state re-verified,
//! 4. a resync of brown-out-lost blocks so replay continues on the
//!    surviving durable image.
//!
//! Every harness is a preset: the storm's cells, `secpb watch` (plus a
//! snapshot cadence), each recover-sweep point, the grid's per-cell
//! recovery check, and `secpb crash`.  They all return one [`Outcome`].
//! Everything is seed-driven, so a failing scenario is a deterministic
//! reproducer.

use std::fmt::Write as _;

use secpb_core::crash::{CrashKind, CrashReport, DrainPolicy, FaultOutcome};
use secpb_core::eadr::EadrSystem;
use secpb_core::facade::PersistSystem;
use secpb_core::multicore::MultiCoreSystem;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_energy::drain::SchemeKind;
use secpb_mem::store::NvmStore;
use secpb_sim::addr::{Asid, BlockAddr};
use secpb_sim::config::SystemConfig;
use secpb_sim::fault::{pick_victim, BitFlip, CrashTrigger, FaultClock, FlipTarget};
use secpb_sim::json::Json;
use secpb_sim::trace::TraceItem;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::report::Rendered;

/// The energy-model view of a scheme, for brown-out budget conversion.
/// `Sp` persists the full tuple per store like `NoGap`, so it shares
/// NoGap's per-entry footprint (it never buffers entries anyway).
pub fn energy_scheme(scheme: Scheme) -> SchemeKind {
    match scheme {
        Scheme::Bbb => SchemeKind::Bbb,
        Scheme::Cobcm => SchemeKind::Cobcm,
        Scheme::Obcm => SchemeKind::Obcm,
        Scheme::Bcm => SchemeKind::Bcm,
        Scheme::Cm => SchemeKind::Cm,
        Scheme::M => SchemeKind::M,
        Scheme::NoGap | Scheme::Sp => SchemeKind::NoGap,
    }
}

/// Which system front a scenario drives through the [`PersistSystem`]
/// facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormFront {
    /// The single-core SecPB system with the full timing pipeline.
    SecPb,
    /// The secure-eADR whole-hierarchy system.
    Eadr,
    /// The per-core-SecPB directory-coherence system with this many
    /// cores (trace accesses are fanned out round-robin across them).
    MultiCore(usize),
    /// The SecPB system under Triad-NVM selective persistence: BMT
    /// levels `0..N` are persisted durably; recovery folds the rest
    /// from the level-`N-1` frontier.
    Triad(u8),
    /// The SecPB system under the Huang & Hua fast-recovery layout: a
    /// durable shadow copy of the BMT root makes recovery a single
    /// comparison instead of a rebuild.
    FastRec,
}

impl StormFront {
    /// How many cores the single-threaded trace is fanned out across:
    /// the multi-core front's core count, 1 elsewhere.
    pub fn fan_out(self) -> u16 {
        match self {
            StormFront::MultiCore(cores) => u16::try_from(cores).unwrap_or(u16::MAX),
            _ => 1,
        }
    }

    /// The stable front label used by the CLI and every report
    /// (`secpb`, `eadr`, `mc<N>`, `triad<N>`, `fastrec`) — the inverse
    /// of the `FromStr` parse.
    pub fn name(self) -> String {
        match self {
            StormFront::SecPb => "secpb".to_string(),
            StormFront::Eadr => "eadr".to_string(),
            StormFront::MultiCore(n) => format!("mc{n}"),
            StormFront::Triad(n) => format!("triad{n}"),
            StormFront::FastRec => "fastrec".to_string(),
        }
    }
}

impl std::str::FromStr for StormFront {
    type Err = String;

    /// Parses `secpb`, `eadr`, `mc<N>` (e.g. `mc4`), `triad<N>`
    /// (e.g. `triad4`), or `fastrec`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "secpb" => Ok(StormFront::SecPb),
            "eadr" => Ok(StormFront::Eadr),
            "fastrec" => Ok(StormFront::FastRec),
            _ => s
                .strip_prefix("mc")
                .and_then(|n| n.parse::<usize>().ok())
                .map(StormFront::MultiCore)
                .or_else(|| {
                    s.strip_prefix("triad")
                        .and_then(|n| n.parse::<u8>().ok())
                        .map(StormFront::Triad)
                })
                .ok_or_else(|| {
                    format!("unknown front `{s}`; try secpb, eadr, mc<N>, triad<N>, or fastrec")
                }),
        }
    }
}

/// Builds a front to drive through the facade.  Configuration
/// rejections surface as the typed
/// [`ConfigError`](secpb_core::crash::ConfigError)'s friendly message.
pub fn build_front(
    front: StormFront,
    sys_cfg: SystemConfig,
    scheme: Scheme,
    key_seed: u64,
) -> Result<Box<dyn PersistSystem + Send>, String> {
    let secure = |cfg| {
        SecureSystem::build(cfg, scheme, TreeKind::Monolithic, key_seed)
            .map(|s| Box::new(s) as Box<dyn PersistSystem + Send>)
    };
    let built = match front {
        StormFront::SecPb => secure(sys_cfg),
        StormFront::Eadr => return Ok(Box::new(EadrSystem::new(sys_cfg, key_seed))),
        StormFront::MultiCore(cores) => MultiCoreSystem::new(sys_cfg, scheme, cores, key_seed)
            .map(|m| Box::new(m) as Box<dyn PersistSystem + Send>),
        StormFront::Triad(levels) => secure(sys_cfg.with_triad_levels(levels)),
        StormFront::FastRec => secure(sys_cfg.with_shadow_counters(true)),
    };
    built.map_err(|e| format!("invalid configuration: {e}"))
}

/// Which crash kind + drain policy a crash point exercises.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum StormPolicy {
    /// Power loss; everything drains ([`DrainPolicy::DrainAll`]).
    #[default]
    PowerLossDrainAll,
    /// Application crash of ASID 0; only its entries drain
    /// ([`DrainPolicy::DrainProcess`]).
    AppCrashDrainProcess,
}

impl StormPolicy {
    /// Both policies, in sweep order.
    pub const ALL: [StormPolicy; 2] = [
        StormPolicy::PowerLossDrainAll,
        StormPolicy::AppCrashDrainProcess,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StormPolicy::PowerLossDrainAll => "drain-all",
            StormPolicy::AppCrashDrainProcess => "drain-process",
        }
    }

    fn crash_args(self) -> (CrashKind, DrainPolicy) {
        match self {
            StormPolicy::PowerLossDrainAll => (CrashKind::PowerLoss, DrainPolicy::DrainAll),
            StormPolicy::AppCrashDrainProcess => (
                CrashKind::ApplicationCrash(Asid(0)),
                DrainPolicy::DrainProcess,
            ),
        }
    }
}

/// A crash scenario: when to crash and what each crash point checks.
/// The default never crashes mid-trace and checks nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct Scenario {
    /// When a crash fires during replay.
    pub trigger: CrashTrigger,
    /// Crash kind and drain policy of every crash.
    pub policy: StormPolicy,
    /// Bit flips injected (and reverted) at each crash point.
    pub flips_per_crash: u64,
    /// Seed of the flip positions and victims.
    pub flip_seed: u64,
    /// Battery budget, in drained entries, of the triggered crashes;
    /// `None` models a fully provisioned battery.
    pub budget_entries: Option<u64>,
    /// Whether a final full-battery crash follows the trace, so the
    /// trailing window (or, with [`CrashTrigger::Never`], the whole
    /// run) is crash-tested too.
    pub close_out: bool,
    /// Cores the trace's accesses are fanned out across round-robin by
    /// ASID ([`StormFront::fan_out`]); 0 or 1 leaves them as generated.
    pub fan_out: u16,
}

impl Scenario {
    /// Replay, then one power-loss crash with a full battery and a clean
    /// recovery: the grid's, the sweep's and `secpb crash`'s check.
    pub fn crash_at_end(fan_out: u16) -> Self {
        Scenario {
            close_out: true,
            fan_out,
            ..Scenario::default()
        }
    }
}

/// What a scenario observed: the one verdict type every crash harness
/// reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Scenario label (a storm cell or sweep point name).
    pub label: String,
    /// Stores replayed.
    pub stores: u64,
    /// Crash points fired.
    pub crashes: u64,
    /// Entries drained across all crashes.
    pub drained: u64,
    /// Entries lost to brown-outs across all crashes.
    pub lost: u64,
    /// Crashes whose battery budget truncated the drain.
    pub brown_out_crashes: u64,
    /// Flips that landed in the persistent footprint.
    pub flips_injected: u64,
    /// Injected flips caught by integrity verification.
    pub flips_detected: u64,
    /// Flips skipped because the target class had no victim (provably
    /// outside the persistent footprint) or the scheme is insecure.
    pub flips_skipped: u64,
    /// Injected flips that recovery accepted — always a failure.
    pub silent_corruptions: u64,
    /// Model-internal invariants broken during the run (the
    /// `fault.anomalies` counter) — always a failure.
    pub anomalies: u64,
    /// Data blocks the last clean recovery decrypted and verified.
    pub blocks_checked: u64,
    /// Recovery-sweep latency (cycles) for the post-crash persisted
    /// footprint after the close-out crash — the quantity recovery-time
    /// work like Anubis and Triad-NVM optimizes.  Zero without a
    /// close-out crash or when its drain failed.
    pub recovery_cycles: u64,
    /// The last crash that drained, if any.
    pub last_crash: Option<CrashReport>,
    /// Accounting, recovery and sequencing failures, in order.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An outcome that failed before replay started.
    pub fn failed(label: String, why: String) -> Self {
        Outcome {
            label,
            failures: vec![why],
            ..Outcome::default()
        }
    }

    /// Whether the scenario met the contract: zero silent corruptions,
    /// zero anomalies, zero harness failures, every injected flip
    /// detected.
    pub fn passed(&self) -> bool {
        self.silent_corruptions == 0
            && self.anomalies == 0
            && self.failures.is_empty()
            && self.flips_detected == self.flips_injected
    }

    /// Why the scenario failed, or `None` if it passed.
    pub fn failure(&self) -> Option<String> {
        let anomalies =
            (self.anomalies > 0).then(|| format!("{} model-invariant anomalies", self.anomalies));
        let why: Vec<String> = self.failures.iter().cloned().chain(anomalies).collect();
        (!self.passed()).then(|| why.join("; "))
    }

    /// JSON object of the storm counters, one per storm cell.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("cell", self.label.as_str())
            .field("stores", self.stores)
            .field("crashes", self.crashes)
            .field("drained", self.drained)
            .field("lost", self.lost)
            .field("brown_out_crashes", self.brown_out_crashes)
            .field("flips_injected", self.flips_injected)
            .field("flips_detected", self.flips_detected)
            .field("flips_skipped", self.flips_skipped)
            .field("silent_corruptions", self.silent_corruptions)
            .field("anomalies", self.anomalies)
            .field(
                "failures",
                Json::arr(self.failures.iter().map(String::as_str)),
            )
            .field("passed", self.passed())
    }
}

/// Replays `trace` on `sys`, crashing at every trigger point on the same
/// surviving system (and once more after the trace with
/// [`Scenario::close_out`]).  `observe` runs after every trace item and
/// any crash it triggered; an observer error ends the replay as a
/// failure.
pub fn run_scenario(
    sys: &mut dyn PersistSystem,
    trace: impl IntoIterator<Item = TraceItem>,
    sc: &Scenario,
    label: String,
    observe: &mut dyn FnMut(&dyn PersistSystem) -> Result<(), String>,
) -> Outcome {
    let mut out = Outcome {
        label,
        ..Outcome::default()
    };
    let mut clock = FaultClock::new(sc.trigger);
    let mut access_idx = 0u16;
    for mut item in trace {
        if sc.fan_out > 1 {
            if let Some(a) = &mut item.access {
                a.asid = Asid(access_idx % sc.fan_out);
                access_idx = access_idx.wrapping_add(1);
            }
        }
        sys.step(item);
        if item.access.is_some_and(|a| a.is_store()) {
            out.stores += 1;
            if clock.observe_store(sys.finish_time().raw(), sys.drains_in_flight()) {
                crash_point(
                    sys,
                    sc,
                    &mut out,
                    clock.crashes_fired() - 1,
                    sc.budget_entries,
                );
                if !out.failures.is_empty() {
                    break;
                }
            }
        }
        if let Err(e) = observe(sys) {
            out.failures.push(e);
            break;
        }
    }
    if sc.close_out && out.failures.is_empty() {
        crash_point(sys, sc, &mut out, clock.crashes_fired(), None);
        if out.last_crash.is_some() {
            out.recovery_cycles = sys.recovery_cost().cycles;
        }
    }
    out.anomalies = sys.anomalies();
    out
}

/// The one crash check: budgeted drain, accounting reconciliation, clean
/// recovery, flip inject/detect/revert cycles, and golden resync of lost
/// blocks.
fn crash_point(
    sys: &mut dyn PersistSystem,
    sc: &Scenario,
    out: &mut Outcome,
    injection: u64,
    budget_entries: Option<u64>,
) {
    let occupancy = sys.occupancy();
    let (kind, policy) = sc.policy.crash_args();
    out.last_crash = None;
    let report = match sys.crash_with_budget(kind, policy, budget_entries) {
        Ok(r) => r,
        Err(e) => {
            out.failures
                .push(format!("crash {injection}: drain failed: {e}"));
            return;
        }
    };
    out.crashes += 1;
    out.drained += report.work.entries;
    out.lost += report.lost_block_count();
    if report.lost_block_count() > 0 {
        out.brown_out_crashes += 1;
    }

    // Exact brown-out accounting: the battery drains the oldest
    // min(occupancy, budget) entries and loses the rest — nothing more,
    // nothing less.  (Under drain-process the eligible set is the
    // process's entries, a subset of occupancy.)
    let eligible = report.work.entries + report.lost_block_count();
    if sc.policy == StormPolicy::PowerLossDrainAll && eligible != occupancy {
        out.failures.push(format!(
            "crash {injection}: drained {} + lost {} != occupancy {occupancy}",
            report.work.entries,
            report.lost_block_count()
        ));
    }
    if let Some(budget) = budget_entries {
        let expected = eligible.min(budget);
        if report.work.entries != expected {
            out.failures.push(format!(
                "crash {injection}: drained {} entries under a {budget}-entry budget \
                 (expected {expected})",
                report.work.entries
            ));
        }
    }

    let lost = report.lost_blocks.clone();
    out.last_crash = Some(report);

    // Clean recovery with staleness accounted must verify.
    let clean = sys.recover_with(&lost);
    out.blocks_checked = clean.blocks_checked;
    if !clean.is_consistent() {
        out.failures.push(format!(
            "crash {injection}: recovery inconsistent: root_ok={}, mac_failures={}, \
             plaintext_mismatches={}",
            clean.root_ok,
            clean.mac_failures.len(),
            clean.plaintext_mismatches.len()
        ));
        return;
    }

    // Flip storm: inject, demand detection, revert.  Insecure schemes
    // have no integrity metadata to attack, so flips are out of model.
    if !sys.secure() {
        out.flips_skipped += sc.flips_per_crash;
    } else if sc.flips_per_crash > 0 {
        for f in 0..sc.flips_per_crash {
            let idx = injection * sc.flips_per_crash + f;
            let flip = BitFlip::derive(sc.flip_seed, idx);
            let Some(desc) = apply_flip(sys.nvm_store_mut(), flip, sc.flip_seed, idx) else {
                out.flips_skipped += 1;
                continue;
            };
            out.flips_injected += 1;
            let faulty = sys.recover_with(&lost);
            match FaultOutcome::classify(true, &faulty) {
                FaultOutcome::DetectedAndRejected => out.flips_detected += 1,
                outcome => {
                    out.silent_corruptions += 1;
                    out.failures.push(format!(
                        "crash {injection}: flip of {desc} -> {}",
                        outcome.name()
                    ));
                }
            }
            // Self-inverse: the identical tamper restores the bit.
            if apply_flip(sys.nvm_store_mut(), flip, sc.flip_seed, idx).is_none() {
                out.failures.push(format!(
                    "crash {injection}: could not revert flip of {desc}"
                ));
                return;
            }
        }
        if !sys.recover_with(&lost).is_consistent() {
            out.failures.push(format!(
                "crash {injection}: state inconsistent after reverting flips"
            ));
            return;
        }
    }

    // Brown-out survivors: the application re-reads the (older, verified)
    // durable image before continuing, so expectations track the
    // truncated state.
    if !lost.is_empty() {
        sys.resync_lost_golden(&lost);
    }
}

/// Applies (or, called again with identical arguments, reverts) one
/// self-inverse bit flip against the NVM store.  Returns a description
/// of the victim, or `None` when the target class has no victim in the
/// persistent footprint.
fn apply_flip(store: &mut NvmStore, flip: BitFlip, seed: u64, injection: u64) -> Option<String> {
    let data_victim = |store: &NvmStore| {
        let mut blocks: Vec<BlockAddr> = store.data_blocks().collect();
        blocks.sort_unstable();
        pick_victim(seed, injection, blocks.len()).map(|i| blocks[i])
    };
    match flip.target {
        FlipTarget::Ciphertext => {
            let victim = data_victim(store)?;
            store
                .tamper_data(victim, flip.byte, flip.bit)
                .then(|| format!("ciphertext {victim} byte {} bit {}", flip.byte, flip.bit))
        }
        FlipTarget::Counter => {
            let mut pages: Vec<u64> = store.counter_pages().collect();
            pages.sort_unstable();
            let victim = pages[pick_victim(seed, injection, pages.len())?];
            store
                .tamper_counters(victim, flip.byte, flip.bit)
                .then(|| format!("counter page {victim} byte {} bit {}", flip.byte, flip.bit))
        }
        FlipTarget::Mac => {
            let victim = data_victim(store)?;
            let bit = ((flip.byte * 8 + flip.bit as usize) % 64) as u8;
            store
                .tamper_mac(victim, bit)
                .then(|| format!("mac of {victim} bit {bit}"))
        }
        FlipTarget::TreeRoot => store
            .tamper_root(flip.byte, flip.bit)
            .then(|| format!("bmt root byte {} bit {}", flip.byte, flip.bit)),
    }
}

/// `secpb crash`: replays `instructions` of `profile` on a front, crashes
/// it (power loss, full battery), recovers, and reports the drain work
/// and the recovery verdict.
///
/// # Errors
///
/// Returns the configuration error if the front cannot be built.
pub fn run_crash(
    front: StormFront,
    scheme: Scheme,
    profile: WorkloadProfile,
    instructions: u64,
) -> Result<Rendered, String> {
    let mut sys = build_front(front, SystemConfig::default(), scheme, 42)?;
    let mut generator = TraceGenerator::new(profile, 42);
    let trace = generator.stream(instructions);
    let sc = Scenario::crash_at_end(front.fan_out());
    let out = run_scenario(sys.as_mut(), trace, &sc, front.name(), &mut |_| Ok(()));
    let mut text = String::new();
    if let Some(report) = &out.last_crash {
        let _ = writeln!(text, "crash at cycle {}", report.at.raw());
        let _ = writeln!(text, "entries drained      {}", report.work.entries);
        let _ = writeln!(
            text,
            "sec-sync complete    cycle {}",
            report.secsync_complete_at.raw()
        );
        let _ = writeln!(text, "macs on battery      {}", report.work.macs);
        let _ = writeln!(
            text,
            "bmt hashes on battery {}",
            report.work.bmt_node_hashes
        );
    }
    let _ = writeln!(text, "blocks recovered     {}", out.blocks_checked);
    let _ = writeln!(text, "estimated recovery   {} cycles", out.recovery_cycles);
    let _ = writeln!(text, "consistent           {}", out.passed());
    let failure = out.failure().map(|why| format!("crash: {why}"));
    Ok(Rendered::gate(text, failure))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_names_round_trip_through_parse() {
        for front in [
            StormFront::SecPb,
            StormFront::Eadr,
            StormFront::MultiCore(4),
            StormFront::Triad(4),
            StormFront::FastRec,
        ] {
            assert_eq!(front.name().parse::<StormFront>(), Ok(front));
        }
        assert!("triadx".parse::<StormFront>().is_err());
    }

    #[test]
    fn failure_text_names_every_failure_and_anomalies() {
        let mut out = Outcome::failed("x".into(), "crash 0: drain failed: boom".into());
        out.anomalies = 2;
        assert_eq!(
            out.failure().as_deref(),
            Some("crash 0: drain failed: boom; 2 model-invariant anomalies")
        );
        assert_eq!(Outcome::default().failure(), None);
    }

    #[test]
    fn crash_at_end_checks_one_clean_recovery() {
        let profile = WorkloadProfile::named("milc").unwrap();
        let mut sys =
            build_front(StormFront::SecPb, SystemConfig::default(), Scheme::Cobcm, 5).unwrap();
        let mut generator = TraceGenerator::new(profile, 5);
        let trace = generator.stream(20_000);
        let sc = Scenario::crash_at_end(1);
        let out = run_scenario(sys.as_mut(), trace, &sc, "end".into(), &mut |_| Ok(()));
        assert!(out.passed(), "{:?}", out.failure());
        assert_eq!(out.crashes, 1);
        assert!(out.stores > 0 && out.blocks_checked > 0);
        assert_eq!(out.recovery_cycles, sys.recovery_cost().cycles);
        assert!(out.last_crash.unwrap().drain_was_complete());
    }

    #[test]
    fn observer_errors_end_the_replay_as_failures() {
        let profile = WorkloadProfile::named("milc").unwrap();
        let mut sys =
            build_front(StormFront::Eadr, SystemConfig::default(), Scheme::Cobcm, 5).unwrap();
        let mut generator = TraceGenerator::new(profile, 5);
        let trace = generator.stream(20_000);
        let sc = Scenario::crash_at_end(1);
        let out = run_scenario(sys.as_mut(), trace, &sc, "obs".into(), &mut |_| {
            Err("sink closed".into())
        });
        assert_eq!(out.failures, ["sink closed"]);
        assert_eq!(out.crashes, 0, "a failed replay is not closed out");
    }
}
