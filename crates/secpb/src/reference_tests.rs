//! Reference-oracle equivalence suite.
//!
//! Production fronts always run the lazy metadata engine (deferred tree
//! folds, memoized pads and counter digests) on the crypto kernel the
//! host's runtime ISA detection picks.  The eager engine on the `Scalar`
//! kernel recomputes every tree walk and digest on update, one block at
//! a time: it is the reference, and only test code can build it (the
//! fronts' `into_reference`).  Every observable output of the production
//! path — grid-cell JSON, crash reports, persisted roots, stats,
//! recovery verdicts, on every front — must be byte-identical to the
//! reference's.  On an AES-NI/AVX2 host this checks those kernels
//! against `Scalar`; elsewhere it checks the portable fallbacks.

use secpb_sim::addr::{Address, Asid};
use secpb_sim::config::SystemConfig;
use secpb_sim::telemetry;
use secpb_sim::trace::{Access, TraceItem};
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::crash::{CrashKind, DrainPolicy, RecoveryReport};
use crate::eadr::EadrSystem;
use crate::facade::PersistSystem as _;
use crate::metrics::{counters, RunResult};
use crate::multicore::{CoreStore, MultiCoreSystem};
use crate::scheme::Scheme;
use crate::system::SecureSystem;
use crate::tree::TreeKind;

/// Builds the production single-core front, or its reference twin.
fn secure(scheme: Scheme, tree: TreeKind, seed: u64, reference: bool) -> SecureSystem {
    let sys = SecureSystem::with_tree(SystemConfig::default(), scheme, tree, seed);
    if reference {
        sys.into_reference()
    } else {
        sys
    }
}

/// A grid cell: warm up on twice the measured length, reset the
/// measurement, run the measured region, then crash and recover.
/// Returns the measured result, the recovery report, and the estimated
/// recovery cycles.
fn grid_cell(
    workload: &str,
    scheme: Scheme,
    tree: TreeKind,
    instructions: u64,
    reference: bool,
    ring: Option<usize>,
) -> (RunResult, RecoveryReport, u64) {
    let profile = WorkloadProfile::named(workload).unwrap();
    let mut generator = TraceGenerator::new(profile, 0x5EC9 ^ scheme as u64);
    let mut sys = secure(scheme, tree, 0xB0A2, reference);
    let reader = ring.map(|capacity| {
        let (sink, reader) = telemetry::channel(capacity);
        sys.set_telemetry(Some(sink));
        reader
    });
    sys.run_trace(generator.stream(2 * instructions));
    sys.reset_measurement();
    let result = sys.run_trace(generator.stream(instructions));
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let rec = sys.recover();
    assert!(rec.is_consistent(), "{scheme}/{workload}: recovery failed");
    if let Some(mut reader) = reader {
        assert!(reader.pop().is_some(), "telemetered run emitted nothing");
    }
    (result, rec, sys.estimated_recovery_cycles())
}

#[test]
fn grid_json_reports_are_byte_identical_for_all_schemes() {
    let cases = Scheme::ALL.into_iter().map(|s| ("gcc", s, 20_000)).chain([
        ("gamess", Scheme::Bbb, 15_000),
        ("gamess", Scheme::Cobcm, 15_000),
    ]);
    for (workload, scheme, n) in cases {
        let run = |reference| {
            let (result, rec, cycles) =
                grid_cell(workload, scheme, TreeKind::Monolithic, n, reference, None);
            (result.to_json().to_pretty(), rec, cycles)
        };
        assert_eq!(
            run(false),
            run(true),
            "{scheme}/{workload}: grid cell diverged from the reference"
        );
    }
}

#[test]
fn forest_tree_kinds_are_byte_identical() {
    for kind in [TreeKind::Dbmf, TreeKind::Sbmf] {
        let run = |reference| {
            let (result, rec, cycles) =
                grid_cell("povray", Scheme::Cobcm, kind, 20_000, reference, None);
            (result.to_json().to_pretty(), rec, cycles)
        };
        assert_eq!(
            run(false),
            run(true),
            "{kind:?}: grid cell diverged from the reference"
        );
    }
}

#[test]
fn telemetry_on_off_parity_holds_against_the_reference() {
    // Telemetry observes, never steers: a telemetered production cell
    // matches both the plain production cell and the reference.
    let run = |reference, ring| {
        grid_cell(
            "povray",
            Scheme::Cobcm,
            TreeKind::Monolithic,
            10_000,
            reference,
            ring,
        )
    };
    let telemetered = run(false, Some(1 << 14));
    assert_eq!(
        telemetered,
        run(false, None),
        "telemetry changed the result"
    );
    assert_eq!(telemetered, run(true, None), "diverged from the reference");
}

#[test]
fn fuzzed_crashes_agree_on_roots_reports_and_stats() {
    // Several workloads × seeds per scheme: after a crash the crash
    // report, persisted root, full stats, and recovery report all match.
    let cases = Scheme::ALL
        .into_iter()
        .flat_map(|s| {
            [("milc", 11u64), ("astar", 23), ("hmmer", 37)].map(|(w, f)| (s, w, f, 15_000))
        })
        .chain([
            (Scheme::Cobcm, "milc", 101, 12_000),
            (Scheme::Bbb, "astar", 211, 12_000),
            (Scheme::Cobcm, "hmmer", 307, 12_000),
        ]);
    for (scheme, workload, fuzz, n) in cases {
        let profile = WorkloadProfile::named(workload).unwrap();
        let run = |reference| {
            let trace = TraceGenerator::new(profile.clone(), fuzz).generate(n);
            let mut sys = secure(scheme, TreeKind::Monolithic, fuzz ^ 0xA5, reference);
            sys.run_trace(trace);
            let report = sys
                .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                .unwrap();
            (report, sys)
        };
        let (pr, psys) = run(false);
        let (rr, rsys) = run(true);
        assert_eq!(pr, rr, "{scheme}/{workload}: crash report diverged");
        assert_eq!(
            psys.nvm_store().bmt_root(),
            rsys.nvm_store().bmt_root(),
            "{scheme}/{workload}: persisted BMT root diverged"
        );
        assert_eq!(
            psys.stats().to_json().to_pretty(),
            rsys.stats().to_json().to_pretty(),
            "{scheme}/{workload}: stats diverged"
        );
        let prec = psys.recover();
        let rrec = rsys.recover();
        assert!(prec.is_consistent() && rrec.is_consistent());
        assert_eq!(prec, rrec, "{scheme}/{workload}: recovery diverged");
    }
}

#[test]
fn mid_burst_page_overflow_matches_the_reference() {
    // COBCM resolves counters at drain.  A 16-entry SecPB drains in
    // bursts of 4, and 21 blocks of one page rewritten round-robin (21 is
    // not a multiple of 4) put minor-counter wraps mid-burst, behind
    // same-page entries whose counters are already resolved.  Those must
    // reach NVM before the page re-encrypts, exactly as one-by-one
    // flushing would leave them.
    let mut cfg = SystemConfig::default();
    cfg.secpb.entries = 16;
    let run = |reference| {
        let sys = SecureSystem::with_tree(cfg.clone(), Scheme::Cobcm, TreeKind::Monolithic, 0x0F10);
        let mut sys = if reference { sys.into_reference() } else { sys };
        let trace: Vec<_> = (0..21 * 300u64)
            .map(|i| TraceItem::then(3, Access::store(Address(0x40_0000 + (i % 21) * 64), i)))
            .collect();
        let result = sys.run_trace(trace);
        let report = sys
            .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        (result.to_json().to_pretty(), report, sys)
    };
    let (pr, pc, psys) = run(false);
    let (rr, rc, rsys) = run(true);
    assert!(
        psys.stats().get(counters::PAGE_OVERFLOWS) > 0,
        "no page overflow"
    );
    assert_eq!(pr, rr, "run result diverged");
    assert_eq!(pc, rc, "crash report diverged");
    assert_eq!(psys.nvm_store().bmt_root(), rsys.nvm_store().bmt_root());
    let prec = psys.recover();
    assert!(prec.is_consistent(), "production recovery inconsistent");
    assert_eq!(prec, rsys.recover(), "recovery diverged");
}

#[test]
fn application_crash_policies_agree() {
    for policy in [DrainPolicy::DrainAll, DrainPolicy::DrainProcess] {
        let profile = WorkloadProfile::named("gamess").unwrap();
        let run = |reference| {
            let trace = TraceGenerator::new(profile.clone(), 5).generate(12_000);
            let mut sys = secure(Scheme::Cobcm, TreeKind::Monolithic, 5, reference);
            sys.run_trace(trace);
            let report = sys
                .crash(CrashKind::ApplicationCrash(Asid(0)), policy)
                .unwrap();
            (report, sys)
        };
        let (pr, psys) = run(false);
        let (rr, rsys) = run(true);
        assert_eq!(pr, rr, "{policy:?}: crash report diverged");
        assert_eq!(
            psys.recover(),
            rsys.recover(),
            "{policy:?}: recovery diverged"
        );
    }
}

#[test]
fn eadr_system_agrees() {
    let run = |reference| {
        let sys = EadrSystem::new(SystemConfig::default(), 9);
        let mut sys = if reference { sys.into_reference() } else { sys };
        let trace: Vec<_> = (0..800u64)
            .map(|i| TraceItem::then(7, Access::store(Address(0x20_0000 + (i % 300) * 64), i)))
            .collect();
        sys.run_trace(trace);
        let work = sys.crash();
        (work, sys)
    };
    let (pw, psys) = run(false);
    let (rw, rsys) = run(true);
    assert_eq!(pw, rw, "eADR drain work diverged");
    let prec = psys.recover();
    let rrec = rsys.recover();
    assert!(prec.is_consistent() && rrec.is_consistent());
    assert_eq!(prec, rrec, "eADR recovery diverged");
}

#[test]
fn multicore_system_agrees() {
    let run = |reference| {
        let sys = MultiCoreSystem::new(SystemConfig::default(), Scheme::Cobcm, 4, 77).unwrap();
        let mut sys = if reference { sys.into_reference() } else { sys };
        for i in 0..600u64 {
            let core = (i % 4) as usize;
            sys.store(CoreStore {
                core,
                access: Access::store(Address(0x30_0000 + (i % 150) * 64), i)
                    .with_asid(Asid(core as u16)),
            });
        }
        // Cross-core reads exercise the remote-flush path.
        for i in 0..50u64 {
            sys.load(3, Address(0x30_0000 + i * 64).block());
        }
        let drained = sys.crash().unwrap();
        (drained, sys)
    };
    let (pd, psys) = run(false);
    let (rd, rsys) = run(true);
    assert_eq!(pd, rd, "multicore drain count diverged");
    let prec = psys.recover();
    let rrec = rsys.recover();
    assert!(prec.is_consistent() && rrec.is_consistent());
    assert_eq!(prec, rrec, "multicore recovery diverged");
}

#[test]
fn production_engine_performs_at_most_half_the_reference_hmacs() {
    // The reference hashes every charged tree node on update and never
    // folds; the production engine's batched folds must do at most half
    // that work (>= 2x fewer HMAC invocations) on a coalescing workload.
    let profile = WorkloadProfile::named("povray").unwrap();
    let run = |reference| {
        let trace = TraceGenerator::new(profile.clone(), 13).generate(30_000);
        let mut sys = secure(Scheme::Cobcm, TreeKind::Monolithic, 13, reference);
        sys.run_trace(trace);
        sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
            .unwrap();
        sys
    };
    let production = run(false);
    let reference = run(true);
    assert!(production.pad_cache_stats().is_some());
    assert!(reference.pad_cache_stats().is_none(), "reference memoizes");
    assert_eq!(reference.integrity_tree().fold_hashes(), 0);
    let executed = reference.stats().get(counters::BMT_NODE_HASHES);
    assert_eq!(executed, production.stats().get(counters::BMT_NODE_HASHES));
    let actual = production.integrity_tree().fold_hashes();
    assert!(executed > 0 && actual > 0);
    assert!(
        actual * 2 <= executed,
        "production folds performed {actual} HMACs vs {executed} in the reference"
    );
}
