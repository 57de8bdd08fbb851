//! The lazy metadata engine's production-path contract.  The lazy
//! engine defers HMAC folding to observation points and memoizes
//! pads/digests; it is the only engine the fronts run.  Its byte-for-byte
//! equivalence with the eager reference engine is checked inside
//! `secpb-core` (`reference_tests`), the only place the reference can be
//! built.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::metrics::counters;
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::sim::config::SystemConfig;
use secpb::workloads::{TraceGenerator, WorkloadProfile};

#[test]
fn lazy_engine_at_least_halves_hmac_invocations() {
    // On a coalescing workload the folds' actual HMAC count is at most
    // half the analytic count the eager engine would execute (>= 2x
    // fewer HMAC invocations).
    let profile = WorkloadProfile::named("povray").unwrap();
    let trace = TraceGenerator::new(profile, 13).generate(30_000);
    let mut sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 13);
    sys.run_trace(trace);
    sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let analytic = sys.stats().get(counters::BMT_NODE_HASHES);
    let actual = sys.integrity_tree().fold_hashes();
    assert!(analytic > 0 && actual > 0);
    assert!(
        actual * 2 <= analytic,
        "lazy folds performed {actual} HMACs vs {analytic} analytic — expected >= 2x reduction"
    );
}

#[test]
fn lazy_mode_is_the_default() {
    // The production engine memoizes OTP pads; the eager reference never
    // does.
    let sys = SecureSystem::new(SystemConfig::default(), Scheme::Cobcm, 1);
    assert!(sys.pad_cache_stats().is_some());
}
