//! Output pins for the crash-scenario harnesses.
//!
//! `secpb storm`, `secpb recover-sweep` and `secpb watch` all drive the
//! same crash → recover → verify loop.  These tests pin the SHA-512 of
//! each harness's machine-readable output at fixed seeds, so a refactor
//! of that loop must reproduce every cell, point and snapshot exactly.
//! A deliberate change to simulated behaviour updates the digests here
//! and says why in CHANGES.md.

use secpb::core::scheme::Scheme;
use secpb::crypto::sha512::Sha512;
use secpb::sim::config::SystemConfig;
use secpb_bench::recovery_sweep::{run_sweep, SweepConfig};
use secpb_bench::scenario::{build_front, StormFront};
use secpb_bench::storm::{run_storm, StormConfig};
use secpb_bench::watch::{run_watch, WatchConfig};
use secpb_workloads::WorkloadProfile;

/// `run_storm(&StormConfig::quick(0x5EC9_B0A2))` as pretty JSON.
const STORM_DEFAULT_SEED: &str = "3c0321ce271ee9d4b56f95924b6c90ded0c93a09d250f1a4cfb2716ee95b4619\
                                  88f098982631595ee5077e6e9a00657272bffa1e194948fb23f64d6124dca488";
/// `run_storm(&StormConfig::quick(1))` as pretty JSON.
const STORM_SEED_1: &str = "55d5ee8bdb9c92802042920685625bfc500dba96ebbb23cc8ac3ae678d828465\
                            a23f23ac8b71f482c1cf0cfacbfc7381a7a5a43316c888e2eed835c02cdfee17";
/// `run_sweep(&SweepConfig::quick(0x5EC9_B0A2))` as pretty JSON.
const SWEEP_DEFAULT_SEED: &str = "7ab75ebe9b2b295337445a0ea28ec5d3c3e4a3dacc966fc6bbad1eff36541253\
                                  656c78a72bef0c72772737a15e16dd01246fd62bba30f012f9e46be92d46b446";
/// The JSON lines of `secpb watch gamess cobcm --quick`.
const WATCH_SECPB: &str = "c943f9778f552ab4b7deda80070e1efdce38518780cf3172cc6e4b7302d082b1\
                           a2d05e5adb04621c08d45fdc0a82c4d1204a6fe8a8372942ef6f742a77eef51a";
/// The JSON lines of `secpb watch gamess cobcm --quick --front eadr`.
const WATCH_EADR: &str = "b35cba74e5c74a3905f76a4abbf677817b3cbe997341e4c2a657c4ece19c56c4\
                          5c815085edff0decfd1940ce3a7d5b47c59d7f282c396d7847dcee0732462c87";

fn sha512_hex(bytes: &[u8]) -> String {
    Sha512::digest(bytes).to_hex()
}

#[test]
fn quick_storm_json_is_pinned_at_two_seeds() {
    for (seed, want) in [(0x5EC9_B0A2, STORM_DEFAULT_SEED), (1, STORM_SEED_1)] {
        let json = run_storm(&StormConfig::quick(seed)).to_json().to_pretty();
        assert_eq!(sha512_hex(json.as_bytes()), want, "seed {seed:#x}");
    }
}

#[test]
fn quick_sweep_json_is_pinned() {
    let json = run_sweep(&SweepConfig::quick(0x5EC9_B0A2))
        .to_json()
        .to_pretty();
    assert_eq!(sha512_hex(json.as_bytes()), SWEEP_DEFAULT_SEED);
}

#[test]
fn quick_watch_jsonl_is_pinned_on_the_secpb_and_eadr_fronts() {
    for (front, want) in [
        (StormFront::SecPb, WATCH_SECPB),
        (StormFront::Eadr, WATCH_EADR),
    ] {
        let cfg = WatchConfig::new(
            front,
            Scheme::Cobcm,
            WorkloadProfile::named("gamess").unwrap(),
        )
        .quick();
        let mut jsonl: Vec<u8> = Vec::new();
        let mut sys = build_front(front, SystemConfig::default(), cfg.scheme, cfg.seed).unwrap();
        run_watch::<_, Vec<u8>>(&cfg, sys.as_mut(), Some(&mut jsonl), None).unwrap();
        assert_eq!(sha512_hex(&jsonl), want, "{}", front.name());
    }
}
