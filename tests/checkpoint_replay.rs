//! Checkpoint/restore equivalence suite: restoring a system at epoch N
//! and replaying epochs N..M must be byte-identical to the
//! uninterrupted run — for every scheme and every integrity-tree
//! organisation.  This is the contract the serve
//! plane's shard crash-recovery and the soak harness's restarts build
//! on: a crashed shard restored from its last checkpoint and fed the
//! replayed epochs is indistinguishable from one that never crashed.

use secpb::core::crash::{CrashKind, DrainPolicy};
use secpb::core::scheme::Scheme;
use secpb::core::system::SecureSystem;
use secpb::core::tree::TreeKind;
use secpb::core::CheckpointError;
use secpb::sim::config::SystemConfig;
use secpb::sim::trace::TraceItem;
use secpb::workloads::{TraceGenerator, WorkloadProfile};

fn epochs(workload: &str, seed: u64, n: usize, len: usize) -> Vec<Vec<TraceItem>> {
    // `generate` takes an instruction budget; each item covers several
    // instructions, so over-generate and slice into exactly `n` epochs
    // of `len` items.
    let profile = WorkloadProfile::named(workload).unwrap();
    let items = TraceGenerator::new(profile, seed).generate((n * len * 16) as u64);
    assert!(
        items.len() >= n * len,
        "trace too short for requested epochs"
    );
    items[..n * len].chunks(len).map(|c| c.to_vec()).collect()
}

fn build(scheme: Scheme, kind: TreeKind, seed: u64) -> SecureSystem {
    SecureSystem::with_tree(SystemConfig::default(), scheme, kind, seed)
}

/// Runs `sys` over `epochs`, calling `sync_metadata` at every epoch
/// boundary (the serve plane's observation point), checkpointing after
/// epoch `checkpoint_at`.  Returns (checkpoint bytes, final bytes).
fn run_epochs(
    sys: &mut SecureSystem,
    epochs: &[Vec<TraceItem>],
    checkpoint_at: usize,
) -> (Vec<u8>, Vec<u8>) {
    let mut snap = Vec::new();
    for (i, epoch) in epochs.iter().enumerate() {
        sys.run_trace(epoch.iter().copied());
        sys.sync_metadata();
        if i == checkpoint_at {
            snap = sys.checkpoint_bytes();
        }
    }
    (snap, sys.checkpoint_bytes())
}

#[test]
fn restore_at_epoch_n_plus_replay_matches_straight_through_for_all_schemes() {
    for scheme in Scheme::ALL {
        let epochs = epochs("milc", 0xC0FFEE ^ scheme as u64, 6, 1500);
        let mut reference = build(scheme, TreeKind::Monolithic, 17);
        let (snap, final_ref) = run_epochs(&mut reference, &epochs, 2);

        let mut resumed = build(scheme, TreeKind::Monolithic, 17);
        resumed.restore_bytes(&snap).unwrap();
        for epoch in &epochs[3..] {
            resumed.run_trace(epoch.iter().copied());
            resumed.sync_metadata();
        }
        assert_eq!(
            resumed.checkpoint_bytes(),
            final_ref,
            "{scheme}: restored+replayed state diverged from straight-through"
        );
    }
}

#[test]
fn forest_trees_replay_identically_after_restore() {
    for kind in [TreeKind::Dbmf, TreeKind::Sbmf] {
        let epochs = epochs("povray", 99, 5, 1200);
        let mut reference = build(Scheme::Cobcm, kind, 5);
        let (snap, final_ref) = run_epochs(&mut reference, &epochs, 1);

        let mut resumed = build(Scheme::Cobcm, kind, 5);
        resumed.restore_bytes(&snap).unwrap();
        for epoch in &epochs[2..] {
            resumed.run_trace(epoch.iter().copied());
            resumed.sync_metadata();
        }
        assert_eq!(
            resumed.checkpoint_bytes(),
            final_ref,
            "{kind:?}: restored+replayed state diverged"
        );
    }
}

#[test]
fn restored_system_survives_crash_and_recovery_identically() {
    // Crash/recovery verdicts after a restore+replay must match the
    // uninterrupted run's: same drained work, same recovery report.
    let epochs = epochs("hmmer", 3, 4, 1500);
    let mut reference = build(Scheme::Bcm, TreeKind::Monolithic, 31);
    let (snap, _) = run_epochs(&mut reference, &epochs, 1);
    let ref_report = reference
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let ref_recovery = reference.recover();
    assert!(ref_recovery.is_consistent());

    let mut resumed = build(Scheme::Bcm, TreeKind::Monolithic, 31);
    resumed.restore_bytes(&snap).unwrap();
    for epoch in &epochs[2..] {
        resumed.run_trace(epoch.iter().copied());
        resumed.sync_metadata();
    }
    let report = resumed
        .crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        .unwrap();
    let recovery = resumed.recover();
    assert_eq!(report.work, ref_report.work);
    assert_eq!(report.at, ref_report.at);
    assert!(recovery.is_consistent());
    assert_eq!(recovery.blocks_checked, ref_recovery.blocks_checked);
    assert_eq!(
        resumed.nvm_store().bmt_root(),
        reference.nvm_store().bmt_root()
    );
}

#[test]
fn policy_fronts_replay_identically_after_restore() {
    // The v2 checkpoint carries the persistence-policy section (shadow
    // root + write-amp counters), so the Triad and fast-recovery fronts
    // must satisfy the same restore@N + replay ≡ straight-through
    // contract as every baseline scheme — including the policy state the
    // recovery sweep reads.
    let fronts: [(&str, SystemConfig); 2] = [
        ("triad4", SystemConfig::default().with_triad_levels(4)),
        (
            "fastrec",
            SystemConfig::default().with_shadow_counters(true),
        ),
    ];
    for (name, cfg) in &fronts {
        let epochs = epochs("milc", 0xFA56, 5, 1500);
        let mut reference =
            SecureSystem::build(cfg.clone(), Scheme::NoGap, TreeKind::Monolithic, 23).unwrap();
        let (snap, final_ref) = run_epochs(&mut reference, &epochs, 2);

        let mut resumed =
            SecureSystem::build(cfg.clone(), Scheme::NoGap, TreeKind::Monolithic, 23).unwrap();
        resumed.restore_bytes(&snap).unwrap();
        for epoch in &epochs[3..] {
            resumed.run_trace(epoch.iter().copied());
            resumed.sync_metadata();
        }
        assert_eq!(
            resumed.checkpoint_bytes(),
            final_ref,
            "{name}: restored+replayed state diverged"
        );
        assert_eq!(
            resumed.policy_state(),
            reference.policy_state(),
            "{name}: policy state (shadow root / write-amp) diverged"
        );
        assert!(resumed.recover().is_consistent(), "{name}");
    }
}

#[test]
fn policy_knobs_fingerprint_the_checkpoint() {
    // A checkpoint taken under one policy must not restore into a system
    // running another: the knobs are part of the config fingerprint.
    let plain = SecureSystem::new(SystemConfig::default(), Scheme::NoGap, 9);
    let bytes = plain.checkpoint_bytes();
    let mut triad = SecureSystem::build(
        SystemConfig::default().with_triad_levels(4),
        Scheme::NoGap,
        TreeKind::Monolithic,
        9,
    )
    .unwrap();
    assert_eq!(
        triad.restore_bytes(&bytes),
        Err(CheckpointError::ConfigMismatch)
    );
    let mut shadow = SecureSystem::build(
        SystemConfig::default().with_shadow_counters(true),
        Scheme::NoGap,
        TreeKind::Monolithic,
        9,
    )
    .unwrap();
    assert_eq!(
        shadow.restore_bytes(&bytes),
        Err(CheckpointError::ConfigMismatch)
    );
}

#[test]
fn checkpoint_of_restored_system_reproduces_original_bytes() {
    // Determinism of the capture itself: checkpoint → restore →
    // checkpoint is the identity on bytes, even mid-stream with live
    // SecPB occupancy and in-flight drains.
    let epochs = epochs("gcc", 8, 3, 2000);
    let mut sys = build(Scheme::Cobcm, TreeKind::Dbmf, 77);
    sys.run_trace(epochs[0].iter().copied());
    // No sync: leave lazy folds pending and drains in flight.
    let bytes = sys.checkpoint_bytes();
    let mut target = build(Scheme::Cobcm, TreeKind::Dbmf, 77);
    target.restore_bytes(&bytes).unwrap();
    assert_eq!(target.checkpoint_bytes(), bytes);
}
