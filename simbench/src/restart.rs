//! `restart`: the soak restart-storm protocol on one system per front.
//!
//! Per epoch: `run_trace` + `sync_metadata`; a checkpoint every
//! [`CHECKPOINT_EVERY`] epochs; and every [`RESTART_EVERY`] epochs a full
//! restart cycle — power-loss crash, recovery verdict, fresh build,
//! `restore_bytes`, journal replay.  Time goes to checkpoint save and
//! restore and to crash + recovery, layers `repro` hardly touches; trace
//! generation happens in set-up.  The two fronts sit at the two ends of
//! the recovery curve: COBCM on the DBMF forest (the serve shape) and the
//! fast-recovery policy.

use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::counters;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_core::tree::TreeKind;
use secpb_crypto::sha512::Sha512;
use secpb_sim::config::SystemConfig;
use secpb_sim::fxhash::derive_seed;
use secpb_sim::trace::TraceItem;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::golden::{self, Digester};
use crate::harness::{PassLog, Scale, Workload, SECURE_NS, SECURE_STORES, SIM_COUNTERS};
use crate::measure::Checks;
use crate::spans::Spans;

/// Epochs between checkpoints (the serve plane's default cadence).
pub const CHECKPOINT_EVERY: usize = 4;
/// Epochs between restart cycles.
pub const RESTART_EVERY: usize = 10;
const _: () = assert!(
    RESTART_EVERY >= CHECKPOINT_EVERY,
    "a restart needs a checkpoint"
);

/// The two fronts.
const FRONTS: [&str; 2] = ["cobcm-dbmf", "fastrec"];

fn build(front: &str, seed: u64) -> SecureSystem {
    let key_seed = derive_seed(seed, &[front]);
    let (cfg, tree) = match front {
        "cobcm-dbmf" => (SystemConfig::default(), TreeKind::Dbmf),
        "fastrec" => (
            SystemConfig::default().with_shadow_counters(true),
            TreeKind::Monolithic,
        ),
        other => unreachable!("unknown front {other}"),
    };
    SecureSystem::build(cfg, Scheme::Cobcm, tree, key_seed).expect("legal persistence policy")
}

/// The milc epochs every front replays (over-generating, because the
/// generator budgets instructions, not items).
fn epochs(seed: u64, scale: Scale) -> Vec<Vec<TraceItem>> {
    let (n, len) = (scale.restart_epochs, scale.restart_epoch_len);
    let profile = WorkloadProfile::named("milc").expect("known benchmark");
    let items = TraceGenerator::new(profile, derive_seed(seed, &["restart"]))
        .generate((n * len * 16) as u64);
    assert!(items.len() >= n * len, "restart trace too short");
    items[..n * len]
        .chunks(len)
        .map(<[TraceItem]>::to_vec)
        .collect()
}

/// A straight-through run of every epoch, without checkpoints or
/// crashes: `(final checkpoint hash, digest of the final state)`.
fn straight_through(front: &str, seed: u64, epochs: &[Vec<TraceItem>]) -> (String, String) {
    let mut sys = build(front, seed);
    for epoch in epochs {
        sys.run_trace(epoch.iter().copied());
        sys.sync_metadata();
    }
    let mut d = Digester::new();
    d.u64(sys.finish_time().raw());
    d.stats(sys.stats());
    (hash(&sys.checkpoint_bytes()), d.finish())
}

fn hash(bytes: &[u8]) -> String {
    Sha512::digest(bytes).to_hex()
}

/// The `restart` workload.
pub struct Restart {
    seed: u64,
    epochs: Vec<Vec<TraceItem>>,
    /// Hash of each front's final checkpoint, per pass.
    finals: Vec<[String; 2]>,
    recorded_size: bool,
}

impl Workload for Restart {
    fn setup(seed: u64, scale: Scale) -> Self {
        let epochs = epochs(seed, scale);
        // Warm the allocator and code paths: one build and checkpoint
        // per front.
        for front in FRONTS {
            build(front, seed).checkpoint_bytes();
        }
        Restart {
            seed,
            epochs,
            finals: Vec::new(),
            recorded_size: scale.golden,
        }
    }

    fn pass(&mut self, spans: &mut Spans, log: &mut PassLog) {
        let mut finals = [String::new(), String::new()];
        for (f, front) in FRONTS.into_iter().enumerate() {
            finals[f] = self.front_pass(front, spans, log);
        }
        self.finals.push(finals);
    }

    fn verify(&mut self, checks: &mut Checks) {
        let recorded = golden::recorded("restart", self.seed);
        for (f, front) in FRONTS.into_iter().enumerate() {
            let (reference, digest) = straight_through(front, self.seed, &self.epochs);
            for (pass, finals) in self.finals.iter().enumerate() {
                checks.record(finals[f] == reference, || {
                    format!("restart {front} pass {pass}: final checkpoint differs from straight-through")
                });
            }
            if self.recorded_size && !recorded.is_empty() {
                golden::check(checks, "restart", self.seed, front, &digest);
            }
        }
        if self.recorded_size && recorded.is_empty() {
            for (front, digest) in unit_digests(golden::DEFAULT_SEED) {
                golden::check(checks, "restart", golden::DEFAULT_SEED, &front, &digest);
            }
        }
    }
}

/// Each front's digest at `seed` and full size, as `golden.txt` records it.
pub fn unit_digests(seed: u64) -> Vec<(String, String)> {
    let epochs = epochs(seed, Scale::FULL);
    FRONTS
        .into_iter()
        .map(|front| (front.to_owned(), straight_through(front, seed, &epochs).1))
        .collect()
}

impl Restart {
    /// One front's protocol over every epoch; returns the hash of its
    /// final checkpoint.
    fn front_pass(&self, front: &'static str, spans: &mut Spans, log: &mut PassLog) -> String {
        let epochs = &self.epochs;
        let mut sys = spans.span("system.build", |_| build(front, self.seed));
        let mut checkpoint = Vec::new();
        let mut journal: Vec<usize> = Vec::new();
        let mut run_ns = 0;
        for (i, epoch) in epochs.iter().enumerate() {
            spans.span("system.measure", |_| sys.run_trace(epoch.iter().copied()));
            run_ns += spans.last().as_nanos() as u64;
            spans.span("system.sync", |_| sys.sync_metadata());
            journal.push(i);
            if (i + 1) % CHECKPOINT_EVERY == 0 {
                checkpoint = spans.span("checkpoint.save", |_| sys.checkpoint_bytes());
                log.count("checkpoint.bytes", checkpoint.len() as f64);
                journal.clear();
            }
            if (i + 1) % RESTART_EVERY == 0 {
                let verdict = spans.span("restart", |s| {
                    let old: &mut dyn PersistSystem = &mut sys;
                    let verdict = s.span("recovery", |s| {
                        s.span("recovery.crash", |_| {
                            old.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
                        })
                        .map_err(|e| format!("crash drain failed: {e}"))
                        .map(|_| s.span("recovery.recover", |_| old.recover()))
                    });
                    let cost = old.recovery_cost();
                    sys = s.span("system.build", |_| build(front, self.seed));
                    let restored = s
                        .span("checkpoint.restore", |_| sys.restore_bytes(&checkpoint))
                        .map_err(|e| format!("restore failed: {e}"));
                    s.span("restart.replay", |_| {
                        for &j in &journal {
                            sys.run_trace(epochs[j].iter().copied());
                            sys.sync_metadata();
                        }
                    });
                    (verdict, restored, cost)
                });
                log.op_ms.push(spans.last().as_secs_f64() * 1e3);
                let (rec, restored, cost) = verdict;
                let rec = rec.and_then(|rec| {
                    if rec.is_consistent() {
                        Ok(rec)
                    } else {
                        Err(golden::inconsistency(&rec))
                    }
                });
                log.count(
                    "recovery.blocks_checked",
                    rec.as_ref().map_or(0, |r| r.blocks_checked) as f64,
                );
                log.count("recovery_cost.hashes_folded", cost.hashes_folded as f64);
                log.count("recovery_cost.blocks_swept", cost.blocks_swept as f64);
                let replayed: usize = journal.iter().map(|&j| epochs[j].len()).sum();
                log.count("restart.replayed_items", replayed as f64);
                let failure = rec.err().or(restored.err());
                log.checks.record(failure.is_none(), || {
                    format!(
                        "restart {front} epoch {}: {}",
                        i + 1,
                        failure.unwrap_or_default()
                    )
                });
            }
        }
        let bytes = spans.span("checkpoint.save", |_| sys.checkpoint_bytes());
        let stats = sys.stats();
        let stores = stats.get(counters::STORES);
        log.stores += stores;
        log.count(SECURE_NS, run_ns as f64);
        log.count(SECURE_STORES, stores as f64);
        for c in SIM_COUNTERS {
            log.count(c, stats.get(c) as f64);
        }
        let memo = sys.memo_stats();
        log.count("memo.hits", memo.hits as f64);
        log.count("memo.misses", memo.misses as f64);
        hash(&bytes)
    }
}
