//! Digests of simulated output, and the recorded digests every run is
//! held to.
//!
//! `golden.txt` records, for the default and the held-out seed at full
//! size, one digest per unit of each workload (a grid cell, a restart
//! front, a service shard).  A run at a recorded seed holds every pass to
//! them; a run at any other seed holds its passes to each other and
//! re-runs a small anchor at the default seed against them.  Either way a
//! change to the simulator that changes simulated output fails the run.
//! The digests cover simulated results only (cycles, counters,
//! histograms, recovery verdicts), never a file format.

use std::collections::BTreeMap;

use secpb_core::crash::RecoveryReport;
use secpb_core::metrics::RunResult;
use secpb_crypto::sha512::Sha512;
use secpb_sim::stats::Stats;

use crate::measure::Checks;

/// The default workload seed: the seed the repository's own grid uses,
/// so `repro` cells at this seed are the grid's cells.
pub const DEFAULT_SEED: u64 = 0x5EC9_B0A2;

/// The held-out seed: never used while tuning; a later claim must hold
/// on it too.
pub const HELDOUT_SEED: u64 = 0x0D1E_5EED;

const GOLDEN: &str = include_str!("../golden.txt");

/// The recorded digests of `workload` at `seed`, by unit; empty when
/// the seed is not recorded.
pub fn recorded(workload: &str, seed: u64) -> BTreeMap<&'static str, &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "golden.txt line `{l}`");
            let line_seed: u64 = f[1].parse().expect("golden.txt seed");
            (f[0] == workload && line_seed == seed).then_some((f[2], f[3]))
        })
        .collect()
}

/// Records one check of `digest` against the recorded digest.
pub fn check(checks: &mut Checks, workload: &str, seed: u64, key: &str, digest: &str) {
    let recorded = recorded(workload, seed).get(key).copied();
    checks.record(recorded == Some(digest), || {
        format!(
            "{workload} {key} @ seed {seed}: digest {digest} != recorded {}",
            recorded.unwrap_or("(none)")
        )
    });
}

/// Why a recovery verdict is inconsistent.
pub fn inconsistency(rec: &RecoveryReport) -> String {
    format!(
        "recovery inconsistent: root_ok={}, mac_failures={}, plaintext_mismatches={}",
        rec.root_ok,
        rec.mac_failures.len(),
        rec.plaintext_mismatches.len()
    )
}

/// SHA-512 over simulated results, shortened to 16 hex digits.
pub struct Digester(Sha512);

impl Digester {
    /// An empty digest.
    pub fn new() -> Self {
        Digester(Sha512::new())
    }

    /// Adds a number.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Adds every counter and histogram.
    pub fn stats(&mut self, stats: &Stats) {
        for (name, value) in stats.iter() {
            self.0.update(name.as_bytes());
            self.u64(value);
        }
        for (name, hist) in stats.histograms() {
            self.0.update(name.as_bytes());
            for &count in hist.counts() {
                self.u64(count);
            }
        }
    }

    /// Adds a run result: cycles, cycle breakdown, statistics.
    pub fn result(&mut self, r: &RunResult) {
        self.u64(r.cycles);
        for (_, v) in r.breakdown.entries() {
            self.u64(v);
        }
        self.stats(&r.stats);
    }

    /// Adds a recovery verdict.
    pub fn recovery(&mut self, rec: &RecoveryReport) {
        self.u64(u64::from(rec.root_ok));
        for n in [
            rec.blocks_checked,
            rec.mac_failures.len() as u64,
            rec.plaintext_mismatches.len() as u64,
            rec.lost_stale.len() as u64,
            rec.in_flight_stale.len() as u64,
        ] {
            self.u64(n);
        }
    }

    /// The digest.
    pub fn finish(self) -> String {
        self.0.finalize().to_hex()[..16].to_owned()
    }
}
