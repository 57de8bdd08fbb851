//! `repro`: the paper's grid — every SPEC-named profile under `bbb` and
//! the six SecPB schemes, monolithic tree, one cell at a time.
//!
//! This is the path behind every table and figure: per cell, trace
//! generation, warm-up, measured region, then a power-loss crash and the
//! recovery verdict.  The simulated core (cache hierarchy, pipeline)
//! dominates; `bbb` cells skip crypto while secure cells pay for it, so a
//! crypto change shows on one group and not the other.

use secpb_bench::experiments::warmup_for;
use secpb_core::crash::{CrashKind, DrainPolicy};
use secpb_core::facade::PersistSystem;
use secpb_core::metrics::{counters, RunResult};
use secpb_core::policy::RecoveryCost;
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_crypto::memo::MemoStats;
use secpb_sim::config::SystemConfig;
use secpb_sim::fxhash::derive_seed;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::golden::{self, Digester};
use crate::harness::{
    PassLog, Scale, Workload, BBB_NS, BBB_STORES, SECURE_NS, SECURE_STORES, SIM_COUNTERS,
};
use crate::measure::Checks;
use crate::spans::Spans;

/// The grid's schemes: the insecure baseline, then the six SecPB schemes.
fn schemes() -> impl Iterator<Item = Scheme> {
    std::iter::once(Scheme::Bbb).chain(Scheme::SECPB_SCHEMES)
}

/// One `(profile, scheme)` cell.
#[derive(Debug, Clone)]
struct Cell {
    profile: WorkloadProfile,
    scheme: Scheme,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}", self.profile.name, self.scheme.name())
    }
}

/// What one cell produced.
struct CellOut {
    warmup: RunResult,
    measured: RunResult,
    digest: String,
    /// Blocks recovery checked, or why the cell failed its crash check.
    verdict: Result<u64, String>,
    cost: RecoveryCost,
    memo: MemoStats,
    items: u64,
    run_ns: u64,
}

/// Runs one cell exactly as the grid does, each call inside its span.
/// The trace seed depends on the profile only, so every scheme replays
/// the identical instruction stream; the key seed depends on both.
fn run_cell(spans: &mut Spans, cell: &Cell, seed: u64, instructions: u64) -> CellOut {
    let profile = &cell.profile;
    let mut generator = TraceGenerator::new(profile.clone(), derive_seed(seed, &[&profile.name]));
    let warm = spans.span("workloads.gen", |_| {
        generator.generate(warmup_for(instructions))
    });
    let measured = spans.span("workloads.gen", |_| generator.generate(instructions));
    let items = (warm.len() + measured.len()) as u64;
    let key_seed = derive_seed(seed, &[cell.scheme.name(), &profile.name]);
    let mut sys = spans.span("system.build", |_| {
        SecureSystem::new(SystemConfig::default(), cell.scheme, key_seed)
    });
    let warmup = spans.span("system.warmup", |_| sys.run_trace(warm));
    let mut run_ns = spans.last().as_nanos() as u64;
    let measured = spans.span("system.measure", |_| {
        sys.reset_measurement();
        sys.run_trace(measured)
    });
    run_ns += spans.last().as_nanos() as u64;
    let memo = sys.memo_stats();
    let sys: &mut dyn PersistSystem = &mut sys;
    let verdict = spans.span("recovery", |s| {
        s.span("recovery.crash", |_| {
            sys.crash(CrashKind::PowerLoss, DrainPolicy::DrainAll)
        })
        .map_err(|e| format!("crash drain failed: {e}"))
        .map(|_| s.span("recovery.recover", |_| sys.recover()))
    });
    let cost = sys.recovery_cost();
    let mut d = Digester::new();
    d.result(&warmup);
    d.result(&measured);
    let verdict = verdict.and_then(|rec| {
        d.recovery(&rec);
        if rec.is_consistent() {
            Ok(rec.blocks_checked)
        } else {
            Err(golden::inconsistency(&rec))
        }
    });
    d.u64(cost.cycles);
    CellOut {
        digest: d.finish(),
        warmup,
        measured,
        verdict,
        cost,
        memo,
        items,
        run_ns,
    }
}

/// The `repro` workload.
pub struct Repro {
    seed: u64,
    instructions: u64,
    cells: Vec<Cell>,
    /// Each cell's digest: the golden one for a golden seed, else the
    /// first pass's (later passes must reproduce it).
    reference: Vec<Option<String>>,
    /// Whether digests are recorded at this size (full size only).
    recorded_size: bool,
}

impl Workload for Repro {
    fn setup(seed: u64, scale: Scale) -> Self {
        let cells: Vec<Cell> = WorkloadProfile::spec_suite()
            .into_iter()
            .take(scale.repro_profiles)
            .flat_map(|profile| {
                schemes().map(move |scheme| Cell {
                    profile: profile.clone(),
                    scheme,
                })
            })
            .collect();
        let recorded = if scale.golden {
            golden::recorded("repro", seed)
        } else {
            Default::default()
        };
        let reference = cells
            .iter()
            .map(|c| recorded.get(c.key().as_str()).map(|d| d.to_string()))
            .collect();
        let repro = Repro {
            seed,
            instructions: scale.repro_instructions,
            cells,
            reference,
            recorded_size: scale.golden,
        };
        // Warm the allocator and code paths with one untimed cell.
        let first = repro.cells[0].clone();
        run_cell(&mut Spans::new(false), &first, seed, repro.instructions);
        repro
    }

    fn pass(&mut self, spans: &mut Spans, log: &mut PassLog) {
        for (i, cell) in self.cells.iter().enumerate() {
            let out = spans.span("cell", |s| run_cell(s, cell, self.seed, self.instructions));
            log.op_ms.push(spans.last().as_secs_f64() * 1e3);
            let reference = self.reference[i].get_or_insert_with(|| out.digest.clone());
            let matches = *reference == out.digest;
            log.checks.record(matches && out.verdict.is_ok(), || {
                format!(
                    "repro {}: {}",
                    cell.key(),
                    out.verdict.clone().err().unwrap_or_else(|| format!(
                        "digest {} != reference {reference}",
                        out.digest
                    ))
                )
            });
            tally(log, cell.scheme, &out);
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        // At a recorded seed every pass was already held to the recorded
        // digests.  At any other seed, also hold one profile's cells at
        // the default seed to them, rotating the profile with the seed.
        if self.recorded_size && golden::recorded("repro", self.seed).is_empty() {
            let schemes_n = schemes().count();
            let profiles = self.cells.len() / schemes_n;
            let p = (self.seed % profiles as u64) as usize;
            for cell in &self.cells[p * schemes_n..(p + 1) * schemes_n] {
                let out = run_cell(
                    &mut Spans::new(false),
                    cell,
                    golden::DEFAULT_SEED,
                    self.instructions,
                );
                golden::check(
                    checks,
                    "repro",
                    golden::DEFAULT_SEED,
                    &cell.key(),
                    &out.digest,
                );
            }
        }
    }
}

/// Every cell's digest at `seed` and full size, as `golden.txt` records
/// it.
#[cfg(test)]
pub fn unit_digests(seed: u64) -> Vec<(String, String)> {
    let repro = Repro::setup(seed, Scale::FULL);
    repro
        .cells
        .iter()
        .map(|c| {
            let out = run_cell(&mut Spans::new(false), c, seed, repro.instructions);
            (c.key(), out.digest)
        })
        .collect()
}

fn tally(log: &mut PassLog, scheme: Scheme, out: &CellOut) {
    let stores = out.warmup.stats.get(counters::STORES) + out.measured.stats.get(counters::STORES);
    log.stores += stores;
    let (ns, st) = if scheme == Scheme::Bbb {
        (BBB_NS, BBB_STORES)
    } else {
        (SECURE_NS, SECURE_STORES)
    };
    log.count(ns, out.run_ns as f64);
    log.count(st, stores as f64);
    log.count("workloads.items", out.items as f64);
    log.count("memo.hits", out.memo.hits as f64);
    log.count("memo.misses", out.memo.misses as f64);
    log.count(
        "recovery.blocks_checked",
        *out.verdict.as_ref().unwrap_or(&0) as f64,
    );
    log.count("recovery_cost.hashes_folded", out.cost.hashes_folded as f64);
    log.count("recovery_cost.blocks_swept", out.cost.blocks_swept as f64);
    for c in SIM_COUNTERS {
        let v = out.warmup.stats.get(c) + out.measured.stats.get(c);
        log.count(c, v as f64);
    }
}

#[cfg(test)]
mod tests {
    use secpb_bench::experiments::GridCell;

    use super::*;

    /// At the default seed a cell is the repository grid's own cell: the
    /// grid harness, driven independently, gives the same result and
    /// verdict.
    #[test]
    fn default_seed_cells_are_the_grid_cells() {
        let profile = WorkloadProfile::named("gamess").expect("known benchmark");
        for scheme in [Scheme::Bbb, Scheme::Cobcm] {
            let cell = Cell {
                profile: profile.clone(),
                scheme,
            };
            let out = run_cell(&mut Spans::new(false), &cell, golden::DEFAULT_SEED, 3_000);
            let (result, check) = GridCell::new(profile.clone(), scheme, 3_000).run_with_recovery();
            assert_eq!(out.measured, result, "{scheme:?}");
            assert_eq!(out.verdict, Ok(check.blocks_checked), "{scheme:?}");
            assert_eq!(out.cost.cycles, check.recovery_cycles, "{scheme:?}");
        }
    }
}
