//! Load generator for the sharded persist service (`secpb serve-bench`):
//! aggregate stores/sec at 1/2/4/8 shards, plus the shard-determinism
//! cross-check.
//!
//! Runs the same multi-tenant workload through [`run_serve`] at each
//! shard count, times the wall clock, and reports aggregate stores per
//! second.  After timing, every populated shard of every multi-shard run
//! is re-run **solo** (one shard hosting only that shard's tenants, same
//! seed) and its `ShardOutcome::digest` must match byte-for-byte — the
//! service's determinism contract: a shard's outcome depends only on its
//! tenants and seed, never on shard count, interleaving, or stealing.
//!
//! The smoke run is smaller (shard counts 1/2/4) and additionally
//! validates the report: throughput fields present, and — only where
//! `scaling_valid` — monotone non-degrading aggregate stores/sec with
//! shard count.  On a host with fewer cores than the largest shard count
//! the wall-clock ratios say nothing about the architecture, so the
//! report records `scaling_valid: false` (mirroring BENCH_grid.json's
//! `speedup: null` convention) and the monotonicity gate is skipped; the
//! determinism cross-check always runs.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use secpb_sim::json::Json;
use secpb_sim::pool;

use crate::report::Rendered;
use crate::serve::{run_serve, ServeConfig, TenantSpec, SERVE_SEED};

/// Shard counts exercised by the full benchmark.
const FULL_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shard counts exercised by the smoke run.
const SMOKE_COUNTS: [usize; 3] = [1, 2, 4];

/// What one service benchmark replays.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// The CI-sized run.
    pub smoke: bool,
    /// Instruction budget per synthetic tenant.
    pub instructions: u64,
    /// Synthetic tenants.
    pub tenants: usize,
    /// Nominal epoch length in trace items.
    pub epoch_len: usize,
    /// `(name, path)` of extra tenants replaying `SPB1` trace files.
    pub file_tenants: Vec<(String, String)>,
}

fn config_for(shards: usize, tenants: &[TenantSpec], epoch_len: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(shards);
    cfg.epoch_len = epoch_len;
    cfg.tenants = tenants.to_vec();
    cfg
}

struct CountResult {
    shards: usize,
    workers: usize,
    wall_seconds: f64,
    stores: u64,
    persists: u64,
    stores_per_sec: f64,
    stolen: u64,
    /// `(member names, digest)` for every populated shard.
    digests: Vec<(Vec<String>, String)>,
}

/// Times the tenant population at every shard count, cross-checks every
/// shard against a solo re-run, and renders the report.
///
/// # Errors
///
/// Fails outright on a failed or unhealthy run (anomalies, QoS
/// violations, inconsistent recovery) and on a determinism violation.
/// Throughput that degrades with shard count is a gate failure on a
/// complete report.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> Result<Rendered, String> {
    let mut tenants = ServeConfig::new(1)
        .with_synthetic_tenants(cfg.tenants, cfg.instructions)
        .tenants;
    for (name, path) in &cfg.file_tenants {
        tenants.push(TenantSpec::from_file(name, path));
    }
    let epoch_len = cfg.epoch_len;
    let counts: &[usize] = if cfg.smoke {
        &SMOKE_COUNTS
    } else {
        &FULL_COUNTS
    };
    let cores = pool::default_jobs();
    // Wall-clock scaling ratios only mean something with real
    // parallelism under them; on fewer cores than the largest shard
    // count the numbers are still recorded but flagged invalid.
    let scaling_valid = cores >= *counts.last().expect("counts nonempty");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve-bench: {} tenants @ {} instructions, epoch {epoch_len}, shard counts {counts:?} on {cores} core(s){}",
        tenants.len(),
        cfg.instructions,
        if scaling_valid {
            ""
        } else {
            " (scaling_valid: false)"
        }
    );

    // Timing pass: every shard count replays the identical tenant set.
    let mut results: Vec<CountResult> = Vec::with_capacity(counts.len());
    for &shards in counts {
        let serve_cfg = config_for(shards, &tenants, epoch_len);
        let t = Instant::now();
        let run = run_serve(&serve_cfg).map_err(|e| format!("{shards}-shard run failed: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        if run.total_anomalies() > 0 || run.total_qos_violations() > 0 || !run.consistent() {
            return Err(format!(
                "{shards}-shard run unhealthy: {} anomalies, {} QoS violations, consistent={}",
                run.total_anomalies(),
                run.total_qos_violations(),
                run.consistent()
            ));
        }
        let stores = run.total_stores();
        let r = CountResult {
            shards,
            workers: serve_cfg.workers,
            wall_seconds: wall,
            stores,
            persists: run.total_persists(),
            stores_per_sec: stores as f64 / wall.max(1e-9),
            stolen: run.pool.stolen,
            digests: run
                .shards
                .iter()
                .filter(|s| !s.tenants.is_empty())
                .map(|s| (s.tenants.clone(), s.digest()))
                .collect(),
        };
        let _ = writeln!(
            out,
            "  {shards} shard(s): {:.3} s, {} stores, {:.0} stores/s, {} stolen batches",
            r.wall_seconds, r.stores, r.stores_per_sec, r.stolen
        );
        results.push(r);
    }

    // Determinism cross-check (after timing, so it cannot pollute it):
    // each populated shard's digest must equal a solo re-run of just
    // that shard's tenants.  Solo digests are cached by member list —
    // the same subset appearing at different shard counts must agree
    // with the same reference.
    let by_name: HashMap<&str, &TenantSpec> =
        tenants.iter().map(|t| (t.name.as_str(), t)).collect();
    let mut solo_cache: HashMap<Vec<String>, String> = HashMap::new();
    let mut checked = 0usize;
    for r in &results {
        for (members, digest) in &r.digests {
            let reference = match solo_cache.get(members) {
                Some(d) => d.clone(),
                None => {
                    let subset: Vec<TenantSpec> = members
                        .iter()
                        .map(|n| (*by_name[n.as_str()]).clone())
                        .collect();
                    let solo = run_serve(&config_for(1, &subset, epoch_len))
                        .map_err(|e| format!("solo determinism re-run failed: {e}"))?;
                    let d = solo.shards[0].digest();
                    solo_cache.insert(members.clone(), d.clone());
                    d
                }
            };
            if *digest != reference {
                return Err(format!(
                    "DETERMINISM VIOLATION: shard hosting [{}] at {} shards digests {digest}, \
                     solo re-run digests {reference}",
                    members.join(","),
                    r.shards
                ));
            }
            checked += 1;
        }
    }
    let _ = writeln!(
        out,
        "  determinism: {checked} shard outcome(s) across {counts:?} shards match solo re-runs"
    );

    // Monotone non-degrading aggregate throughput — only meaningful
    // where the host could actually run the shards in parallel.  A
    // small tolerance absorbs wall-clock noise.
    let mut monotone_ok = true;
    if scaling_valid {
        for pair in results.windows(2) {
            if pair[1].stores_per_sec < pair[0].stores_per_sec * 0.85 {
                monotone_ok = false;
                let _ = writeln!(
                    out,
                    "THROUGHPUT REGRESSION: {} shards {:.0} stores/s < {} shards {:.0} stores/s",
                    pair[1].shards, pair[1].stores_per_sec, pair[0].shards, pair[0].stores_per_sec
                );
            }
        }
    }

    let per_count = results.iter().map(|r| {
        Json::obj()
            .field("shards", r.shards)
            .field("workers", r.workers)
            .field("wall_seconds", r.wall_seconds)
            .field("stores", r.stores)
            .field("persists", r.persists)
            .field("aggregate_stores_per_sec", r.stores_per_sec)
            .field("stolen_batches", r.stolen)
            .field(
                "shard_digests",
                Json::arr(r.digests.iter().map(|(m, d)| {
                    Json::obj()
                        .field("tenants", m.join(","))
                        .field("digest", d.as_str())
                })),
            )
    });
    let payload = Json::obj()
        .field("bench", if cfg.smoke { "smoke" } else { "full" })
        .field("tenants", tenants.len())
        .field("instructions_per_tenant", cfg.instructions)
        .field("epoch_len", epoch_len)
        .field("seed", SERVE_SEED)
        .field("host_cores", cores)
        .field("scaling_valid", scaling_valid)
        .field("monotone_throughput", scaling_valid && monotone_ok)
        .field("determinism_validated", true)
        .field("shard_outcomes_checked", checked)
        .field("results", Json::Arr(per_count.collect()));
    Ok(Rendered {
        text: out,
        json: Some(payload),
        failure: (!monotone_ok).then(|| "serve-bench: throughput degraded with shard count".into()),
    })
}
