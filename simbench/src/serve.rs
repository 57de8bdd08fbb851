//! `serve`: the sharded persist service, one whole `run_serve` per
//! operation.
//!
//! Two shards on two workers, COBCM on the DBMF forest, a checkpoint every
//! four epochs, the final crash check on, telemetry off.  The tenants are
//! the mixed-QoS population of `ServeConfig::quick` (gamess, milc, povray,
//! hmmer); their client threads block on the bounded ingress queues, and
//! three of the four hash to one shard, so work stealing runs.  It is the
//! only workload that uses the shard pool (stealing, backpressure) and
//! epoch-boundary syncs, and it pays for checkpoints the way the service
//! does.  From outside, only `serve.run_s` and the service's own counts
//! are visible.

use secpb_bench::serve::{run_serve, ServeConfig, ServeOutcome};

use crate::golden;
use crate::harness::{PassLog, Scale, Workload, SIM_COUNTERS};
use crate::measure::Checks;
use crate::spans::Spans;

/// Shards, and worker threads driving them.
const SHARDS: usize = 2;

fn config(seed: u64, scale: Scale) -> ServeConfig {
    let mut cfg = ServeConfig::quick();
    cfg.shards = SHARDS;
    cfg.workers = SHARDS;
    cfg.telemetry = false;
    cfg.checkpoint_every = 4;
    cfg.crash_check = true;
    cfg.seed = seed;
    for t in &mut cfg.tenants {
        t.instructions = scale.serve_instructions;
    }
    cfg
}

/// `(shard index, digest)` of every populated shard.
fn digests(out: &ServeOutcome) -> Vec<(usize, String)> {
    out.shards
        .iter()
        .filter(|s| !s.tenants.is_empty())
        .map(|s| (s.shard, s.digest()[..16].to_owned()))
        .collect()
}

/// Everything wrong with one service run, if anything.
fn problems(out: &ServeOutcome) -> Option<String> {
    let mut why = Vec::new();
    if out.total_anomalies() != 0 {
        why.push(format!("{} anomalies", out.total_anomalies()));
    }
    if out.total_qos_violations() != 0 {
        why.push(format!("{} QoS violations", out.total_qos_violations()));
    }
    if !out.consistent() {
        why.push("inconsistent final recovery".to_owned());
    }
    (!why.is_empty()).then(|| why.join(", "))
}

/// The `serve` workload.
pub struct Serve {
    cfg: ServeConfig,
    /// Every run's shard digests must equal these: the recorded ones at a
    /// recorded seed, else the first run's (checked after the timed
    /// region against solo re-runs of each shard's tenants).
    reference: Option<Vec<(usize, String)>>,
    recorded_size: bool,
}

impl Workload for Serve {
    fn setup(seed: u64, scale: Scale) -> Self {
        let cfg = config(seed, scale);
        let recorded = if scale.golden {
            golden::recorded("serve", seed)
        } else {
            Default::default()
        };
        let reference = (!recorded.is_empty()).then(|| {
            (0..SHARDS)
                .filter_map(|i| {
                    let digest = recorded.get(format!("shard{i}").as_str())?;
                    Some((i, digest.to_string()))
                })
                .collect()
        });
        // Warm the allocator, the worker threads' code paths and the
        // generators with one untimed run.
        run_serve(&cfg).expect("warm-up service run");
        Serve {
            cfg,
            reference,
            recorded_size: scale.golden,
        }
    }

    fn pass(&mut self, spans: &mut Spans, log: &mut PassLog) {
        let out = spans.span("serve.run", |_| run_serve(&self.cfg));
        log.op_ms.push(spans.last().as_secs_f64() * 1e3);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                log.checks
                    .record(false, || format!("serve run failed: {e}"));
                return;
            }
        };
        let got = digests(&out);
        let reference = self.reference.get_or_insert_with(|| got.clone());
        let failure = problems(&out).or_else(|| {
            (*reference != got).then(|| format!("shard digests {got:?} != reference {reference:?}"))
        });
        log.checks.record(failure.is_none(), || {
            format!("serve: {}", failure.unwrap_or_default())
        });

        log.stores += out.total_stores();
        for shard in &out.shards {
            for c in SIM_COUNTERS {
                log.count(c, shard.stats.get(c) as f64);
            }
            log.count("serve.epochs", shard.epochs as f64);
            log.count("serve.sync_hashes", shard.sync_hashes as f64);
        }
        log.count("pool.executed", out.pool.executed as f64);
        log.count("pool.stolen", out.pool.stolen as f64);
        log.count(
            "pool.backpressure_waits",
            out.pool.backpressure_waits as f64,
        );
        log.count("pool.max_queue_depth", out.pool.max_queue_depth as f64);
    }

    fn verify(&mut self, checks: &mut Checks) {
        // Each populated shard, re-run alone with only its tenants, must
        // digest as it did inside the service.
        let Some(reference) = self.reference.clone() else {
            return;
        };
        for (shard, digest) in &reference {
            let mut solo = self.cfg.clone();
            solo.shards = 1;
            solo.workers = 1;
            solo.tenants
                .retain(|t| self.cfg.shard_of(&t.name) == *shard);
            let got = run_serve(&solo).map(|out| digests(&out));
            let ok = matches!(&got, Ok(d) if d.len() == 1 && d[0].1 == *digest);
            checks.record(ok, || {
                format!("serve shard{shard}: solo re-run gave {got:?}, service gave {digest}")
            });
        }
        if self.recorded_size && golden::recorded("serve", self.cfg.seed).is_empty() {
            for (shard, digest) in unit_digests(golden::DEFAULT_SEED) {
                golden::check(checks, "serve", golden::DEFAULT_SEED, &shard, &digest);
            }
        }
    }
}

/// Each populated shard's digest at `seed` and full size, as
/// `golden.txt` records it (a failed run records nothing, which fails
/// the comparison).
pub fn unit_digests(seed: u64) -> Vec<(String, String)> {
    run_serve(&config(seed, Scale::FULL)).map_or_else(
        |_| Vec::new(),
        |out| {
            digests(&out)
                .into_iter()
                .map(|(shard, d)| (format!("shard{shard}"), d))
                .collect()
        },
    )
}
