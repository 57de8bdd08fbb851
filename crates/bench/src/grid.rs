//! Grid-scale wall-clock benchmark of the parallel experiment engine
//! (`secpb grid`).
//!
//! Runs the same scheme×workload grid serially (timing each cell) and
//! with `jobs` workers, verifies the two result sets are **identical**
//! (the engine's determinism contract), and reports wall-clock speedup
//! plus per-cell simulated instructions per second and host nanoseconds
//! per simulated store.  Both passes do the same work: every cell is
//! run and then crash-tested (power loss, full drain, verified
//! recovery), and both the results and the recovery verdicts must match.
//!
//! The smoke grid is 2 workloads × 2 schemes (the CI determinism gate);
//! the full grid is the Table IV workload suite × all SecPB schemes.
//! The report's `crypto_backend` names the kernel the host's runtime ISA
//! detection picked.
//!
//! With telemetry, a live ring is attached to every serial cell.
//! Because events observe and never steer, the determinism gate then
//! proves something stronger: the telemetered serial grid must still be
//! identical to the plain parallel grid, i.e. watching a cell costs
//! nothing in fidelity.  The report gains ring accounting
//! (`telemetry_events`, `telemetry_dropped`).
//!
//! On a single-core host the parallel pass still runs (it is the
//! determinism check), but its wall-clock time says nothing about the
//! engine, so `speedup` is reported as `null` and
//! `parallel_timing_valid` as `false` rather than shipping a misleading
//! sub-1x figure.  `validate_parallel` makes that posture explicit for
//! 1-core CI: it pins the parallel pass to 2 workers and records
//! `parallel_determinism_validated: true` in the report — determinism is
//! validated even where timing isn't.

use std::fmt::Write as _;
use std::time::Instant;

use secpb_core::metrics::counters;
use secpb_core::scheme::Scheme;
use secpb_crypto::backend::CryptoBackend;
use secpb_sim::json::Json;
use secpb_sim::pool;
use secpb_workloads::WorkloadProfile;

use crate::experiments::{GridCell, TelemetryDigest};
use crate::recovery_sweep::{run_sweep, SweepConfig};
use crate::report::Rendered;

/// What one grid benchmark runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridConfig {
    /// Measurement-region instruction budget per cell.
    pub instructions: u64,
    /// Workers for the parallel pass; `None` (or 1) means the machine's
    /// available parallelism, at least 2.
    pub jobs: Option<usize>,
    /// The 2×2 CI grid instead of the full one.
    pub smoke: bool,
    /// Attach a live telemetry ring to every serial cell.
    pub telemetry: bool,
    /// Pin the parallel pass to 2 workers and report it as a
    /// determinism check only.
    pub validate_parallel: bool,
}

fn build_grid(smoke: bool, instructions: u64) -> Vec<GridCell> {
    let (profiles, schemes): (Vec<WorkloadProfile>, Vec<Scheme>) = if smoke {
        (
            ["gamess", "povray"]
                .iter()
                .map(|n| WorkloadProfile::named(n).expect("known"))
                .collect(),
            vec![Scheme::Bbb, Scheme::Cobcm],
        )
    } else {
        (
            WorkloadProfile::spec_suite(),
            std::iter::once(Scheme::Bbb)
                .chain(Scheme::SECPB_SCHEMES)
                .collect(),
        )
    };
    profiles
        .iter()
        .flat_map(|p| {
            schemes
                .iter()
                .map(|&s| GridCell::new(p.clone(), s, instructions))
        })
        .collect()
}

/// Times the grid serially and in parallel and renders the report.
///
/// # Errors
///
/// Fails outright when the parallel results diverge from the serial
/// ones.  Recovery failures and a non-monotone recovery curve are gate
/// failures on a complete report.
pub fn run_grid_bench(cfg: &GridConfig) -> Result<Rendered, String> {
    let GridConfig {
        instructions,
        smoke,
        telemetry,
        validate_parallel,
        ..
    } = *cfg;
    let jobs = match cfg.jobs {
        _ if validate_parallel => 2,
        Some(j) if j > 1 => j,
        _ => pool::default_jobs().max(2),
    };
    let cores = pool::default_jobs();
    let parallel_timing_valid = cores >= 2 && !validate_parallel;
    let backend = CryptoBackend::auto().name();
    let cells = build_grid(smoke, instructions);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "grid: {} cells ({}) @ {instructions} instructions, {backend} crypto kernel, serial vs {jobs} jobs on {cores} core(s)",
        cells.len(),
        if smoke { "smoke" } else { "full" },
    );
    if !parallel_timing_valid {
        let _ = writeln!(
            out,
            "note: parallel pass is determinism-check only ({}); speedup not reported",
            if validate_parallel {
                "--validate-parallel"
            } else {
                "single-core host"
            }
        );
    }

    // Serial pass, timing each cell so per-cell host cost (ns per
    // simulated store) lands in the report alongside the simulated
    // numbers.  Each cell is also crash-tested (power loss, full drain,
    // verified recovery) so a cell that persists garbage fails the grid
    // instead of silently reporting timing only.
    let t0 = Instant::now();
    let mut serial = Vec::with_capacity(cells.len());
    let mut digests = Vec::with_capacity(cells.len());
    let mut cell_seconds = Vec::with_capacity(cells.len());
    for c in &cells {
        let t = Instant::now();
        let (r, check, digest) = if telemetry {
            c.run_with_recovery_telemetered(1 << 16)
        } else {
            let (r, check) = c.run_with_recovery();
            (r, check, TelemetryDigest::default())
        };
        cell_seconds.push(t.elapsed().as_secs_f64());
        serial.push((r, check));
        digests.push(digest);
    }
    let serial_s = t0.elapsed().as_secs_f64();

    // The parallel pass does the serial pass's work, crash tests
    // included, so `speedup` compares like with like.
    let t1 = Instant::now();
    let parallel = pool::run_indexed(cells.len(), jobs, |i| cells[i].run_with_recovery());
    let parallel_s = t1.elapsed().as_secs_f64();

    if serial != parallel {
        return Err(if telemetry {
            "DETERMINISM VIOLATION: telemetered serial grid differs from plain parallel \
             (events must observe, never steer)"
        } else {
            "DETERMINISM VIOLATION: parallel grid results or recovery verdicts differ from serial"
        }
        .to_owned());
    }

    let speedup = serial_s / parallel_s;
    // Simulated instructions per wall-clock second: every cell simulates
    // warm-up + measurement; count only measured instructions (stable
    // across warm-up policy changes) for a conservative throughput.
    let simulated: u64 = cells.iter().map(|c| c.instructions).sum();
    let serial_ips = simulated as f64 / serial_s;
    let parallel_ips = simulated as f64 / parallel_s;
    let total_stores: u64 = serial
        .iter()
        .map(|(r, _)| r.stats.get(counters::STORES))
        .sum();
    let serial_ns_per_store = serial_s * 1e9 / total_stores.max(1) as f64;

    let _ = writeln!(out, "cells                 {}", cells.len());
    let _ = writeln!(out, "crypto kernel         {backend}");
    let _ = writeln!(
        out,
        "serial                {serial_s:.3} s ({serial_ips:.0} instr/s)"
    );
    let _ = writeln!(out, "serial ns/store       {serial_ns_per_store:.1}");
    if parallel_timing_valid {
        let _ = writeln!(
            out,
            "parallel ({jobs} jobs)     {parallel_s:.3} s ({parallel_ips:.0} instr/s)"
        );
        let _ = writeln!(out, "speedup               {speedup:.2}x");
    } else {
        let _ = writeln!(
            out,
            "parallel ({jobs} jobs)     n/a (determinism check only)"
        );
    }
    let _ = writeln!(
        out,
        "determinism           parallel == serial{} ({} cells)",
        if telemetry { " (telemetered)" } else { "" },
        cells.len()
    );
    let telemetry_events: u64 = digests.iter().map(|d| d.events).sum();
    let telemetry_dropped: u64 = digests.iter().map(|d| d.dropped).sum();
    if telemetry {
        let _ = writeln!(
            out,
            "telemetry             {telemetry_events} events, {telemetry_dropped} dropped"
        );
    }

    let recovery_failures: Vec<String> = serial
        .iter()
        .filter_map(|(_, check)| check.failure().map(|why| format!("{}: {why}", check.label)))
        .collect();
    let recovery_blocks: u64 = serial.iter().map(|(_, c)| c.blocks_checked).sum();
    let recovery_cycles_total: u64 = serial.iter().map(|(_, c)| c.recovery_cycles).sum();
    if recovery_failures.is_empty() {
        let _ = writeln!(
            out,
            "recovery              all {} cells consistent ({recovery_blocks} blocks verified, \
             {recovery_cycles_total} est. sweep cycles)",
            cells.len()
        );
    }
    for f in &recovery_failures {
        let _ = writeln!(out, "RECOVERY FAILURE: {f}");
    }

    // The recovery curve rides along in every grid report: the same
    // instruction budget swept across persistence policies, so the
    // write-amp vs recovery-latency trade-off is versioned next to the
    // timing it trades against.
    let curve = run_sweep(&SweepConfig {
        instructions,
        ..SweepConfig::new(0x5EC9_B0A2)
    });
    if curve.passed() {
        let _ = writeln!(
            out,
            "recovery curve        {} points monotone (fastrec <= triad <= eager-ish <= lazy)",
            curve.points.len()
        );
    } else {
        let _ = write!(out, "RECOVERY CURVE FAILURE:\n{}", curve.render_text());
    }

    let per_cell = cells
        .iter()
        .zip(&serial)
        .zip(&cell_seconds)
        .map(|((c, (r, check)), secs)| {
            let stores = r.stats.get(counters::STORES);
            Json::obj()
                .field("workload", c.profile.name.as_str())
                .field("scheme", c.scheme.name())
                .field("cycles", r.cycles)
                .field("ipc", r.ipc())
                .field("ns_per_store", secs * 1e9 / stores.max(1) as f64)
                .field("recovery_ok", check.passed())
                .field("recovery_blocks", check.blocks_checked)
                .field("recovery_cycles", check.recovery_cycles)
                .field(
                    "recovery_failure",
                    check.failure().map_or(Json::Null, Json::from),
                )
        });
    let timing = |v: f64| {
        if parallel_timing_valid {
            Json::from(v)
        } else {
            Json::Null
        }
    };
    let payload = Json::obj()
        .field("grid", if smoke { "smoke" } else { "full" })
        .field("cells", cells.len())
        .field("instructions_per_cell", instructions)
        .field("crypto_backend", backend)
        .field("jobs", jobs)
        .field("host_cores", cores)
        .field("serial_seconds", serial_s)
        .field("parallel_seconds", timing(parallel_s))
        .field("speedup", timing(speedup))
        .field("parallel_timing_valid", parallel_timing_valid)
        .field("parallel_determinism_validated", true)
        .field("serial_instructions_per_second", serial_ips)
        .field("parallel_instructions_per_second", timing(parallel_ips))
        .field("serial_ns_per_store", serial_ns_per_store)
        .field("deterministic", true)
        .field("recovery_ok", recovery_failures.is_empty())
        .field("recovery_blocks_verified", recovery_blocks)
        .field("recovery_cycles_total", recovery_cycles_total)
        .field("telemetry", telemetry)
        .field("telemetry_events", telemetry_events)
        .field("telemetry_dropped", telemetry_dropped)
        .field("recovery_curve", curve.to_json())
        .field("results", Json::Arr(per_cell.collect()));
    let failure = if !recovery_failures.is_empty() {
        Some(format!(
            "grid: {} cell(s) failed recovery checks",
            recovery_failures.len()
        ))
    } else if !curve.passed() {
        Some("grid: recovery curve failed (ordering or consistency)".to_owned())
    } else {
        None
    };
    Ok(Rendered {
        text: out,
        json: Some(payload),
        failure,
    })
}
