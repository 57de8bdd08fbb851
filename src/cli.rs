//! The `secpb` command-line interface.
//!
//! A hand-rolled (dependency-free) dispatcher so the whole surface is
//! unit-testable: [`dispatch`] takes argv and returns the output text or
//! a usage error.
//!
//! ```text
//! secpb run <bench> <scheme> [entries] [instructions] [--front F]   simulate + metrics
//! secpb watch <bench> <scheme> [instructions] [--front F] [...]  stream health snapshots
//! secpb crash <bench> <scheme> [instructions] [--front F]  crash + verified recovery
//! secpb reproduce <artifact> [instructions] [--jobs N] [--json FILE]  a paper table/figure
//! secpb grid [instructions] [--jobs N] [--smoke] [...]  grid wall-clock + determinism gate
//! secpb storm [--quick] [--seed N] [--brown-out F] [--json]  crash-storm fault injection
//! secpb battery [entries]                               battery sizing table (Table V)
//! secpb debug <bench> [instructions] [...]              per-scheme counters + cycle breakdown
//! secpb trace gen <bench> <file> [instructions]         save a trace
//! secpb trace info <file>                               trace statistics
//! secpb trace run <file> <scheme>                       replay a saved trace
//! secpb serve [--quick] [--shards N] [...]              sharded multi-tenant service
//! secpb serve-bench [instructions] [--smoke] [...]      service scaling + determinism gate
//! secpb soak [--quick] [--seed N]                       fault-tolerance soak storm
//! secpb recover-sweep [--quick] [...]                   recovery-latency vs write-amp curve
//! secpb schemes                                         scheme/front/policy table
//! secpb list                                            benchmarks + schemes
//! ```
//!
//! `--front` selects the system front (`secpb`, `eadr`, `mc<N>` for an
//! N-core machine, `triad<N>` for Triad-NVM selective tree persistence,
//! or `fastrec` for the Huang & Hua fast-recovery layout); every front
//! is driven through the
//! [`PersistSystem`](secpb_core::facade::PersistSystem) facade, so
//! `run` and `crash` are written once.
//!
//! `grid` and `serve-bench` always write their JSON report: to `--json
//! FILE` if given, else to the checked-in `BENCH_grid.json` /
//! `BENCH_serve.json` with `--update-baseline`, else to the temp
//! directory so routine runs never dirty the working tree.

use std::fmt::Write as _;

use secpb_bench::args::RunnerArgs;
use secpb_bench::grid::{run_grid_bench, GridConfig};
use secpb_bench::report::Rendered;
use secpb_bench::reproduce;
use secpb_bench::scenario::{build_front, run_crash, StormFront};
use secpb_bench::serve_bench::{run_serve_bench, ServeBenchConfig};
use secpb_bench::storm::{run_storm_gate, StormConfig};
use secpb_bench::watch::{run_watch_gate, WatchConfig};
use secpb_core::scheme::Scheme;
use secpb_core::system::SecureSystem;
use secpb_sim::config::SystemConfig;
use secpb_sim::pool;
use secpb_sim::trace::TraceSummary;
use secpb_workloads::trace_io;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

/// Top-level usage text.
pub const USAGE: &str = "usage:
  secpb run <bench> <scheme> [entries] [instructions] [--front secpb|eadr|mc<N>]
  secpb watch <bench> <scheme> [instructions] [--front secpb|eadr|mc<N>] [--interval N]
              [--out FILE] [--trace-out FILE] [--crash-every N] [--quick]
  secpb crash <bench> <scheme> [instructions] [--front secpb|eadr|mc<N>]
  secpb reproduce <artifact> [instructions] [--jobs N] [--json FILE]
  secpb grid [instructions] [--jobs N] [--json FILE] [--smoke] [--telemetry]
             [--validate-parallel] [--update-baseline]
  secpb storm [--quick] [--seed N] [--brown-out F] [--json]
  secpb battery [entries]
  secpb debug <bench> [instructions] [--trace-out FILE] [--stats-json FILE]
  secpb trace gen <bench> <file> [instructions]
  secpb trace info <file>
  secpb trace run <file> <scheme>
  secpb serve [--quick] [--shards N] [--workers N] [--tenants N] [--instructions N]
              [--epoch N] [--seed N] [--trace NAME=PATH]...
  secpb serve-bench [instructions] [--smoke] [--tenants N] [--epoch N]
                    [--trace NAME=PATH]... [--json FILE] [--update-baseline]
  secpb soak [--quick] [--seed N]
  secpb recover-sweep [--quick] [--instructions N] [--seed N] [--json FILE]
  secpb schemes
  secpb list

artifacts: table4, fig6, table5, table6, fig7, fig8, fig9, validate-ipc, ablations,
           characterize (table5 and table6 are analytic and ignore instructions)
fronts: secpb, eadr, mc<N>, triad<N>, fastrec";

/// Executes one CLI invocation (argv without the program name).
///
/// # Errors
///
/// Returns a usage/diagnostic message on bad arguments, I/O failure, or
/// a failed gate.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let rest = args.get(1..).unwrap_or_default().to_vec();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&rest),
        Some("watch") => cmd_watch(rest),
        Some("crash") => cmd_crash(&rest),
        Some("reproduce") => cmd_reproduce(&rest),
        Some("grid") => cmd_grid(rest),
        Some("storm") => cmd_storm(rest),
        Some("battery") => cmd_battery(&rest),
        Some("debug") => cmd_debug(rest),
        Some("trace") => cmd_trace(&rest),
        Some("serve") => cmd_serve(rest),
        Some("serve-bench") => cmd_serve_bench(rest),
        Some("soak") => cmd_soak(rest),
        Some("recover-sweep") => cmd_recover_sweep(rest),
        Some("schemes") => Ok(cmd_schemes()),
        Some("list") => Ok(cmd_list()),
        _ => Err(USAGE.to_owned()),
    }
}

/// Appends the usage text to an argument error.
fn usage(err: impl std::fmt::Display) -> String {
    format!("{err}\n{USAGE}")
}

/// Writes `contents` to `path`, noting the file on stderr.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Saves a rendered run's JSON payload to `json_path` (when both exist)
/// and turns a gate failure into an error carrying the report.
fn finish(run: Rendered, json_path: Option<&str>) -> Result<String, String> {
    if let (Some(path), Some(json)) = (json_path, &run.json) {
        write_file(path, &json.to_pretty())?;
    }
    match run.failure {
        Some(why) => Err(format!("{}{why}", run.text)),
        None => Ok(run.text),
    }
}

/// Where `grid` and `serve-bench` write their report (see the module
/// docs).
fn report_path(json: Option<String>, update_baseline: bool, baseline: &str) -> String {
    json.unwrap_or_else(|| {
        if update_baseline {
            baseline.to_owned()
        } else {
            std::env::temp_dir()
                .join(baseline)
                .to_string_lossy()
                .into_owned()
        }
    })
}

/// Removes every `flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Fails on the first argument no flag parser consumed.
fn reject_strays(args: &[String], command: &str) -> Result<(), String> {
    match args.first() {
        Some(stray) => Err(usage(format!("unknown {command} argument `{stray}`"))),
        None => Ok(()),
    }
}

fn parse_profile(name: &str) -> Result<WorkloadProfile, String> {
    WorkloadProfile::named(name).ok_or_else(|| {
        format!(
            "unknown benchmark `{name}`; try: {}",
            WorkloadProfile::SPEC_NAMES.join(", ")
        )
    })
}

fn parse_scheme(name: &str) -> Result<Scheme, String> {
    name.parse::<Scheme>().map_err(|e| e.to_string())
}

/// Extracts `--front <name>` from the argument list (defaulting to the
/// single-core SecPB front), returning the front and remaining args.
fn take_front(args: &[String]) -> Result<(StormFront, Vec<String>), String> {
    let mut rest = args.to_vec();
    let front = take_value_flag(
        &mut rest,
        "--front",
        "secpb, eadr, mc<N>, triad<N>, or fastrec",
    )?
    .map_or(Ok(StormFront::SecPb), |name| name.parse())?;
    Ok((front, rest))
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let (front, args) = take_front(args)?;
    let bench = args.first().ok_or(USAGE)?;
    let scheme = parse_scheme(args.get(1).ok_or(USAGE)?)?;
    let entries: usize = positional(&args, 2)?.unwrap_or(32);
    let instructions: u64 = positional(&args, 3)?.unwrap_or(200_000);
    let profile = parse_profile(bench)?;
    let cfg = SystemConfig::default().with_secpb_entries(entries);
    let trace = TraceGenerator::new(profile, 42).generate(instructions);
    let mut sys = build_front(front, cfg, scheme, 42)?;
    let r = sys.run_trace(&trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench={bench} front={} scheme={} entries={entries}",
        front.name(),
        sys.scheme()
    );
    let _ = writeln!(out, "cycles       {}", r.cycles);
    let _ = writeln!(out, "ipc          {:.3}", r.ipc());
    let _ = writeln!(out, "ppti         {:.1}", r.ppti());
    let _ = writeln!(out, "nwpe         {:.2}", r.nwpe());
    let _ = writeln!(
        out,
        "bmt/store    {:.1}%",
        r.bmt_updates_per_store() * 100.0
    );
    let anomalies = sys.anomalies();
    let _ = writeln!(out, "anomalies    {anomalies}");
    if anomalies > 0 {
        let _ = writeln!(
            out,
            "WARNING: {anomalies} model-invariant anomalies recorded — the run completed but \
             violated internal invariants; stream details with `secpb watch`"
        );
    }
    Ok(out)
}

/// Removes a `--flag <value>` pair from `args`, returning the value;
/// `what` names the value in the error when it is missing.
fn take_value_flag(
    args: &mut Vec<String>,
    flag: &str,
    what: &str,
) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} takes {what}"));
    }
    Ok(args.drain(i..=i + 1).nth(1))
}

/// Parses a `--flag <number>` pair out of `args`, removing both tokens.
fn take_numeric_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    take_value_flag(args, flag, "a number")?
        .map(|v| v.parse().map_err(|_| format!("{flag} takes a number")))
        .transpose()
}

/// Parses a `--flag <path>` pair out of `args`, removing both tokens.
fn take_path_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    take_value_flag(args, flag, "a file path")
}

/// The optional numeric positional argument at `index`.
fn positional<T: std::str::FromStr>(args: &[String], index: usize) -> Result<Option<T>, String> {
    args.get(index)
        .map(|s| s.parse().map_err(|_| USAGE.to_owned()))
        .transpose()
}

fn cmd_watch(args: Vec<String>) -> Result<String, String> {
    let (front, mut args) = take_front(&args)?;
    let quick = take_flag(&mut args, "--quick");
    let interval = take_numeric_flag::<u64>(&mut args, "--interval")?;
    let crash_every = take_numeric_flag::<u64>(&mut args, "--crash-every")?;
    let out_path = take_path_flag(&mut args, "--out")?;
    let trace_path = take_path_flag(&mut args, "--trace-out")?;
    let bench = args.first().ok_or(USAGE)?;
    let scheme = parse_scheme(args.get(1).ok_or(USAGE)?)?;
    let instructions: Option<u64> = positional(&args, 2)?;
    if crash_every == Some(0) {
        return Err(usage("--crash-every takes a positive store count"));
    }

    let mut cfg = WatchConfig::new(front, scheme, parse_profile(bench)?);
    if quick {
        cfg = cfg.quick();
    }
    cfg.instructions = instructions.unwrap_or(cfg.instructions);
    cfg.interval = interval.unwrap_or(cfg.interval);
    cfg.crash_every = crash_every.or(cfg.crash_every);
    let run = run_watch_gate(&cfg, bench, out_path.as_deref(), trace_path.as_deref())?;
    finish(run, None)
}

fn cmd_crash(args: &[String]) -> Result<String, String> {
    let (front, args) = take_front(args)?;
    let bench = args.first().ok_or(USAGE)?;
    let scheme = parse_scheme(args.get(1).ok_or(USAGE)?)?;
    let instructions: u64 = positional(&args, 2)?.unwrap_or(100_000);
    finish(
        run_crash(front, scheme, parse_profile(bench)?, instructions)?,
        None,
    )
}

fn cmd_reproduce(args: &[String]) -> Result<String, String> {
    let (name, rest) = args.split_first().ok_or(USAGE)?;
    let artifact = reproduce::find(name).map_err(usage)?;
    let parsed = RunnerArgs::parse(rest, artifact.default_instructions).map_err(usage)?;
    if parsed.json.is_some() && !artifact.has_json {
        return Err(usage(format!("reproduce {name} has no JSON payload")));
    }
    let jobs = parsed.jobs.unwrap_or_else(pool::default_jobs);
    if artifact.default_instructions > 0 {
        eprintln!(
            "{name} @ {} instructions/benchmark, {jobs} jobs",
            parsed.instructions
        );
    }
    finish(
        (artifact.run)(parsed.instructions, jobs),
        parsed.json.as_deref(),
    )
}

fn cmd_grid(mut args: Vec<String>) -> Result<String, String> {
    let smoke = take_flag(&mut args, "--smoke");
    let telemetry = take_flag(&mut args, "--telemetry");
    let validate_parallel = take_flag(&mut args, "--validate-parallel");
    let update_baseline = take_flag(&mut args, "--update-baseline");
    let parsed = RunnerArgs::parse(&args, 200_000).map_err(usage)?;
    let report = run_grid_bench(&GridConfig {
        instructions: parsed.instructions,
        jobs: parsed.jobs,
        smoke,
        telemetry,
        validate_parallel,
    })?;
    let path = report_path(parsed.json, update_baseline, "BENCH_grid.json");
    finish(report, Some(&path))
}

fn cmd_storm(mut args: Vec<String>) -> Result<String, String> {
    let quick = take_flag(&mut args, "--quick");
    let json = take_flag(&mut args, "--json");
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?.unwrap_or(0x5EC9_B0A2);
    let brown_out = take_numeric_flag::<f64>(&mut args, "--brown-out")?.unwrap_or(0.25);
    if !(brown_out > 0.0 && brown_out <= 1.0) {
        return Err(usage("--brown-out takes a fraction in (0, 1]"));
    }
    reject_strays(&args, "storm")?;
    let cfg = if quick {
        StormConfig::quick(seed)
    } else {
        StormConfig::full(seed)
    };
    finish(run_storm_gate(&cfg, brown_out, json), None)
}

fn cmd_battery(args: &[String]) -> Result<String, String> {
    let entries = match args {
        [] => 32,
        [n] => n
            .parse()
            .map_err(|_| usage(format!("bad entry count `{n}`")))?,
        [_, stray, ..] => return Err(usage(format!("unknown battery argument `{stray}`"))),
    };
    finish(reproduce::battery(entries), None)
}

fn cmd_debug(mut args: Vec<String>) -> Result<String, String> {
    let trace_out = take_path_flag(&mut args, "--trace-out")?;
    let stats_json = take_path_flag(&mut args, "--stats-json")?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(usage(format!("unknown debug argument `{flag}`")));
    }
    let (profile, instructions) = match args.as_slice() {
        [bench] => (parse_profile(bench)?, 300_000),
        [bench, n] => (
            parse_profile(bench)?,
            n.parse()
                .map_err(|_| usage(format!("bad instruction count `{n}`")))?,
        ),
        [] => return Err(USAGE.to_owned()),
        [_, _, stray, ..] => return Err(usage(format!("unknown debug argument `{stray}`"))),
    };
    let (report, trace) = reproduce::debug(&profile, instructions, trace_out.is_some());
    if let (Some(path), Some(trace)) = (&trace_out, trace) {
        write_file(path, &trace.to_pretty())?;
    }
    finish(report, stats_json.as_deref())
}

fn cmd_trace(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("gen") => {
            let bench = args.get(1).ok_or(USAGE)?;
            let path = args.get(2).ok_or(USAGE)?;
            let instructions: u64 = positional(args, 3)?.unwrap_or(100_000);
            let profile = parse_profile(bench)?;
            let trace = TraceGenerator::new(profile, 42).generate(instructions);
            let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            trace_io::write_trace(std::io::BufWriter::new(file), &trace)
                .map_err(|e| e.to_string())?;
            Ok(format!("wrote {} items to {path}\n", trace.len()))
        }
        Some("info") => {
            let path = args.get(1).ok_or(USAGE)?;
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let trace =
                trace_io::read_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
            let s = TraceSummary::of(&trace);
            let mut out = String::new();
            let _ = writeln!(out, "items        {}", trace.len());
            let _ = writeln!(out, "instructions {}", s.instructions);
            let _ = writeln!(out, "loads        {}", s.loads);
            let _ = writeln!(out, "stores       {}", s.stores);
            let _ = writeln!(out, "store blocks {}", s.store_blocks);
            let _ = writeln!(out, "ppti         {:.1}", s.stores_per_kilo_instr());
            let _ = writeln!(out, "stores/block {:.2}", s.stores_per_block());
            Ok(out)
        }
        Some("run") => {
            let path = args.get(1).ok_or(USAGE)?;
            let scheme = parse_scheme(args.get(2).ok_or(USAGE)?)?;
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let trace =
                trace_io::read_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
            let mut sys = SecureSystem::new(SystemConfig::default(), scheme, 42);
            let r = sys.run_trace(trace);
            Ok(format!(
                "scheme={scheme} cycles={} ipc={:.3} ppti={:.1}\n",
                r.cycles,
                r.ipc(),
                r.ppti()
            ))
        }
        _ => Err(USAGE.to_owned()),
    }
}

/// The tenant-population flags `serve` and `serve-bench` share.
struct TenantFlags {
    /// `--tenants N`: synthetic tenant count.
    count: Option<usize>,
    /// `--epoch N`: nominal epoch length in trace items.
    epoch: Option<usize>,
    /// Repeated `--trace NAME=PATH`: tenants replaying `SPB1` files.
    files: Vec<(String, String)>,
}

fn take_tenant_flags(args: &mut Vec<String>) -> Result<TenantFlags, String> {
    let count = take_numeric_flag::<usize>(args, "--tenants")?;
    let epoch = take_numeric_flag::<usize>(args, "--epoch")?;
    let mut files = Vec::new();
    while let Some(spec) = take_path_flag(args, "--trace")? {
        let (name, path) = spec
            .split_once('=')
            .ok_or("--trace takes NAME=PATH (a tenant name and an SPB1 trace file)")?;
        files.push((name.to_owned(), path.to_owned()));
    }
    Ok(TenantFlags {
        count,
        epoch,
        files,
    })
}

fn cmd_serve(mut args: Vec<String>) -> Result<String, String> {
    use secpb_bench::serve::{run_serve_gate, ServeConfig, TenantSpec};

    let quick = take_flag(&mut args, "--quick");
    let shards = take_numeric_flag::<usize>(&mut args, "--shards")?;
    let workers = take_numeric_flag::<usize>(&mut args, "--workers")?;
    let instructions = take_numeric_flag::<u64>(&mut args, "--instructions")?;
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?;
    let tenants = take_tenant_flags(&mut args)?;
    reject_strays(&args, "serve")?;

    let mut cfg = if quick {
        ServeConfig::quick()
    } else {
        // Default shape: 2 shards, 4 synthetic tenants over the SPEC
        // suite with cycling QoS classes, telemetry on.
        let mut cfg =
            ServeConfig::new(2).with_synthetic_tenants(tenants.count.unwrap_or(4), 20_000);
        cfg.telemetry = true;
        cfg
    };
    if let Some(n) = shards {
        cfg.shards = n;
        cfg.workers = n.max(1);
    }
    if let Some(n) = workers {
        cfg.workers = n;
    }
    if let Some(n) = tenants.epoch {
        cfg.epoch_len = n;
    }
    if let Some(n) = seed {
        cfg.seed = n;
    }
    if let Some(n) = instructions {
        for t in &mut cfg.tenants {
            t.instructions = n;
        }
    }
    for (name, path) in &tenants.files {
        cfg.tenants.push(TenantSpec::from_file(name, path));
    }

    finish(run_serve_gate(&cfg).map_err(|e| e.to_string())?, None)
}

fn cmd_serve_bench(mut args: Vec<String>) -> Result<String, String> {
    let smoke = take_flag(&mut args, "--smoke");
    let update_baseline = take_flag(&mut args, "--update-baseline");
    let tenants = take_tenant_flags(&mut args)?;
    let parsed = RunnerArgs::parse(&args, if smoke { 8_000 } else { 60_000 }).map_err(usage)?;
    if parsed.jobs.is_some() {
        return Err(usage(
            "serve-bench takes no --jobs: each run has one worker per shard",
        ));
    }
    let report = run_serve_bench(&ServeBenchConfig {
        smoke,
        instructions: parsed.instructions,
        tenants: tenants.count.unwrap_or(8),
        epoch_len: tenants.epoch.unwrap_or(1024),
        file_tenants: tenants.files,
    })?;
    let path = report_path(parsed.json, update_baseline, "BENCH_serve.json");
    finish(report, Some(&path))
}

fn cmd_soak(mut args: Vec<String>) -> Result<String, String> {
    use secpb_bench::soak::{run_soak_gate, SoakConfig};

    let quick = take_flag(&mut args, "--quick");
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?.unwrap_or(0x50AC);
    reject_strays(&args, "soak")?;

    let cfg = if quick {
        SoakConfig::quick(seed)
    } else {
        SoakConfig::full(seed)
    };
    let mode = if quick { "--quick" } else { "full" };
    finish(run_soak_gate(&cfg, mode).map_err(|e| e.to_string())?, None)
}

fn cmd_recover_sweep(mut args: Vec<String>) -> Result<String, String> {
    use secpb_bench::recovery_sweep::{run_sweep_gate, SweepConfig};

    let quick = take_flag(&mut args, "--quick");
    let instructions = take_numeric_flag::<u64>(&mut args, "--instructions")?;
    let seed = take_numeric_flag::<u64>(&mut args, "--seed")?.unwrap_or(0x5EC9_B0A2);
    let json_path = take_path_flag(&mut args, "--json")?;
    reject_strays(&args, "recover-sweep")?;

    if instructions == Some(0) {
        return Err(usage("--instructions takes a positive instruction count"));
    }
    let mut cfg = if quick {
        SweepConfig::quick(seed)
    } else {
        SweepConfig::new(seed)
    };
    cfg.instructions = instructions.unwrap_or(cfg.instructions);
    finish(run_sweep_gate(&cfg), json_path.as_deref())
}

fn cmd_schemes() -> String {
    use secpb_core::policy::PersistencePolicy;

    let step_list = |ew: secpb_core::scheme::EarlyWork, early: bool| -> String {
        let steps = [
            (ew.counter, "counter"),
            (ew.otp, "otp"),
            (ew.bmt, "bmt"),
            (ew.ciphertext, "ct"),
            (ew.mac, "mac"),
        ];
        let picked: Vec<&str> = steps
            .iter()
            .filter(|(on, _)| *on == early)
            .map(|(_, n)| *n)
            .collect();
        if picked.is_empty() {
            "-".to_string()
        } else {
            picked.join(",")
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:<24} {:<24} policy",
        "scheme", "secure", "early (at persist)", "late (at drain/sync)"
    );
    for scheme in Scheme::ALL {
        let ew = scheme.early_work();
        let policy = PersistencePolicy::for_scheme(scheme);
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:<24} {:<24} {}",
            scheme.name(),
            if scheme.is_secure() { "yes" } else { "no" },
            step_list(ew, true),
            step_list(ew, false),
            if policy.is_baseline() {
                "root-only/plain"
            } else {
                "custom"
            }
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "fronts (select with --front):");
    let _ = writeln!(
        out,
        "  secpb     single-core SecPB pipeline (baseline root-only tree)"
    );
    let _ = writeln!(out, "  eadr      secure-eADR whole-hierarchy drain");
    let _ = writeln!(out, "  mc<N>     N-core directory-coherence SecPB");
    let _ = writeln!(
        out,
        "  triad<N>  Triad-NVM selective persistence: tree levels 0..N durable,\n            \
         recovery folds the rest from the level N-1 frontier"
    );
    let _ = writeln!(
        out,
        "  fastrec   Huang & Hua fast-recovery layout: durable shadow of the BMT\n            \
         root, near-constant recovery validation"
    );
    out
}

fn cmd_list() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "benchmarks: {}",
        WorkloadProfile::SPEC_NAMES.join(", ")
    );
    let schemes: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
    let _ = writeln!(out, "schemes   : {}", schemes.join(", "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    #[test]
    fn no_args_prints_usage() {
        assert_eq!(run(&[]).unwrap_err(), USAGE);
        assert_eq!(run(&["bogus"]).unwrap_err(), USAGE);
    }

    #[test]
    fn list_enumerates() {
        let out = run(&["list"]).unwrap();
        assert!(out.contains("gamess"));
        assert!(out.contains("cobcm"));
    }

    #[test]
    fn run_produces_metrics() {
        let out = run(&["run", "hmmer", "cobcm", "32", "20000"]).unwrap();
        assert!(out.contains("ipc"));
        assert!(out.contains("ppti"));
    }

    #[test]
    fn run_drives_every_front_through_the_facade() {
        for front in ["secpb", "eadr", "mc2", "triad4", "fastrec"] {
            let out = run(&["run", "hmmer", "cobcm", "32", "20000", "--front", front]).unwrap();
            assert!(out.contains(&format!("front={front}")), "{out}");
            assert!(out.contains("cycles"), "{out}");
        }
    }

    #[test]
    fn crash_recovers_on_every_front() {
        for front in ["secpb", "eadr", "mc2", "triad4", "fastrec"] {
            let out = run(&["crash", "sjeng", "bcm", "20000", "--front", front]).unwrap();
            assert!(out.contains("consistent           true"), "{front}: {out}");
        }
    }

    #[test]
    fn triad_front_rejects_depths_beyond_the_tree() {
        let err = run(&[
            "run", "hmmer", "cobcm", "32", "20000", "--front", "triad200",
        ])
        .unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        assert!(err.contains("depth"), "{err}");
    }

    #[test]
    fn invalid_front_configs_get_friendly_messages() {
        let err = run(&["crash", "sjeng", "sp", "20000", "--front", "mc2"]).unwrap_err();
        assert!(
            err.contains("invalid configuration") && err.contains("persist-buffer scheme"),
            "{err}"
        );
        let err = run(&["run", "hmmer", "cobcm", "--front", "mc0"]).unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        let err = run(&["run", "hmmer", "cobcm", "--front", "warp"]).unwrap_err();
        assert!(err.contains("unknown front"), "{err}");
        let err = run(&["run", "hmmer", "cobcm", "--front"]).unwrap_err();
        assert!(err.contains("--front takes"), "{err}");
    }

    #[test]
    fn run_rejects_unknowns() {
        assert!(run(&["run", "nonesuch", "cobcm"])
            .unwrap_err()
            .contains("unknown benchmark"));
        assert!(run(&["run", "hmmer", "nonesuch"])
            .unwrap_err()
            .contains("unknown scheme"));
        for scheme in ["cobcm", "nogap", "bbb"] {
            let err = run(&["run", "hmmer", scheme, "0", "2000"]).unwrap_err();
            assert!(
                err.contains("invalid configuration") && err.contains("at least one entry"),
                "{scheme}: {err}"
            );
        }
        assert!(run(&["run", "hmmer", "sp", "0", "2000"]).is_ok());
    }

    #[test]
    fn run_reports_anomaly_counter() {
        let out = run(&["run", "hmmer", "cobcm", "32", "20000"]).unwrap();
        assert!(out.contains("anomalies    0"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");
    }

    #[test]
    fn watch_quick_streams_health_snapshots() {
        let out = run(&["watch", "gamess", "cobcm", "--quick"]).unwrap();
        assert!(out.contains("\"seq\":1"), "{out}");
        assert!(out.contains("\"drain_latency\""), "{out}");
        assert!(out.contains("anomalies    0"), "{out}");
        assert!(out.contains("consistent   true"), "{out}");
        assert!(out.contains("crashes"), "{out}");
    }

    #[test]
    fn watch_writes_jsonl_and_chrome_trace_files() {
        let dir = std::env::temp_dir().join("secpb_cli_watch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("health.jsonl").to_string_lossy().into_owned();
        let trace = dir.join("trace.json").to_string_lossy().into_owned();
        let out = run(&[
            "watch",
            "gamess",
            "cobcm",
            "--quick",
            "--out",
            &snap,
            "--trace-out",
            &trace,
        ])
        .unwrap();
        assert!(out.contains(&snap), "{out}");
        let jsonl = std::fs::read_to_string(&snap).unwrap();
        for line in jsonl.lines() {
            let parsed = secpb_sim::json::Json::parse(line).expect("each line parses");
            assert!(parsed.get("occupancy").is_some(), "{line}");
        }
        let doc = std::fs::read_to_string(&trace).unwrap();
        assert!(
            secpb_sim::json::Json::parse(&doc).is_ok(),
            "chrome trace must be valid JSON"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn watch_rejects_bad_flags() {
        assert!(run(&["watch"]).is_err());
        assert!(run(&["watch", "gamess"]).is_err());
        assert!(run(&["watch", "gamess", "cobcm", "--interval"])
            .unwrap_err()
            .contains("--interval takes a number"));
        assert!(run(&["watch", "gamess", "cobcm", "--out"])
            .unwrap_err()
            .contains("--out takes a file path"));
    }

    #[test]
    fn zero_value_inputs_are_rejected_before_running() {
        let err = run(&["watch", "gamess", "cobcm", "--crash-every", "0"]).unwrap_err();
        assert!(err.contains("--crash-every takes a positive"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = run(&["recover-sweep", "--instructions", "0"]).unwrap_err();
        assert!(err.contains("--instructions takes a positive"), "{err}");
        assert!(!err.contains("ORDERING VIOLATION"), "{err}");
    }

    #[test]
    fn grid_reports_all_schemes_and_ignores_job_count() {
        let dir = std::env::temp_dir().join("secpb_cli_grid_test");
        std::fs::create_dir_all(&dir).unwrap();
        // The smoke grid's report with host timing and the job count
        // stripped, as `ci.sh`'s `normalize_grid` does.
        let report = |jobs: &str| {
            let path = dir.join(format!("grid{jobs}.json"));
            let path = path.to_string_lossy();
            let out = run(&["grid", "20000", "--smoke", "--jobs", jobs, "--json", &path]).unwrap();
            assert!(
                out.contains("determinism           parallel == serial"),
                "{out}"
            );
            let doc = std::fs::read_to_string(&*path).unwrap();
            std::fs::remove_file(&*path).ok();
            doc.lines()
                .filter(|l| {
                    !["seconds", "speedup", "per_second", "per_store", "\"jobs\""]
                        .iter()
                        .any(|k| l.contains(k))
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let serial = report("1");
        let parallel = report("4");
        // Both smoke schemes on both workloads, and the recovery curve.
        for name in ["\"bbb\"", "\"cobcm\"", "\"gamess\"", "\"povray\"", "nogap"] {
            assert!(serial.contains(name), "{serial}");
        }
        // Byte-identical simulated numbers regardless of worker count.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn grid_rejects_bad_arguments() {
        assert!(run(&["grid", "--jobs"]).is_err());
        assert!(run(&["grid", "notanumber"]).is_err());
        assert!(run(&["grid", "--bogus"]).is_err());
    }

    #[test]
    fn reproduce_rejects_bad_arguments() {
        let err = run(&["reproduce", "fig6", "--bogus"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        let err = run(&["reproduce", "validate-ipc", "abc"]).unwrap_err();
        assert!(err.contains("bad instruction count"), "{err}");
        for artifact in ["table4", "fig6", "fig7", "fig9", "ablations"] {
            let err = run(&["reproduce", artifact, "0"]).unwrap_err();
            assert!(err.contains("must be positive"), "{artifact}: {err}");
        }
        let err = run(&["reproduce", "fig10"]).unwrap_err();
        assert!(
            err.contains("unknown artifact") && err.contains("validate-ipc"),
            "{err}"
        );
        let err = run(&["reproduce", "ablations", "--json", "x.json"]).unwrap_err();
        assert!(err.contains("no JSON payload"), "{err}");
        let err = run(&["reproduce", "table5", "--json", "/nonexistent/x.json"]).unwrap_err();
        assert!(err.contains("/nonexistent/x.json"), "{err}");
        assert_eq!(run(&["reproduce"]).unwrap_err(), USAGE);
    }

    #[test]
    fn reproduce_analytic_tables_match_checked_in_results() {
        for name in ["table5", "table6"] {
            let out = run(&["reproduce", name]).unwrap();
            let path = format!("{}/results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
            let checked_in = std::fs::read_to_string(path).unwrap();
            let expected = checked_in
                .strip_suffix(&format!("wrote results/{name}.json\n"))
                .expect("results file ends with its `wrote` line");
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn debug_rejects_bad_arguments() {
        let err = run(&["debug", "povray", "--bogus"]).unwrap_err();
        assert!(err.contains("unknown debug argument"), "{err}");
        let err = run(&["debug", "povray", "abc"]).unwrap_err();
        assert!(err.contains("bad instruction count"), "{err}");
        let err = run(&["debug", "nosuchbench"]).unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
        let err = run(&["debug", "povray", "--trace-out"]).unwrap_err();
        assert!(err.contains("--trace-out takes a file path"), "{err}");
        assert_eq!(run(&["debug"]).unwrap_err(), USAGE);
    }

    #[test]
    fn debug_breaks_down_every_scheme_and_writes_stats() {
        let dir = std::env::temp_dir().join("secpb_cli_debug_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stats = dir.join("stats.json").to_string_lossy().into_owned();
        let out = run(&["debug", "gamess", "5000", "--stats-json", &stats]).unwrap();
        for scheme in Scheme::ALL {
            assert!(
                out.contains(&format!("{:>6}: cycles=", scheme.name())),
                "{out}"
            );
        }
        let doc = secpb_sim::json::Json::parse(&std::fs::read_to_string(&stats).unwrap()).unwrap();
        assert_eq!(doc.get("schemes").unwrap().items().len(), Scheme::ALL.len());
        std::fs::remove_file(&stats).ok();
    }

    #[test]
    fn serve_bench_rejects_bad_arguments() {
        let err = run(&["serve-bench", "--smoke", "--bogus"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        let err = run(&["serve-bench", "abc"]).unwrap_err();
        assert!(err.contains("bad instruction count"), "{err}");
        let err = run(&["serve-bench", "--tenants", "x"]).unwrap_err();
        assert!(err.contains("--tenants takes a number"), "{err}");
        let err = run(&["serve-bench", "--trace", "noequals"]).unwrap_err();
        assert!(err.contains("NAME=PATH"), "{err}");
        let err = run(&["serve-bench", "--jobs", "2"]).unwrap_err();
        assert!(err.contains("no --jobs"), "{err}");
    }

    #[test]
    fn serve_bench_smoke_validates_determinism() {
        let dir = std::env::temp_dir().join("secpb_cli_serve_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.json").to_string_lossy().into_owned();
        let out = run(&["serve-bench", "--smoke", "--json", &path]).unwrap();
        assert!(out.contains("match solo re-runs"), "{out}");
        let doc = secpb_sim::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("determinism_validated"),
            Some(&secpb_sim::json::Json::Bool(true))
        );
        for key in ["scaling_valid", "monotone_throughput", "results"] {
            assert!(doc.get(key).is_some(), "report missing `{key}`");
        }
        assert_eq!(doc.get("results").unwrap().items().len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_reports_consistency() {
        let out = run(&["crash", "sjeng", "bcm", "20000"]).unwrap();
        assert!(out.contains("consistent           true"));
        assert!(out.contains("blocks recovered"));
    }

    #[test]
    fn storm_quick_passes_and_rejects_bad_flags() {
        let out = run(&["storm", "--quick", "--seed", "3"]).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("cobcm/drain-all"), "{out}");
        assert!(run(&["storm", "--seed"]).is_err());
        assert!(run(&["storm", "--seed", "x"]).is_err());
        assert!(run(&["storm", "--brown-out", "2.0"]).is_err());
        assert!(run(&["storm", "--bogus"]).is_err());
    }

    #[test]
    fn storm_quick_brown_out_reports_losses() {
        let out = run(&["storm", "--quick", "--brown-out", "0.25"]).unwrap();
        let brown_out = out
            .split_once("=== brown-out pass ===")
            .map_or("", |(_, pass)| pass);
        let lost: u64 = brown_out
            .lines()
            .find(|l| l.starts_with("storm:"))
            .and_then(|l| {
                l.split(',')
                    .find(|p| p.contains("entries lost"))
                    .and_then(|p| p.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
            })
            .unwrap_or(0);
        assert!(lost > 0, "brown-out storm should lose entries:\n{out}");
    }

    #[test]
    fn recover_sweep_quick_reports_monotone_curve() {
        let out = run(&["recover-sweep", "--quick"]).unwrap();
        for name in ["fastrec", "triad-full", "nogap", "cobcm"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("monotone"), "{out}");
    }

    #[test]
    fn recover_sweep_writes_json_and_rejects_strays() {
        let dir = std::env::temp_dir().join("secpb_cli_sweep_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("curve.json").to_string_lossy().into_owned();
        run(&["recover-sweep", "--quick", "--json", &path]).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        let parsed = secpb_sim::json::Json::parse(&doc).expect("sweep JSON parses");
        assert!(parsed.get("points").is_some(), "{doc}");
        std::fs::remove_file(&path).ok();
        assert!(run(&["recover-sweep", "--bogus"])
            .unwrap_err()
            .contains("unknown recover-sweep argument"));
        assert!(run(&["recover-sweep", "--seed"]).is_err());
    }

    #[test]
    fn schemes_table_lists_every_scheme_and_front() {
        let out = run(&["schemes"]).unwrap();
        for scheme in Scheme::ALL {
            assert!(out.contains(scheme.name()), "{out}");
        }
        for token in ["counter", "mac", "triad<N>", "fastrec", "root-only/plain"] {
            assert!(out.contains(token), "{out}");
        }
    }

    #[test]
    fn battery_lists_all_schemes() {
        let out = run(&["battery", "64"]).unwrap();
        for name in ["cobcm", "nogap", "bbb"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("64-entry SecPB"), "{out}");
        assert!(run(&["battery", "abc"]).is_err());
        assert!(run(&["battery", "64", "extra"]).is_err());
    }

    #[test]
    fn trace_gen_info_run_round_trip() {
        let dir = std::env::temp_dir().join("secpb_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spb").to_string_lossy().into_owned();
        let gen = run(&["trace", "gen", "milc", &path, "10000"]).unwrap();
        assert!(gen.contains("wrote"));
        let info = run(&["trace", "info", &path]).unwrap();
        assert!(info.contains("stores"));
        let replay = run(&["trace", "run", &path, "cobcm"]).unwrap();
        assert!(replay.contains("cycles="));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_quick_drains_and_recovers() {
        let out = run(&["serve", "--quick"]).unwrap();
        assert!(out.contains("stores drained"), "{out}");
        assert!(out.contains("anomalies       0"), "{out}");
        assert!(out.contains("qos violations  0"), "{out}");
        assert!(out.contains("consistent      true"), "{out}");
        assert!(out.contains("digest="), "{out}");
        // Telemetry is on in quick mode: shards stream snapshots.
        assert!(!out.contains("snapshots=0"), "{out}");
    }

    #[test]
    fn serve_is_deterministic_across_worker_counts() {
        let body = |workers: &str| {
            run(&["serve", "--quick", "--workers", workers])
                .unwrap()
                .lines()
                .filter(|l| l.starts_with("shard") || l.starts_with("tenant"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body("1"), body("4"));
    }

    #[test]
    fn serve_replays_trace_file_tenants() {
        let dir = std::env::temp_dir().join("secpb_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.spb").to_string_lossy().into_owned();
        run(&["trace", "gen", "mcf", &path, "8000"]).unwrap();
        let out = run(&["serve", "--quick", "--trace", &format!("ext={path}")]).unwrap();
        assert!(out.contains("tenant ext"), "{out}");
        assert!(out.contains("consistent      true"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_reports_malformed_trace_with_offset() {
        let dir = std::env::temp_dir().join("secpb_cli_serve_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.spb").to_string_lossy().into_owned();
        std::fs::write(&path, b"not a trace at all").unwrap();
        let err = run(&["serve", "--quick", "--trace", &format!("bad={path}")]).unwrap_err();
        assert!(err.contains("byte offset"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run(&["serve", "--shards"])
            .unwrap_err()
            .contains("--shards takes a number"));
        assert!(run(&["serve", "--trace", "noequals"])
            .unwrap_err()
            .contains("NAME=PATH"));
        assert!(run(&["serve", "stray"])
            .unwrap_err()
            .contains("unknown serve argument"));
    }

    #[test]
    fn trace_subcommand_usage() {
        assert_eq!(run(&["trace"]).unwrap_err(), USAGE);
        assert!(run(&["trace", "info", "/nonexistent/file"]).is_err());
    }

    #[test]
    fn soak_quick_converges() {
        let out = run(&["soak", "--quick", "--seed", "9"]).unwrap();
        assert!(out.contains("soak crashes="), "{out}");
        assert!(out.contains("match crash-free reference"), "{out}");
        assert!(out.contains("byte-identical"), "{out}");
        assert!(out.contains("converged         true"), "{out}");
    }

    #[test]
    fn soak_rejects_bad_flags() {
        assert!(run(&["soak", "stray"])
            .unwrap_err()
            .contains("unknown soak argument"));
        assert!(run(&["soak", "--seed"])
            .unwrap_err()
            .contains("--seed takes a number"));
    }
}
