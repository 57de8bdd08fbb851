//! Host-time benchmark of the SecPB simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload repro|restart|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a context line (the run's settings, the crypto kernel that
//! ran, the build, the failure tally) and then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones.  `BENCHMARK.json` at the repository root names them
//! all; `simbench/README.md` says what each measures.  Exits nonzero when
//! any output check fails.

mod golden;
mod harness;
mod measure;
mod repro;
mod restart;
mod serve;
mod spans;

use secpb_crypto::backend::CryptoBackend;
use secpb_sim::json::Json;

use harness::{Report, Scale};

/// The benchmark's workloads.
const WORKLOADS: [&str; 3] = ["repro", "restart", "serve"];

/// Directory (inside the working directory) that traced runs write their
/// spans to.
const TRACE_DIR: &str = ".bench_out";

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = golden::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == v)
                        .ok_or_else(|| format!("unknown workload `{v}`; one of {WORKLOADS:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, scale: Scale) -> Report {
    let Args {
        workload,
        seed,
        seconds,
        trace,
    } = *args;
    match workload {
        "repro" => harness::run::<repro::Repro>(seed, seconds, trace, scale),
        "restart" => harness::run::<restart::Restart>(seed, seconds, trace, scale),
        "serve" => harness::run::<serve::Serve>(seed, seconds, trace, scale),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The run's context: what ran, on what, and how it went.
fn context(args: &Args, report: &Report) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj()
        .field("workload", args.workload)
        .field("seed", args.seed)
        .field("default_seed", golden::DEFAULT_SEED)
        .field("heldout_seed", golden::HELDOUT_SEED)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .field("crypto_kernel", CryptoBackend::auto().name())
        .field("hw_crypto", cfg!(feature = "hw-crypto"))
        .field("nproc", nproc as u64)
        .field("commit", commit())
        .field("passes", report.passes as u64)
        .field("ops", report.ops as u64)
        .field("pass_s", Json::arr(report.pass_s.iter().copied()))
        .field("setup_s", Json::arr(report.setup_s.iter().copied()))
        .field("fail_frac", report.checks.fail_frac())
        .field(
            "failures",
            Json::arr(report.checks.failures().iter().map(String::as_str)),
        )
}

/// The result line.
fn result(report: &Report) -> Json {
    let mut metrics = Json::obj();
    for &(name, value, unit) in &report.metrics {
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    Json::obj()
        .field("correct", report.checks.failed() == 0)
        .field("attempted", report.checks.attempted())
        .field("failed", report.checks.failed())
        .field("metrics", metrics)
}

fn write_trace(args: &Args, report: &Report) -> std::io::Result<()> {
    let Some(spans) = &report.spans else {
        return Ok(());
    };
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/trace-{}-{}.json", args.workload, args.seed);
    std::fs::write(&path, spans.to_chrome_json().to_string())?;
    eprintln!("simbench: spans written to {path}");
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload repro|restart|serve [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let report = run(&args, Scale::FULL);
    if let Err(e) = write_trace(&args, &report) {
        eprintln!("simbench: could not write spans: {e}");
    }
    println!("{}", context(&args, &report));
    println!("{}", result(&report));
    if report.checks.failed() != 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("--workload serve --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "serve",
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err(), "workload is required");
        assert!(args("--workload repro --trace 2").is_err());
        assert!(args("--workload repro --seconds 0").is_err());
        assert!(args("--workload repro --seed").is_err());
    }

    /// Names and units a section of `BENCHMARK.json` declares.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .expect("section present")
            .items()
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string key")
                        .to_owned()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// Every workload, at a tiny size, emits exactly the declared metrics
    /// of each mode — with their declared units — and passes its checks.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = declared(section);
            want.sort();
            for workload in WORKLOADS {
                let a = Args {
                    workload,
                    seed: 11,
                    seconds: 0.05,
                    trace,
                };
                let report = run(&a, Scale::TINY);
                assert_eq!(
                    report.checks.failed(),
                    0,
                    "{workload}: {:?}",
                    report.checks.failures()
                );
                let mut got: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|&(n, _, u)| (n.to_owned(), u.to_owned()))
                    .collect();
                got.sort();
                assert_eq!(got, want, "{workload} with trace={trace}");
                let line = result(&report).to_string();
                let back = Json::parse(&line).expect("result line is JSON");
                assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
                if !trace {
                    for (name, _) in &want {
                        let v = back.get("metrics").and_then(|m| m.get(name));
                        let v = v.and_then(|m| m.get("value")).and_then(Json::as_f64);
                        assert!(v.is_some_and(|v| v > 0.0), "{workload}: {name} = {v:?}");
                    }
                }
            }
        }
    }

    /// Prints `golden.txt`'s digest lines for the default and the held-out
    /// seed:
    /// `cargo test --release --manifest-path simbench/Cargo.toml -- --ignored --nocapture`.
    #[test]
    #[ignore = "prints the recorded digests; run by hand after a change to simulated output"]
    fn print_recorded_digests() {
        for seed in [golden::DEFAULT_SEED, golden::HELDOUT_SEED] {
            for (workload, lines) in [
                ("repro", repro::unit_digests(seed)),
                ("restart", restart::unit_digests(seed)),
                ("serve", serve::unit_digests(seed)),
            ] {
                for (unit, digest) in lines {
                    println!("{workload} {seed} {unit} {digest}");
                }
            }
        }
    }

    /// In a traced run, layer self times plus the unattributed remainder
    /// add up to the traced wall time.
    #[test]
    fn layer_self_times_add_up_to_the_traced_wall_time() {
        for workload in ["repro", "restart"] {
            let a = Args {
                workload,
                seed: 5,
                seconds: 0.05,
                trace: true,
            };
            let report = run(&a, Scale::TINY);
            let get = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map(|m| m.1)
                    .expect("metric emitted")
            };
            let layers: f64 = harness::LAYER_SPANS.iter().map(|(_, m)| get(m)).sum();
            let (wall, rest) = (get("trace.wall_s"), get("trace.unattributed_s"));
            assert!((layers + rest - wall).abs() < 1e-9, "{workload}");
            assert!(
                rest >= 0.0 && layers > 0.5 * wall,
                "{workload}: {layers} of {wall}"
            );
        }
    }
}
