//! The paper's tables and figures, rendered: what `secpb reproduce
//! <name>` prints and saves.
//!
//! Each artifact runs its [`experiments`] study and renders the rows
//! shaped like the paper's, next to the paper's anchor values.  Every
//! artifact takes `(instructions, jobs)`; the analytic tables (Table V
//! and VI) ignore both.  [`battery`] is Table V at any SecPB size
//! (`secpb battery`), and [`debug`] renders one benchmark's counters
//! and cycle breakdown under every scheme (`secpb debug`).

use std::fmt::Write as _;

use secpb_core::scheme::Scheme;
use secpb_core::tree::TreeKind;
use secpb_sim::config::SystemConfig;
use secpb_sim::json::Json;
use secpb_sim::pool;
use secpb_sim::tracer::{merge_chrome_traces, Phase};
use secpb_workloads::characterize::ReuseProfile;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

use crate::analytic::validate;
use crate::experiments::{self, run_benchmark, run_benchmark_instrumented, DEFAULT_INSTRUCTIONS};
use crate::report::{bar_chart, mm3, overhead_pct, render_table, slowdown_label, Rendered};

/// The paper's Table IV: average slowdowns for a 32-entry SecPB.
pub const PAPER_TABLE4: [(Scheme, f64); 6] = [
    (Scheme::Cobcm, 1.013),
    (Scheme::Obcm, 1.015),
    (Scheme::Bcm, 1.148),
    (Scheme::Cm, 1.713),
    (Scheme::M, 1.738),
    (Scheme::NoGap, 2.184),
];

/// One reproducible artifact.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// Name on the command line (`secpb reproduce <name>`).
    pub name: &'static str,
    /// Measurement budget per benchmark when none is given (0 for the
    /// analytic tables, which take none).
    pub default_instructions: u64,
    /// Whether the artifact has a JSON payload to save.
    pub has_json: bool,
    /// Runs the study at `(instructions, jobs)` and renders it.
    pub run: fn(u64, usize) -> Rendered,
}

/// Every artifact, in the paper's order.
pub const ARTIFACTS: [Artifact; 10] = [
    artifact("table4", DEFAULT_INSTRUCTIONS, true, table4),
    artifact("fig6", DEFAULT_INSTRUCTIONS, true, fig6),
    artifact("table5", 0, true, |_, _| battery(32)),
    artifact("table6", 0, true, |_, _| table6()),
    artifact("fig7", DEFAULT_INSTRUCTIONS, true, fig7),
    artifact("fig8", DEFAULT_INSTRUCTIONS, true, fig8),
    artifact("fig9", DEFAULT_INSTRUCTIONS, true, fig9),
    artifact("validate-ipc", DEFAULT_INSTRUCTIONS, false, validate_ipc),
    artifact("ablations", DEFAULT_INSTRUCTIONS / 4, false, ablations),
    artifact(
        "characterize",
        DEFAULT_INSTRUCTIONS / 5,
        false,
        characterize,
    ),
];

const fn artifact(
    name: &'static str,
    default_instructions: u64,
    has_json: bool,
    run: fn(u64, usize) -> Rendered,
) -> Artifact {
    Artifact {
        name,
        default_instructions,
        has_json,
        run,
    }
}

/// Looks up an artifact by name.
///
/// # Errors
///
/// Names every known artifact when `name` is not one of them.
pub fn find(name: &str) -> Result<Artifact, String> {
    ARTIFACTS
        .iter()
        .find(|a| a.name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
            format!("unknown artifact `{name}`; try: {}", names.join(", "))
        })
}

/// Table IV: average overheads of every scheme, ours next to the paper's.
fn table4(instructions: u64, jobs: usize) -> Rendered {
    let study = experiments::table4(instructions, jobs);
    let rows: Vec<Vec<String>> = study
        .averages
        .iter()
        .zip(PAPER_TABLE4)
        .map(|((scheme, slowdown), (_, paper))| {
            vec![
                scheme.name().to_owned(),
                overhead_pct(*slowdown),
                overhead_pct(paper),
            ]
        })
        .collect();
    let bars: Vec<(String, f64)> = study
        .averages
        .iter()
        .map(|(s, v)| (s.name().to_owned(), *v))
        .collect();
    let text = format!(
        "TABLE IV: performance overheads, 32-entry SecPB (geometric mean)\n{}\n\
         normalized execution time (1.0 = bbb):\n{}\n",
        render_table(&["model", "slowdown (ours)", "slowdown (paper)"], &rows),
        bar_chart(&bars, 48)
    );
    Rendered::with_json(text, study.to_json())
}

/// Figure 6: per-benchmark execution time normalized to bbb.
fn fig6(instructions: u64, jobs: usize) -> Rendered {
    let study = experiments::fig6(instructions, jobs);
    let mut headers = vec!["benchmark", "ppti", "nwpe"];
    headers.extend(study.schemes.iter().map(|s| s.name()));
    let mut rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|row| {
            let mut cells = vec![
                row.name.clone(),
                format!("{:.1}", row.ppti),
                format!("{:.1}", row.nwpe),
            ];
            cells.extend(row.slowdowns.iter().map(|(_, v)| format!("{v:.3}")));
            cells
        })
        .collect();
    let mut mean = vec!["geomean".to_owned(), String::new(), String::new()];
    mean.extend(study.averages.iter().map(|(_, v)| format!("{v:.3}")));
    rows.push(mean);
    let text = format!(
        "FIGURE 6: execution time normalized to bbb (32-entry SecPB)\n{}\n",
        render_table(&headers, &rows)
    );
    Rendered::with_json(text, study.to_json())
}

/// Renders a per-size sweep (Figures 7 and 8): one column per SecPB size.
fn size_table(
    sizes: &[usize],
    rows: &[(String, Vec<f64>)],
    mean_label: &str,
    averages: &[f64],
    cell: fn(f64) -> String,
) -> String {
    let mut headers: Vec<String> = vec!["benchmark".into()];
    headers.extend(sizes.iter().map(|s| format!("{s}e")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, vals)| std::iter::once(name.clone()).chain(vals.iter().map(|v| cell(*v))))
        .map(Iterator::collect)
        .collect();
    table.push(
        std::iter::once(mean_label.to_owned())
            .chain(averages.iter().map(|v| cell(*v)))
            .collect(),
    );
    render_table(&header_refs, &table)
}

/// Figure 7: CM execution time across SecPB sizes.
fn fig7(instructions: u64, jobs: usize) -> Rendered {
    let sweep = experiments::fig7(instructions, jobs);
    let text = format!(
        "FIGURE 7: CM execution time normalized to bbb, by SecPB size\n{}\n\
         paper anchors: ~2.12x at 8 entries, ~1.24x at 512 entries; diminishing returns past 32-64\n",
        size_table(&sweep.sizes, &sweep.rows, "geomean", &sweep.averages, |v| {
            format!("{v:.3}")
        })
    );
    Rendered::with_json(text, sweep.to_json())
}

/// Figure 8: BMT root updates as a fraction of `sec_wt`'s.
fn fig8(instructions: u64, jobs: usize) -> Rendered {
    let study = experiments::fig8(instructions, jobs);
    let text = format!(
        "FIGURE 8: BMT root updates as a fraction of sec_wt's (one per store)\n{}\n\
         paper anchors: 12.7% at 8 entries, 1.8% at 512 entries\n",
        size_table(&study.sizes, &study.rows, "mean", &study.averages, |v| {
            format!("{:.1}%", v * 100.0)
        })
    );
    Rendered::with_json(text, study.to_json())
}

/// Figure 9: CM and SP paired with the DBMF/SBMF height reductions.
fn fig9(instructions: u64, jobs: usize) -> Rendered {
    let study = experiments::fig9(instructions, jobs);
    let mut headers: Vec<&str> = vec!["benchmark"];
    headers.extend(study.variants.iter().map(String::as_str));
    let mut rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|(name, vals)| {
            std::iter::once(name.clone())
                .chain(vals.iter().map(|v| format!("{v:.3}")))
                .collect()
        })
        .collect();
    let mut mean = vec!["geomean".to_owned()];
    mean.extend(study.averages.iter().map(|v| slowdown_label(*v)));
    rows.push(mean);
    let bars: Vec<(String, f64)> = study
        .variants
        .iter()
        .cloned()
        .zip(study.averages.iter().copied())
        .collect();
    let text = format!(
        "FIGURE 9: BMF study, execution time normalized to bbb\n{}\n\
         geomean normalized execution time:\n{}\n\
         paper anchors: sp_dbmf 88.9%, sp_sbmf 3.43x, cm_dbmf 33.3%, cm_sbmf 56.6%\n\
         expected shape: cm_dbmf < cm_sbmf < sp_dbmf < sp_sbmf\n",
        render_table(&headers, &rows),
        bar_chart(&bars, 48)
    );
    Rendered::with_json(text, study.to_json())
}

/// Table V at `entries` per SecPB: energy-source size for every scheme
/// next to secure eADR, bbb, and plain eADR.  The paper's anchors are
/// for 32 entries and are printed only there.
pub fn battery(entries: usize) -> Rendered {
    let rows = experiments::table5(entries);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                mm3(r.volume_mm3.0),
                mm3(r.volume_mm3.1),
                format!("{:.1}%", r.core_area_pct.0),
                format!("{:.1}%", r.core_area_pct.1),
            ]
        })
        .collect();
    let mut text = format!(
        "TABLE V: energy-source size, {entries}-entry SecPB (per core)\n{}\n",
        render_table(
            &[
                "system",
                "SuperCap mm3",
                "Li-Thin mm3",
                "SuperCap %core",
                "Li-Thin %core"
            ],
            &table
        )
    );
    if entries == 32 {
        text.push_str(
            "paper anchors: cobcm 4.89/0.049, bcm 4.72/0.047, nogap 0.28/0.003,\n               \
             s_eadr 3706/37.06, bbb 0.07/0.001, eadr 149.32/1.490\n",
        );
    }
    Rendered::with_json(text, experiments::battery_rows_to_json(&rows))
}

/// Table VI: battery capacity across SecPB sizes under COBCM and NoGap.
fn table6() -> Rendered {
    let rows = experiments::table6();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.entries.to_string(),
                mm3(r.cobcm_mm3.0),
                mm3(r.cobcm_mm3.1),
                mm3(r.nogap_mm3.0),
                mm3(r.nogap_mm3.1),
            ]
        })
        .collect();
    let text = format!(
        "TABLE VI: battery capacity (mm3) vs SecPB size\n{}\n\
         paper anchors @32: COBCM 4.89/0.049, NoGap 0.28/0.003; @512: COBCM 76.10/0.761, NoGap 4.35/0.044\n",
        render_table(
            &[
                "entries",
                "COBCM SuperCap",
                "COBCM Li-Thin",
                "NoGap SuperCap",
                "NoGap Li-Thin"
            ],
            &table
        )
    );
    Rendered::with_json(text, experiments::battery_sweep_to_json(&rows))
}

/// Runs `scheme` on every SPEC profile (32-entry SecPB, monolithic tree)
/// across `jobs` workers, in suite order.
fn run_suite<T: Send>(
    instructions: u64,
    jobs: usize,
    scheme: Scheme,
    row: impl Fn(&WorkloadProfile, secpb_core::metrics::RunResult) -> T + Sync,
) -> Vec<T> {
    let names = WorkloadProfile::SPEC_NAMES;
    pool::run_indexed(names.len(), jobs, |i| {
        let profile = WorkloadProfile::named(names[i]).expect("SPEC_NAMES are known profiles");
        let run = run_benchmark(
            &profile,
            scheme,
            SystemConfig::default(),
            TreeKind::Monolithic,
            instructions,
        );
        row(&profile, run)
    })
}

/// §VI-B: NoGap's measured IPC against the paper's analytical estimate.
fn validate_ipc(instructions: u64, jobs: usize) -> Rendered {
    let rows = run_suite(instructions, jobs, Scheme::NoGap, |profile, run| {
        let (est, measured, ratio) = validate(&run);
        vec![
            profile.name.clone(),
            format!("{:.1}", run.ppti()),
            format!("{:.1}", run.nwpe()),
            format!("{est:.3}"),
            format!("{measured:.3}"),
            format!("{ratio:.2}"),
        ]
    });
    let text = format!(
        "Analytical IPC model vs simulator (NoGap):\n{}\n\
         paper anchor: gamess est 0.11, measured 0.13 (ratio 1.18);\n\
         measured should exceed the estimate slightly (MAC/BMT overlap).\n",
        render_table(
            &[
                "benchmark",
                "ppti",
                "nwpe",
                "est ipc",
                "measured ipc",
                "ratio"
            ],
            &rows
        )
    );
    Rendered::from(text)
}

/// The 18 workloads' reuse profiles, their predicted coalescing, and the
/// NWPE a COBCM run actually measures.
fn characterize(instructions: u64, jobs: usize) -> Rendered {
    let rows = run_suite(instructions, jobs, Scheme::Cobcm, |profile, run| {
        let trace = TraceGenerator::new(profile.clone(), 1).generate(instructions);
        let reuse = ReuseProfile::of(&trace, &ReuseProfile::SECPB_BUCKETS);
        vec![
            profile.name.clone(),
            format!("{:.1}", run.ppti()),
            format!("{:.0}%", reuse.hit_fraction_within(8) * 100.0),
            format!("{:.0}%", reuse.hit_fraction_within(32) * 100.0),
            format!("{:.0}%", reuse.hit_fraction_within(256) * 100.0),
            format!("{:.1}", reuse.predicted_nwpe(32)),
            format!("{:.1}", run.nwpe()),
        ]
    });
    let text = format!(
        "workload characterization (reuse distances of the store stream):\n{}\n\
         prediction uses ideal residency; the simulator's watermark draining\n\
         shortens effective residency, so simulated NWPE trails the prediction.\n",
        render_table(
            &[
                "benchmark",
                "ppti",
                "hit<=8",
                "hit<=32",
                "hit<=256",
                "nwpe pred@32",
                "nwpe sim@32"
            ],
            &rows
        )
    );
    Rendered::from(text)
}

/// Ablations of the design choices in DESIGN.md §6: coalescing, BMT
/// pipelining, drain watermarks, and speculative load verification.
fn ablations(instructions: u64, jobs: usize) -> Rendered {
    let mut out = String::new();
    let mut section = |title: &str, headers: &[&str], rows: Vec<Vec<String>>| {
        let _ = writeln!(out, "{title}\n{}", render_table(headers, &rows));
    };

    let rows = [Scheme::Cm, Scheme::M, Scheme::NoGap]
        .into_iter()
        .map(|scheme| {
            let (on, off) = experiments::ablation_coalescing(scheme, instructions, jobs);
            vec![
                scheme.name().to_owned(),
                overhead_pct(on),
                overhead_pct(off),
                format!("{:.2}x", off / on),
            ]
        })
        .collect();
    section(
        "ABLATION 1: value-independent coalescing (Section IV-A)",
        &["scheme", "with (geomean)", "without", "benefit"],
        rows,
    );

    let rows = [Scheme::Cm, Scheme::NoGap]
        .into_iter()
        .map(|scheme| {
            let (single, pipelined) =
                experiments::ablation_bmt_pipelining(scheme, instructions, jobs);
            vec![
                scheme.name().to_owned(),
                overhead_pct(single),
                overhead_pct(pipelined),
            ]
        })
        .collect();
    section(
        "ABLATION 2: one in-flight BMT update vs pipelined (early path)",
        &["scheme", "single", "pipelined"],
        rows,
    );

    let pairs = [(0.9, 0.75), (0.75, 0.5), (0.5, 0.25)];
    let rows = experiments::ablation_watermarks(Scheme::Cobcm, &pairs, instructions, jobs)
        .iter()
        .map(|((h, l), v)| vec![format!("{h:.2}/{l:.2}"), overhead_pct(*v)])
        .collect();
    section(
        "ABLATION 3: drain watermarks (COBCM)",
        &["high/low", "overhead"],
        rows,
    );

    let rows = [Scheme::Cobcm, Scheme::Cm]
        .into_iter()
        .map(|scheme| {
            let (spec, blocking) =
                experiments::ablation_speculative_verification(scheme, instructions, jobs);
            vec![
                scheme.name().to_owned(),
                overhead_pct(spec),
                overhead_pct(blocking),
            ]
        })
        .collect();
    section(
        "ABLATION 4: speculative vs blocking load verification",
        &["scheme", "speculative", "blocking"],
        rows,
    );
    Rendered::from(out)
}

/// Span-capture buffer per scheme; plenty for the default trace length.
const CAPTURE: usize = 1 << 20;

/// One benchmark across every scheme (the bbb/SP baselines included):
/// counters, the cycle breakdown, and span phases.  The rendered JSON is
/// every scheme's cycles, breakdown, counters, and histograms; with
/// `chrome_trace`, also returns a Chrome trace-event document with one
/// process per scheme and one thread per span phase.
pub fn debug(
    profile: &WorkloadProfile,
    instructions: u64,
    chrome_trace: bool,
) -> (Rendered, Option<Json>) {
    let mut out = String::new();
    let mut traces = Vec::new();
    let mut scheme_dumps = Vec::new();
    for (pid, scheme) in Scheme::ALL.into_iter().enumerate() {
        let (r, sys) = run_benchmark_instrumented(
            profile,
            scheme,
            SystemConfig::default(),
            TreeKind::Monolithic,
            instructions,
            CAPTURE,
        );
        let _ = writeln!(
            out,
            "{:>6}: cycles={:>9} ipc={:.3} ppti={:.1} nwpe={:.1} allocs={} macs={} full_stall={} sb_stall={} ctr_miss={}",
            scheme.name(),
            r.cycles,
            r.ipc(),
            r.ppti(),
            r.nwpe(),
            r.stats.get("secpb.allocations"),
            r.stats.get("crypto.macs"),
            r.stats.get("secpb.full_stall_cycles"),
            r.stats.get("core.sb_stall_cycles"),
            r.stats.get("metadata.counter_misses"),
        );

        // Cycle breakdown: every measured cycle attributed to one bucket.
        let rows: Vec<Vec<String>> = r
            .breakdown
            .entries()
            .iter()
            .map(|(cat, v)| {
                vec![
                    (*cat).to_owned(),
                    v.to_string(),
                    format!("{:.1}%", 100.0 * *v as f64 / r.cycles.max(1) as f64),
                ]
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            render_table(&["category", "cycles", "share"], &rows)
        );

        // Span phases (overlapping work, so shares don't sum to 100%).
        let tracer = sys.tracer();
        let rows: Vec<Vec<String>> = Phase::ALL
            .into_iter()
            .filter(|&p| tracer.count(p) > 0)
            .map(|p| {
                vec![
                    p.name().to_owned(),
                    tracer.count(p).to_string(),
                    tracer.cycles(p).to_string(),
                ]
            })
            .collect();
        if !rows.is_empty() {
            let _ = writeln!(
                out,
                "{}",
                render_table(&["phase", "spans", "cycles"], &rows)
            );
        }
        if tracer.dropped() > 0 {
            let _ = writeln!(
                out,
                "  ({} spans dropped from the capture buffer)",
                tracer.dropped()
            );
        }
        if chrome_trace {
            traces.push(tracer.chrome_trace(scheme.name(), pid as u32 + 1));
        }
        scheme_dumps.push(r.to_json());
    }
    let stats = Json::obj()
        .field("benchmark", profile.name.as_str())
        .field("instructions", instructions)
        .field("schemes", Json::Arr(scheme_dumps));
    let trace = chrome_trace.then(|| merge_chrome_traces(traces));
    (Rendered::with_json(out, stats), trace)
}
