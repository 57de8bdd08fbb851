//! # secpb-bench — the experiment harness
//!
//! One regenerator per table and figure of the paper's evaluation
//! (Section VI), each reachable as a `secpb` subcommand:
//!
//! | Artifact | Module entry point | Command |
//! |----------|--------------------|---------|
//! | Table IV — average slowdowns, 32-entry SecPB | [`experiments::table4`] | `secpb reproduce table4` |
//! | Figure 6 — per-benchmark execution time | [`experiments::fig6`] | `secpb reproduce fig6` |
//! | Table V — battery sizes per scheme | [`experiments::table5`] | `secpb reproduce table5`, `secpb battery [entries]` |
//! | Table VI — battery vs SecPB size | [`experiments::table6`] | `secpb reproduce table6` |
//! | Figure 7 — execution time vs SecPB size (CM) | [`experiments::fig7`] | `secpb reproduce fig7` |
//! | Figure 8 — BMT root updates, normalized to sec_wt | [`experiments::fig8`] | `secpb reproduce fig8` |
//! | Figure 9 — BMF study (DBMF/SBMF) | [`experiments::fig9`] | `secpb reproduce fig9` |
//! | §VI-B IPC validation (gamess, NoGap) | [`analytic`] | `secpb reproduce validate-ipc` |
//! | Recovery-latency vs write-amp curve | [`recovery_sweep`] | `secpb recover-sweep` |
//!
//! The [`reproduce`] module renders each study as aligned text tables
//! (via [`report`]) next to its JSON payload; [`grid`] and
//! [`serve_bench`] are the wall-clock benchmarks behind `BENCH_grid.json`
//! and `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod args;
pub mod experiments;
pub mod grid;
pub mod micro;
pub mod recovery_sweep;
pub mod report;
pub mod reproduce;
pub mod serve;
pub mod serve_bench;
pub mod soak;
pub mod storm;
pub mod watch;
