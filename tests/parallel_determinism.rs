//! The parallel experiment engine's determinism contract, end to end:
//!
//! 1. `run_grid(cells, 1)` and `run_grid(cells, 4)` return **equal**
//!    `RunResult`s — per-cell seed derivation makes every cell a pure
//!    function of its coordinates, so scheduling cannot leak in,
//! 2. a full table runner produces byte-identical ordered-JSON reports
//!    serially and in parallel,
//! 3. the streaming trace path yields exactly the items the materialized
//!    path does, so swapping `generate` for `stream` in the hot path is
//!    invisible to the simulated system,
//! 4. attaching telemetry rings changes neither side: a telemetered
//!    serial sweep equals the plain parallel grid cell for cell, and the
//!    merged registries render byte-identically.

use secpb_bench::experiments::{run_grid, table4, GridCell};
use secpb_core::scheme::Scheme;
use secpb_workloads::{TraceGenerator, WorkloadProfile};

const QUICK: u64 = 30_000;

#[test]
fn run_grid_results_are_equal_serial_vs_four_jobs() {
    let suite = ["gamess", "povray", "milc", "soplex"];
    let cells: Vec<GridCell> = suite
        .iter()
        .flat_map(|name| {
            [Scheme::Bbb, Scheme::Cobcm, Scheme::Cm, Scheme::NoGap]
                .into_iter()
                .map(|s| GridCell::new(WorkloadProfile::named(name).unwrap(), s, QUICK))
        })
        .collect();
    let serial = run_grid(&cells, 1);
    let parallel = run_grid(&cells, 4);
    assert_eq!(serial.len(), cells.len());
    assert_eq!(serial, parallel, "parallel grid must replay the serial one");
}

#[test]
fn table4_report_is_byte_identical_serial_vs_parallel() {
    let serial = table4(QUICK, 1).to_json().to_pretty();
    let parallel = table4(QUICK, 4).to_json().to_pretty();
    assert_eq!(serial, parallel);
}

#[test]
fn telemetered_cells_match_the_parallel_grid_cell_for_cell() {
    let cells: Vec<GridCell> = ["gamess", "soplex"]
        .iter()
        .flat_map(|name| {
            [Scheme::Bbb, Scheme::Cobcm]
                .into_iter()
                .map(|s| GridCell::new(WorkloadProfile::named(name).unwrap(), s, QUICK))
        })
        .collect();
    // The parallel pool runs plain cells; the serial sweep runs each
    // cell with a live telemetry ring attached.  Telemetry events
    // observe and never steer, so the two sweeps must be equal — the
    // same contract `secpb grid --telemetry` gates on.
    let parallel = run_grid(&cells, 4);
    for (cell, plain) in cells.iter().zip(&parallel) {
        let (telemetered, check, digest) = cell.run_with_recovery_telemetered(1 << 16);
        assert_eq!(
            &telemetered,
            plain,
            "{}/{}: telemetered serial != plain parallel",
            cell.profile.name,
            cell.scheme.name()
        );
        assert!(check.ok(), "{}: {:?}", cell.profile.name, check.failure);
        assert!(digest.events > 0, "the ring must have carried events");
        // The merged stats registries render byte-identically: the sink
        // never leaks into values, ordering, or the JSON export.
        assert_eq!(
            telemetered.stats.to_json().to_pretty(),
            plain.stats.to_json().to_pretty()
        );
    }
}

#[test]
fn streamed_traces_match_materialized_traces_item_for_item() {
    for name in ["gamess", "povray", "omnetpp"] {
        let profile = WorkloadProfile::named(name).unwrap();
        let materialized = TraceGenerator::new(profile.clone(), 7).generate(25_000);
        let mut generator = TraceGenerator::new(profile, 7);
        let streamed: Vec<_> = generator.stream(25_000).collect();
        assert_eq!(materialized, streamed, "{name}");
    }
}
