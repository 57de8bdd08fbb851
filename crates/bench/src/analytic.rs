//! The paper's analytical IPC model (Section VI-B).
//!
//! For NoGap the paper validates its simulator with a back-of-envelope
//! model: with PPTI persists per kilo-instruction and NWPE writes per
//! entry, every `NWPE` writes trigger one 8-level BMT walk
//! (`8 × 40 = 320` cycles) and every write costs one 40-cycle MAC, so
//!
//! ```text
//! IPC ≈ 1000 / (320 · PPTI / NWPE + 40 · PPTI)
//! ```
//!
//! (gamess: `1000 / (320 · 47.4/2.1 + 40 · 47.4) = 0.11`, against a
//! measured `0.13`).  This module reproduces the estimate and compares it
//! against the simulator's measured IPC, which is `secpb reproduce
//! validate-ipc`'s job.

use secpb_core::metrics::RunResult;

/// The paper's analytical IPC estimate for the NoGap scheme.
///
/// # Panics
///
/// Panics if `nwpe` is not positive.
pub fn nogap_ipc_estimate(ppti: f64, nwpe: f64, bmt_walk_cycles: f64, mac_cycles: f64) -> f64 {
    assert!(nwpe > 0.0, "NWPE must be positive");
    1000.0 / (bmt_walk_cycles * ppti / nwpe + mac_cycles * ppti)
}

/// The default constants from Table I: an 8-level walk at 40 cycles per
/// hash, and a 40-cycle MAC.
pub fn nogap_ipc_estimate_default(ppti: f64, nwpe: f64) -> f64 {
    nogap_ipc_estimate(ppti, nwpe, 320.0, 40.0)
}

/// Compares a measured NoGap run against the analytical estimate,
/// returning `(estimated_ipc, measured_ipc, ratio)`.
pub fn validate(run: &RunResult) -> (f64, f64, f64) {
    let est = nogap_ipc_estimate_default(run.ppti(), run.nwpe().max(1.0));
    let measured = run.ipc();
    (est, measured, measured / est)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gamess_point() {
        // PPTI 47.4, NWPE 2.1 → IPC ≈ 0.11 (Section VI-B).
        let ipc = nogap_ipc_estimate_default(47.4, 2.1);
        assert!((ipc - 0.11).abs() < 0.005, "got {ipc}");
    }

    #[test]
    fn fewer_persists_higher_ipc() {
        assert!(nogap_ipc_estimate_default(10.0, 2.0) > nogap_ipc_estimate_default(20.0, 2.0));
    }

    #[test]
    fn more_coalescing_higher_ipc() {
        assert!(nogap_ipc_estimate_default(20.0, 8.0) > nogap_ipc_estimate_default(20.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "NWPE")]
    fn zero_nwpe_rejected() {
        nogap_ipc_estimate_default(10.0, 0.0);
    }
}
