//! Workload profiles: the parameter set a synthetic trace is generated
//! from, and the 18 SPEC CPU2006-named profiles of the paper's
//! evaluation.
//!
//! Each profile targets the statistics the paper reports for its
//! namesake: stores per kilo-instruction (PPTI once the stores reach the
//! SecPB), the coalescing behaviour that produces the paper's NWPE
//! (controlled by `rewrite_frac` and `rewrite_window`), and the streaming
//! share that produces fresh-block allocations.

/// Parameters of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Profile name (a SPEC benchmark for the paper's 18, or a custom
    /// label).
    pub name: String,
    /// Stores per 1000 instructions (the PPTI target).
    pub stores_per_kilo: f64,
    /// Loads per 1000 instructions.
    pub loads_per_kilo: f64,
    /// Probability a store rewrites a recently-written block.  With the
    /// rewrite window inside the SecPB's residency, NWPE converges to
    /// roughly `1 / (1 - rewrite_frac)`.
    pub rewrite_frac: f64,
    /// Reuse distance in distinct blocks for rewrites.  A window larger
    /// than the SecPB capacity produces thrashing (the paper's `gobmk`
    /// behaviour: NWPE grows with SecPB size).
    pub rewrite_window: usize,
    /// Probability a store goes to the next block of a sequential stream
    /// (always a fresh block — streaming workloads like `bwaves`).
    pub seq_frac: f64,
    /// Distinct 64-byte blocks in the random-store working set.
    pub store_working_set_blocks: u64,
    /// Distinct blocks in the cold-load working set (drives the baseline
    /// CPI through L2/L3 misses).
    pub load_working_set_blocks: u64,
    /// Probability a load hits the small hot set (L1-resident).
    pub load_hot_frac: f64,
}

impl WorkloadProfile {
    /// The 18 SPEC CPU2006 benchmark names used in the paper's
    /// evaluation.
    pub const SPEC_NAMES: [&'static str; 18] = [
        "bzip2",
        "gcc",
        "mcf",
        "gobmk",
        "hmmer",
        "sjeng",
        "libquantum",
        "h264ref",
        "omnetpp",
        "astar",
        "xalancbmk",
        "bwaves",
        "gamess",
        "milc",
        "zeusmp",
        "leslie3d",
        "soplex",
        "povray",
    ];

    /// Looks up one of the named SPEC profiles.
    pub fn named(name: &str) -> Option<WorkloadProfile> {
        let p = |stores: f64,
                 loads: f64,
                 rewrite: f64,
                 window: usize,
                 seq: f64,
                 store_ws: u64,
                 load_ws: u64,
                 hot: f64| WorkloadProfile {
            name: name.to_owned(),
            stores_per_kilo: stores,
            loads_per_kilo: loads,
            rewrite_frac: rewrite,
            rewrite_window: window,
            seq_frac: seq,
            store_working_set_blocks: store_ws,
            load_working_set_blocks: load_ws,
            load_hot_frac: hot,
        };
        let profile = match name {
            "bzip2" => p(12.0, 180.0, 0.88, 16, 0.04, 8192, 16384, 0.92),
            "gcc" => p(18.0, 200.0, 0.85, 24, 0.05, 16384, 32768, 0.90),
            "mcf" => p(5.0, 320.0, 0.80, 8, 0.05, 65536, 131072, 0.80),
            "gobmk" => p(22.0, 190.0, 0.85, 96, 0.05, 8192, 16384, 0.91),
            "hmmer" => p(9.0, 220.0, 0.90, 6, 0.02, 2048, 8192, 0.94),
            "sjeng" => p(7.0, 210.0, 0.82, 8, 0.05, 4096, 16384, 0.92),
            "libquantum" => p(20.0, 150.0, 0.55, 4, 0.40, 4096, 65536, 0.85),
            "h264ref" => p(16.0, 230.0, 0.88, 20, 0.04, 4096, 16384, 0.93),
            "omnetpp" => p(11.0, 260.0, 0.84, 40, 0.05, 32768, 65536, 0.85),
            "astar" => p(30.0, 240.0, 0.86, 16, 0.05, 16384, 65536, 0.88),
            "xalancbmk" => p(14.0, 250.0, 0.85, 24, 0.06, 16384, 32768, 0.90),
            "bwaves" => p(15.0, 200.0, 0.30, 4, 0.65, 8192, 32768, 0.90),
            "gamess" => p(47.4, 160.0, 0.52, 6, 0.35, 4096, 8192, 0.94),
            "milc" => p(9.0, 210.0, 0.75, 6, 0.20, 32768, 65536, 0.86),
            "zeusmp" => p(11.0, 190.0, 0.78, 8, 0.15, 16384, 32768, 0.90),
            "leslie3d" => p(13.0, 200.0, 0.76, 6, 0.18, 16384, 32768, 0.89),
            "soplex" => p(7.0, 280.0, 0.83, 48, 0.07, 32768, 65536, 0.84),
            "povray" => p(38.8, 180.0, 0.945, 12, 0.01, 2048, 8192, 0.94),
            _ => return None,
        };
        Some(profile)
    }

    /// All 18 SPEC profiles in the paper's order.
    pub fn spec_suite() -> Vec<WorkloadProfile> {
        Self::SPEC_NAMES
            .iter()
            .map(|n| Self::named(n).expect("every SPEC name has a profile"))
            .collect()
    }

    /// The NWPE the profile converges to when its rewrite window fits in
    /// the SecPB (`1 / (1 - rewrite_frac - small-term)`, bounded below by
    /// 1).
    pub fn nwpe_estimate(&self) -> f64 {
        (1.0 / (1.0 - self.rewrite_frac.min(0.99))).max(1.0)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.stores_per_kilo < 0.0 || self.loads_per_kilo < 0.0 {
            return Err("negative access rates".into());
        }
        if self.stores_per_kilo + self.loads_per_kilo > 1000.0 {
            return Err("more accesses than instructions per kilo-instruction".into());
        }
        if !(0.0..=1.0).contains(&self.rewrite_frac)
            || !(0.0..=1.0).contains(&self.seq_frac)
            || !(0.0..=1.0).contains(&self.load_hot_frac)
        {
            return Err("fractions must lie in [0, 1]".into());
        }
        if self.rewrite_frac + self.seq_frac > 1.0 {
            return Err("rewrite_frac + seq_frac exceeds 1".into());
        }
        if self.rewrite_window == 0 || self.store_working_set_blocks == 0 {
            return Err("working sets must be non-empty".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_spec_profiles_exist_and_validate() {
        let suite = WorkloadProfile::spec_suite();
        assert_eq!(suite.len(), 18);
        for p in &suite {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn paper_anchor_statistics() {
        let gamess = WorkloadProfile::named("gamess").unwrap();
        assert!((gamess.stores_per_kilo - 47.4).abs() < 1e-9);
        assert!(
            (gamess.nwpe_estimate() - 2.1).abs() < 0.2,
            "gamess NWPE ≈ 2.1"
        );
        let povray = WorkloadProfile::named("povray").unwrap();
        assert!((povray.stores_per_kilo - 38.8).abs() < 1e-9);
        assert!(
            (povray.nwpe_estimate() - 17.6).abs() < 2.0,
            "povray NWPE ≈ 17.6"
        );
    }

    #[test]
    fn gobmk_window_exceeds_default_secpb() {
        // The paper: gobmk keeps improving as the SecPB grows, because its
        // reuse distance exceeds 32 entries.
        let gobmk = WorkloadProfile::named("gobmk").unwrap();
        assert!(gobmk.rewrite_window > 32);
    }

    #[test]
    fn bwaves_is_streaming() {
        let bwaves = WorkloadProfile::named("bwaves").unwrap();
        assert!(bwaves.seq_frac > 0.5, "bwaves is a streaming workload");
        assert!(bwaves.nwpe_estimate() < 1.5);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(WorkloadProfile::named("nonesuch").is_none());
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let mut p = WorkloadProfile::named("gcc").unwrap();
        p.rewrite_frac = 0.8;
        p.seq_frac = 0.8;
        assert!(p.validate().is_err());
        let mut q = WorkloadProfile::named("gcc").unwrap();
        q.stores_per_kilo = 600.0;
        q.loads_per_kilo = 600.0;
        assert!(q.validate().is_err());
        let mut r = WorkloadProfile::named("gcc").unwrap();
        r.rewrite_window = 0;
        assert!(r.validate().is_err());
    }
}
