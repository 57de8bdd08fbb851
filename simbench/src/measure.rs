//! Sample statistics and failure accounting shared by every workload.

/// Fewest samples that must lie strictly beyond a reported percentile:
/// a tail figure resting on fewer is one or two unlucky samples, not a
/// distribution.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`, or
/// `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond it — so a
/// p90 needs at least 100 samples and a p50 at least 20.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // 1-based nearest rank: the smallest sample with at least p% of all
    // samples at or below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of a non-empty sample (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Output-check accounting: every unit of work (grid cell, restart
/// cycle, service run, reference comparison) is one attempt, and fails
/// when any of its checks fails.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    /// The first few failure descriptions, for the run's context line.
    first_failures: Vec<String>,
}

/// Failure descriptions kept per run; the count is always exact.
const KEPT_FAILURES: usize = 8;

impl Checks {
    /// Records one attempted unit; `why` describes it if it failed.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < KEPT_FAILURES {
                self.first_failures.push(why());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.first_failures.len());
        self.first_failures
            .extend(other.first_failures.into_iter().take(room));
    }

    /// Units attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Units that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted`; zero when nothing was attempted.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The first recorded failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.first_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 90.0),
            None,
            "99 samples leave 9 beyond p90"
        );
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        let samples: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), Some(225.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fail_frac_counts_failed_units_over_attempted() {
        let mut checks = Checks::default();
        assert_eq!(checks.fail_frac(), 0.0);
        for i in 0..8 {
            checks.record(i % 4 != 0, || format!("unit {i}"));
        }
        assert_eq!((checks.attempted(), checks.failed()), (8, 2));
        assert_eq!(checks.fail_frac(), 0.25);
        assert_eq!(checks.failures(), ["unit 0", "unit 4"]);

        let mut more = Checks::default();
        for i in 0..12 {
            more.record(false, || format!("late {i}"));
        }
        checks.merge(more);
        assert_eq!((checks.attempted(), checks.failed()), (20, 14));
        assert_eq!(checks.fail_frac(), 0.7);
        assert_eq!(
            checks.failures().len(),
            KEPT_FAILURES,
            "descriptions are capped"
        );
    }
}
