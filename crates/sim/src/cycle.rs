//! The simulation time base.
//!
//! All timing in the simulator is expressed in core clock cycles.  The paper
//! simulates a 4.00 GHz core (Table I), so NVM latencies given in
//! nanoseconds (PCM read 55 ns, write 150 ns) convert to 220 and 600 cycles
//! respectively.  [`Cycle`] is an absolute timestamp; durations are plain
//! `u64` cycle counts to keep arithmetic lightweight at model call sites.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute point in simulated time, measured in core clock cycles.
///
/// `Cycle` is a transparent newtype over `u64`; it exists so that absolute
/// timestamps cannot be accidentally confused with cycle *counts* (plain
/// `u64`) in model code.
///
/// # Example
///
/// ```
/// use secpb_sim::cycle::Cycle;
///
/// let start = Cycle(100);
/// let done = start + 40; // a 40-cycle MAC computation
/// assert_eq!(done, Cycle(140));
/// assert_eq!(done - start, 40);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable timestamp (used as "never").
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the later of two timestamps.
    ///
    /// Useful when an operation cannot start before both an availability
    /// time and a request time.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two timestamps.
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Saturating difference: cycles elapsed from `earlier` to `self`,
    /// zero if `earlier` is in the future.
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<u64> for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: u64) -> Cycle {
        Cycle(self.0 - rhs)
    }
}

impl SubAssign<u64> for Cycle {
    fn sub_assign(&mut self, rhs: u64) {
        self.0 -= rhs;
    }
}

impl Sub for Cycle {
    type Output = u64;
    /// Cycles elapsed between two timestamps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

impl Sum<u64> for Cycle {
    fn sum<I: Iterator<Item = u64>>(iter: I) -> Cycle {
        Cycle(iter.sum())
    }
}

/// Converts a latency in nanoseconds to cycles at `freq_hz`, rounding to the
/// nearest cycle.
///
/// # Example
///
/// ```
/// use secpb_sim::cycle::ns_to_cycles;
/// // 55 ns at 4 GHz is 220 cycles (Table I PCM read latency).
/// assert_eq!(ns_to_cycles(55.0, 4.0e9), 220);
/// ```
pub fn ns_to_cycles(ns: f64, freq_hz: f64) -> u64 {
    (ns * 1e-9 * freq_hz).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_subtract() {
        let c = Cycle(10);
        assert_eq!(c + 5, Cycle(15));
        assert_eq!(Cycle(15) - 5, Cycle(10));
        assert_eq!(Cycle(15) - Cycle(10), 5);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut c = Cycle::ZERO;
        c += 7;
        c += 3;
        assert_eq!(c, Cycle(10));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Cycle(5).since(Cycle(10)), 0);
        assert_eq!(Cycle(10).since(Cycle(5)), 5);
    }

    #[test]
    fn max_min() {
        assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(3).min(Cycle(9)), Cycle(3));
    }

    #[test]
    fn ns_converts_at_4ghz() {
        let f = 4.0e9;
        assert_eq!(ns_to_cycles(55.0, f), 220);
        assert_eq!(ns_to_cycles(150.0, f), 600);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(format!("{}", Cycle(42)), "cycle 42");
    }
}
