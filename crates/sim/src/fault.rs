//! Deterministic fault-injection plans.
//!
//! The paper's central claim is that the `(C, γ, M, R)` memory tuple
//! survives power loss at *any* cycle.  This module provides the
//! seed-driven vocabulary the crash-storm harness uses to attack that
//! claim: *when* to crash ([`CrashTrigger`]), *how much* battery the
//! drain actually gets ([`BrownOut`]), and *what* persistent state gets
//! corrupted ([`BitFlip`]/[`FlipTarget`]).
//!
//! Everything here is a pure description — the harnesses interpret these
//! types against their own state, so the same schedule replayed against
//! the same trace and seed produces bit-identical faults.  The types
//! live in `secpb-sim` (the dependency root) so every layer —
//! single-core, eADR, multi-core, and the bench harness — can speak them
//! without cycles in the crate graph.

use crate::rng::Rng;

/// When a crash fires during trace replay.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum CrashTrigger {
    /// Never crash (plain replay; the do-nothing plan).
    #[default]
    Never,
    /// Crash the first time the clock reaches the given cycle.
    AtCycle(u64),
    /// Crash after every `n`-th store (the crash-storm sweep axis).
    EveryNthStore(u64),
    /// Crash at the first store that completes while background drains
    /// are still in flight — the adversarial "mid-drain" point where the
    /// draining gap is open.
    MidDrain,
}

/// A battery brown-out: the provisioned drain-energy budget, in joules.
///
/// During a crash drain the battery can only fund work up to this
/// budget; the energy model converts it to a maximum number of drainable
/// entries for the scheme under test, and everything past that point is
/// *lost* (and must be accounted for, not silently dropped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownOut {
    /// Usable energy, joules.
    pub budget_joules: f64,
}

impl BrownOut {
    /// A brown-out with the given budget.
    pub fn with_budget(budget_joules: f64) -> Self {
        BrownOut { budget_joules }
    }
}

/// Which class of persistent state a bit flip lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipTarget {
    /// A data (ciphertext) block — must be caught by its MAC.
    Ciphertext,
    /// A split-counter block — must be caught by the rebuilt BMT root
    /// (and by the MACs of the blocks whose counters changed).
    Counter,
    /// A per-block MAC — must be caught by MAC verification.
    Mac,
    /// The persisted BMT root register — must be caught by root
    /// reconstruction.
    TreeRoot,
}

impl FlipTarget {
    /// All targets, in storm rotation order.
    pub const ALL: [FlipTarget; 4] = [
        FlipTarget::Ciphertext,
        FlipTarget::Counter,
        FlipTarget::Mac,
        FlipTarget::TreeRoot,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FlipTarget::Ciphertext => "ciphertext",
            FlipTarget::Counter => "counter",
            FlipTarget::Mac => "mac",
            FlipTarget::TreeRoot => "tree-root",
        }
    }
}

/// One injected single-bit corruption.  The *victim object* (which
/// block/page) is chosen deterministically by the interpreting system
/// from its own persistent footprint and the plan RNG; the byte/bit
/// offsets here select the position inside the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitFlip {
    /// The state class to corrupt.
    pub target: FlipTarget,
    /// Byte offset within the victim object (interpreted modulo its
    /// size).
    pub byte: usize,
    /// Bit index within the byte (interpreted modulo 8).
    pub bit: u8,
}

impl BitFlip {
    /// Derives the `i`-th flip of a seeded storm: the target rotates
    /// through [`FlipTarget::ALL`] and the position is drawn from the
    /// seed, so a storm replayed with the same seed flips the same bits.
    pub fn derive(seed: u64, i: u64) -> Self {
        let mut rng = Rng::seed_from(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let target = FlipTarget::ALL[(i % FlipTarget::ALL.len() as u64) as usize];
        BitFlip {
            target,
            byte: rng.below(64) as usize,
            bit: (rng.below(8)) as u8,
        }
    }
}

/// Replay-side bookkeeping for a [`CrashTrigger`]: counts stores and
/// decides when the trigger fires.  Deterministic — the decision is a
/// pure function of the observation sequence.
#[derive(Debug, Clone)]
pub struct FaultClock {
    trigger: CrashTrigger,
    stores_seen: u64,
    fired: u64,
}

impl FaultClock {
    /// A clock for the given trigger.
    pub fn new(trigger: CrashTrigger) -> Self {
        FaultClock {
            trigger,
            stores_seen: 0,
            fired: 0,
        }
    }

    /// Stores observed so far.
    pub fn stores_seen(&self) -> u64 {
        self.stores_seen
    }

    /// Crash points fired so far.
    pub fn crashes_fired(&self) -> u64 {
        self.fired
    }

    /// Observes one completed store; `now_cycle` is the clock after the
    /// store, `drains_in_flight` whether background drains are pending.
    /// Returns `true` if the trigger says "crash now".
    pub fn observe_store(&mut self, now_cycle: u64, drains_in_flight: bool) -> bool {
        self.stores_seen += 1;
        let fire = match self.trigger {
            CrashTrigger::Never => false,
            CrashTrigger::AtCycle(c) => self.fired == 0 && now_cycle >= c,
            CrashTrigger::EveryNthStore(n) => self.stores_seen.is_multiple_of(n.max(1)),
            CrashTrigger::MidDrain => self.fired == 0 && drains_in_flight,
        };
        if fire {
            self.fired += 1;
        }
        fire
    }
}

/// Deterministically picks a victim index from a population of `n`
/// candidates for the `i`-th injection of a seeded plan.  Callers sort
/// their candidate lists first so the pick is stable across runs.
pub fn pick_victim(seed: u64, injection: u64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let mut rng =
        Rng::seed_from(seed.rotate_left(17) ^ injection.wrapping_mul(0xD134_2543_DE82_EF95));
    Some(rng.below(n as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_trigger_never_fires() {
        let mut clock = FaultClock::new(CrashTrigger::default());
        for i in 0..1000 {
            assert!(!clock.observe_store(i, i % 2 == 0));
        }
        assert_eq!(clock.crashes_fired(), 0);
        assert_eq!(clock.stores_seen(), 1000);
    }

    #[test]
    fn every_nth_store_fires_periodically() {
        let mut clock = FaultClock::new(CrashTrigger::EveryNthStore(64));
        let mut fired = 0;
        for i in 0..640 {
            if clock.observe_store(i, false) {
                fired += 1;
                assert_eq!((clock.stores_seen()) % 64, 0);
            }
        }
        assert_eq!(fired, 10);
    }

    #[test]
    fn at_cycle_fires_once() {
        let mut clock = FaultClock::new(CrashTrigger::AtCycle(500));
        let mut fired = 0;
        for i in 0..100 {
            if clock.observe_store(i * 20, false) {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn mid_drain_waits_for_inflight() {
        let mut clock = FaultClock::new(CrashTrigger::MidDrain);
        assert!(!clock.observe_store(10, false));
        assert!(clock.observe_store(20, true));
        assert!(!clock.observe_store(30, true), "fires only once");
    }

    #[test]
    fn derived_flips_are_deterministic_and_rotate_targets() {
        let a = BitFlip::derive(42, 3);
        let b = BitFlip::derive(42, 3);
        assert_eq!(a, b);
        let targets: Vec<FlipTarget> = (0..4).map(|i| BitFlip::derive(7, i).target).collect();
        assert_eq!(targets, FlipTarget::ALL.to_vec());
        assert!(a.byte < 64 && a.bit < 8);
    }

    #[test]
    fn victim_pick_is_stable_and_in_range() {
        assert_eq!(pick_victim(1, 0, 0), None);
        for n in [1usize, 7, 1000] {
            let v = pick_victim(9, 4, n).unwrap();
            assert!(v < n);
            assert_eq!(pick_victim(9, 4, n).unwrap(), v);
        }
        // Different injections usually pick different victims.
        let picks: std::collections::HashSet<usize> =
            (0..32).map(|i| pick_victim(5, i, 1000).unwrap()).collect();
        assert!(picks.len() > 10, "picks should spread: {picks:?}");
    }

    #[test]
    fn flip_target_names() {
        assert_eq!(FlipTarget::Mac.name(), "mac");
    }
}
