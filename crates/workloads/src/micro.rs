//! Microbenchmark kernels: small, fully-understood access patterns used
//! by the examples and the ablation benches, where the SPEC-style
//! profiles would be overkill.

use secpb_sim::addr::Address;
use secpb_sim::rng::Rng;
use secpb_sim::trace::{Access, TraceItem};

/// Block-number base for microbenchmark data.
const MICRO_BASE: u64 = 1 << 22;

/// Sequential stream of stores: every store hits a fresh block — zero
/// coalescing, the worst case for eager BMT schemes.
pub fn sequential_writes(stores: u64, gap: u32) -> Vec<TraceItem> {
    (0..stores)
        .map(|i| TraceItem::then(gap, Access::store(Address((MICRO_BASE + i) * 64), i)))
        .collect()
}

/// Repeated stores over a small hot set of blocks — maximal coalescing,
/// the best case for the Section IV-A optimization.
pub fn hot_set_writes(stores: u64, hot_blocks: u64, gap: u32, seed: u64) -> Vec<TraceItem> {
    assert!(hot_blocks > 0, "need at least one hot block");
    let mut rng = Rng::seed_from(seed);
    (0..stores)
        .map(|i| {
            let block = MICRO_BASE + rng.below(hot_blocks);
            let offset = 8 * rng.below(8);
            TraceItem::then(gap, Access::store(Address(block * 64 + offset), i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::trace::TraceSummary;

    #[test]
    fn sequential_touches_distinct_blocks() {
        let t = sequential_writes(100, 9);
        let s = TraceSummary::of(&t);
        assert_eq!(s.stores, 100);
        assert_eq!(s.store_blocks, 100);
    }

    #[test]
    fn hot_set_reuses_blocks() {
        let t = hot_set_writes(1000, 8, 9, 1);
        let s = TraceSummary::of(&t);
        assert_eq!(s.stores, 1000);
        assert_eq!(s.store_blocks, 8);
        assert!(s.stores_per_block() > 100.0);
    }

    #[test]
    fn deterministic_from_seed() {
        assert_eq!(hot_set_writes(100, 4, 9, 7), hot_set_writes(100, 4, 9, 7));
        assert_ne!(hot_set_writes(100, 4, 9, 7), hot_set_writes(100, 4, 9, 8));
    }
}
