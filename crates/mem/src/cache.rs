//! A set-associative, true-LRU cache model.
//!
//! One implementation serves the L1/L2/L3 data caches and the counter,
//! MAC, and BMT-node metadata caches (the paper's Table I gives them all
//! the same 64-byte-block, set-associative organisation).
//!
//! Lines carry a [`LineState`].  The paper's Section IV-C(a) introduces a
//! special dirty state for blocks from the persistent memory region whose
//! durability is already guaranteed by the SecPB: such *persist-dirty*
//! lines are silently discarded on eviction, like clean lines, instead of
//! being written back.

use secpb_sim::addr::BlockAddr;
use secpb_sim::config::CacheConfig;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// The state of a resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Clean: eviction is silent.
    Clean,
    /// Dirty: eviction writes the block back to the next level / NVM.
    Dirty,
    /// Dirty, but durability is already guaranteed by the SecPB; eviction
    /// is silent (Section IV-C(a) of the paper).
    PersistDirty,
}

impl LineState {
    /// Whether eviction of a line in this state requires a write-back.
    pub fn needs_writeback(self) -> bool {
        matches!(self, LineState::Dirty)
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    state: LineState,
    last_use: u64,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was already resident.
    pub hit: bool,
    /// A block evicted to make room, with its state at eviction time.
    /// `None` on hits or when an invalid way was available.
    pub evicted: Option<(BlockAddr, LineState)>,
}

/// Running hit/miss/eviction counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Evictions that required a write-back.
    pub dirty_evictions: u64,
    /// Evictions that were silently discarded.
    pub silent_evictions: u64,
}

/// A set-associative cache with true LRU replacement.
///
/// # Example
///
/// ```
/// use secpb_mem::cache::{Cache, LineState};
/// use secpb_sim::addr::BlockAddr;
/// use secpb_sim::config::CacheConfig;
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64, 2));
/// let miss = c.access(BlockAddr(1), LineState::Clean);
/// assert!(!miss.hit);
/// let hit = c.access(BlockAddr(1), LineState::Clean);
/// assert!(hit.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Flat set-major line storage: `lines[set * ways + way]`.  One
    /// contiguous allocation keeps a whole set in one or two cache lines
    /// of the *host*, where the nested per-set `Vec` layout paid a
    /// pointer chase per simulated access.
    lines: Vec<Option<Line>>,
    /// One bit per way of `lines`, set iff that way holds a line.  The
    /// access path only ORs a bit in on a fill; the whole-cache walks
    /// (occupancy, residency, clearing and the checkpoint codec) visit
    /// set bits instead of every way, so they cost the resident lines,
    /// not the geometry.
    valid: Vec<u64>,
    sets: usize,
    ways: usize,
    /// `log2(sets)` when the set count is a power of two (every Table I
    /// geometry), letting the hot path shift/mask instead of divide;
    /// `u32::MAX` flags the general divide path.
    set_shift: u32,
    use_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let set_shift = if sets.is_power_of_two() {
            sets.trailing_zeros()
        } else {
            u32::MAX
        };
        let n = sets * config.ways;
        assert!(
            u32::try_from(n).is_ok(),
            "a cache's way count must fit the u32 checkpoint index"
        );
        Cache {
            lines: vec![None; n],
            valid: vec![0; n.div_ceil(64)],
            sets,
            ways: config.ways,
            set_shift,
            config,
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (not the contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        if self.set_shift != u32::MAX {
            (block.index() as usize) & (self.sets - 1)
        } else {
            (block.index() % self.sets as u64) as usize
        }
    }

    #[inline]
    fn tag(&self, block: BlockAddr) -> u64 {
        if self.set_shift != u32::MAX {
            block.index() >> self.set_shift
        } else {
            block.index() / self.sets as u64
        }
    }

    fn block_from(&self, set: usize, tag: u64) -> BlockAddr {
        if self.set_shift != u32::MAX {
            BlockAddr((tag << self.set_shift) | set as u64)
        } else {
            BlockAddr(tag * self.sets as u64 + set as u64)
        }
    }

    /// Accesses `block`, installing it with `fill_state` on a miss.
    ///
    /// On a hit, the line's state is *upgraded*: a write access should pass
    /// the dirty state it wants; `Clean` never downgrades an existing dirty
    /// state.
    pub fn access(&mut self, block: BlockAddr, fill_state: LineState) -> AccessOutcome {
        self.use_clock += 1;
        let clock = self.use_clock;
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        // Hit path.
        if let Some(line) = set.iter_mut().flatten().find(|l| l.tag == tag) {
            line.last_use = clock;
            if fill_state != LineState::Clean {
                line.state = fill_state;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.stats.misses += 1;

        // Fill path: free way if available.
        if let Some(way) = set.iter().position(Option::is_none) {
            set[way] = Some(Line {
                tag,
                state: fill_state,
                last_use: clock,
            });
            let i = base + way;
            self.valid[i / 64] |= 1 << (i % 64);
            return AccessOutcome {
                hit: false,
                evicted: None,
            };
        }

        // Evict the LRU way.
        let victim_way = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.as_ref().expect("full set").last_use)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = set[victim_way].take().expect("victim present");
        set[victim_way] = Some(Line {
            tag,
            state: fill_state,
            last_use: clock,
        });
        if victim.state.needs_writeback() {
            self.stats.dirty_evictions += 1;
        } else {
            self.stats.silent_evictions += 1;
        }
        let evicted_block = self.block_from(set_idx, victim.tag);
        AccessOutcome {
            hit: false,
            evicted: Some((evicted_block, victim.state)),
        }
    }

    /// Returns the state of `block` if resident, without touching LRU or
    /// statistics.
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .flatten()
            .find(|l| l.tag == tag)
            .map(|l| l.state)
    }

    /// Removes `block` if resident, returning its state.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<LineState> {
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        let way = self.lines[base..base + self.ways]
            .iter()
            .position(|w| w.as_ref().is_some_and(|l| l.tag == tag))?;
        let i = base + way;
        self.valid[i / 64] &= !(1 << (i % 64));
        self.lines[i].take().map(|l| l.state)
    }

    /// Overwrites the state of a resident block; no-op if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) {
        let set_idx = self.set_index(block);
        let tag = self.tag(block);
        let base = set_idx * self.ways;
        if let Some(line) = self.lines[base..base + self.ways]
            .iter_mut()
            .flatten()
            .find(|l| l.tag == tag)
        {
            line.state = state;
        }
    }

    /// Number of resident blocks.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Flat indices of the occupied ways, ascending.
    fn live_ways(&self) -> impl Iterator<Item = usize> + '_ {
        self.valid.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    word * 64 + bit
                })
            })
        })
    }

    fn live_line(&self, i: usize) -> &Line {
        self.lines[i]
            .as_ref()
            .expect("valid bit marks an occupied way")
    }

    /// Iterates over all resident blocks and their states, in flat
    /// set-major way order.
    pub fn resident(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.live_ways().map(move |i| {
            let l = self.live_line(i);
            (self.block_from(i / self.ways, l.tag), l.state)
        })
    }

    /// Appends the dynamic state — LRU clock, statistics, the way count,
    /// and each occupied way as `(index, tag, state, stamp)` in ascending
    /// flat set-major order — to a checkpoint.  Empty ways are not
    /// written, so the section costs the resident lines, not the
    /// geometry.  Geometry is *not* serialised either;
    /// [`restore_from`](Self::restore_from) requires a cache already
    /// built with the same [`CacheConfig`].
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.u64(self.use_clock);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
        w.u64(self.stats.dirty_evictions);
        w.u64(self.stats.silent_evictions);
        w.usize(self.lines.len());
        w.usize(self.occupancy());
        for i in self.live_ways() {
            let line = self.live_line(i);
            w.u32(i as u32);
            w.u64(line.tag);
            w.u8(match line.state {
                LineState::Clean => 0,
                LineState::Dirty => 1,
                LineState::PersistDirty => 2,
            });
            w.u64(line.last_use);
        }
    }

    /// Overlays dynamic state captured by [`encode_into`](Self::encode_into)
    /// onto this cache: every way is emptied, then the encoded live ways
    /// are installed.
    ///
    /// # Errors
    ///
    /// Fails if the encoded way count does not match this cache's
    /// geometry, on a live count the remaining input cannot hold, on a
    /// way index that is out of range or not strictly ascending, on an
    /// unknown line-state discriminant, or on truncation.
    pub fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let use_clock = r.u64()?;
        let stats = CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
            dirty_evictions: r.u64()?,
            silent_evictions: r.u64()?,
        };
        if r.usize()? != self.lines.len() {
            return Err(r.malformed("cache way count does not match geometry"));
        }
        let live = r.seq_len(LIVE_WAY_BYTES)?;
        self.clear();
        self.use_clock = use_clock;
        self.stats = stats;
        let mut next = 0;
        for _ in 0..live {
            let at = r.offset();
            let i = r.u32()? as usize;
            if i < next || i >= self.lines.len() {
                return Err(WireError::Malformed {
                    offset: at,
                    what: format!(
                        "cache way index {i} out of order or beyond {} ways",
                        self.lines.len()
                    ),
                });
            }
            next = i + 1;
            let tag = r.u64()?;
            let state = match r.u8()? {
                0 => LineState::Clean,
                1 => LineState::Dirty,
                2 => LineState::PersistDirty,
                _ => return Err(r.malformed("unknown cache line state")),
            };
            let last_use = r.u64()?;
            self.lines[i] = Some(Line {
                tag,
                state,
                last_use,
            });
            self.valid[i / 64] |= 1 << (i % 64);
        }
        Ok(())
    }

    /// Drops every line (used when modelling a power cycle of volatile
    /// caches).
    pub fn clear(&mut self) {
        for (word, bits) in self.valid.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                self.lines[word * 64 + bits.trailing_zeros() as usize] = None;
                bits &= bits - 1;
            }
        }
    }
}

/// Encoded size of one live way: `u32` index, `u64` tag, `u8` state,
/// `u64` LRU stamp.
const LIVE_WAY_BYTES: usize = 4 + 8 + 1 + 8;

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::rng::Rng;

    fn small() -> Cache {
        // 2 sets, 2 ways.
        Cache::new(CacheConfig::new(256, 2, 64, 1))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(BlockAddr(0), LineState::Clean).hit);
        assert!(c.access(BlockAddr(0), LineState::Clean).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean); // set 0
        c.access(BlockAddr(1), LineState::Clean); // set 1
        assert!(c.access(BlockAddr(0), LineState::Clean).hit);
        assert!(c.access(BlockAddr(1), LineState::Clean).hit);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 holds blocks 0, 2 (both map to set 0 with 2 sets).
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(2), LineState::Clean);
        c.access(BlockAddr(0), LineState::Clean); // touch 0; LRU is 2
        let out = c.access(BlockAddr(4), LineState::Clean);
        assert_eq!(out.evicted, Some((BlockAddr(2), LineState::Clean)));
        assert!(c.probe(BlockAddr(0)).is_some());
        assert!(c.probe(BlockAddr(2)).is_none());
    }

    #[test]
    fn dirty_eviction_is_flagged() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.access(BlockAddr(2), LineState::Clean);
        let out = c.access(BlockAddr(4), LineState::Clean);
        assert_eq!(out.evicted, Some((BlockAddr(0), LineState::Dirty)));
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn persist_dirty_evicts_silently() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::PersistDirty);
        c.access(BlockAddr(2), LineState::Clean);
        c.access(BlockAddr(4), LineState::Clean);
        // Block 0 was LRU and persist-dirty: silently discarded.
        assert_eq!(c.stats().dirty_evictions, 0);
        assert_eq!(c.stats().silent_evictions, 1);
        assert!(!LineState::PersistDirty.needs_writeback());
    }

    #[test]
    fn hit_upgrades_state_but_never_downgrades() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(0), LineState::Dirty);
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::Dirty));
        // A later clean (read) access keeps the dirty state.
        c.access(BlockAddr(0), LineState::Clean);
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::Dirty));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        assert_eq!(c.invalidate(BlockAddr(0)), Some(LineState::Dirty));
        assert_eq!(c.invalidate(BlockAddr(0)), None);
        assert!(c.probe(BlockAddr(0)).is_none());
    }

    #[test]
    fn set_state_changes_resident_only() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.set_state(BlockAddr(0), LineState::PersistDirty);
        assert_eq!(c.probe(BlockAddr(0)), Some(LineState::PersistDirty));
        c.set_state(BlockAddr(2), LineState::Dirty); // absent: no-op
        assert!(c.probe(BlockAddr(2)).is_none());
    }

    #[test]
    fn occupancy_and_resident_iteration() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.access(BlockAddr(1), LineState::Dirty);
        assert_eq!(c.occupancy(), 2);
        let mut resident: Vec<_> = c.resident().collect();
        resident.sort_by_key(|(b, _)| b.index());
        assert_eq!(
            resident,
            vec![
                (BlockAddr(0), LineState::Clean),
                (BlockAddr(1), LineState::Dirty)
            ]
        );
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(c.probe(BlockAddr(0)).is_none());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.probe(BlockAddr(0)).is_some());
    }

    #[test]
    fn wire_round_trip_preserves_lru_and_stats() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.access(BlockAddr(2), LineState::PersistDirty);
        c.access(BlockAddr(1), LineState::Clean);
        c.access(BlockAddr(0), LineState::Clean); // touch: 2 is now LRU
        let mut w = WireWriter::new();
        c.encode_into(&mut w);
        let bytes = w.into_bytes();

        let mut restored = small();
        restored
            .restore_from(&mut WireReader::new(&bytes))
            .expect("restore");
        assert_eq!(restored.stats(), c.stats());
        // Both caches must now evict the same victim.
        let a = c.access(BlockAddr(4), LineState::Clean);
        let b = restored.access(BlockAddr(4), LineState::Clean);
        assert_eq!(a, b);
        assert_eq!(a.evicted, Some((BlockAddr(2), LineState::PersistDirty)));

        // Geometry mismatch is rejected.
        let mut bigger = Cache::new(CacheConfig::new(512, 2, 64, 1));
        assert!(bigger.restore_from(&mut WireReader::new(&bytes)).is_err());
        // Truncation is reported, not panicked on.
        assert!(small()
            .restore_from(&mut WireReader::new(&bytes[..bytes.len() - 1]))
            .is_err());
    }

    /// A Table I L1: 64 KB, 8-way, 64-byte blocks (1,024 ways).
    fn table1_l1() -> Cache {
        Cache::new(CacheConfig::new(64 << 10, 8, 64, 2))
    }

    fn encoded(c: &Cache) -> Vec<u8> {
        let mut w = WireWriter::new();
        c.encode_into(&mut w);
        w.into_bytes()
    }

    fn random_state(rng: &mut Rng) -> LineState {
        [LineState::Clean, LineState::Dirty, LineState::PersistDirty][rng.below(3) as usize]
    }

    /// One random operation: mostly accesses, some invalidations and
    /// state overwrites, and a rare clear.
    fn random_op(c: &mut Cache, rng: &mut Rng, blocks: u64) {
        let block = BlockAddr(rng.below(blocks));
        match rng.below(100) {
            0 => c.clear(),
            1..=15 => {
                c.invalidate(block);
            }
            16..=30 => c.set_state(block, random_state(rng)),
            _ => {
                c.access(block, random_state(rng));
            }
        }
    }

    #[test]
    fn codec_model_check_against_naive_walks() {
        for (name, fresh) in [("tiny", small as fn() -> Cache), ("table1-l1", table1_l1)] {
            let ways = fresh().lines.len() as u64;
            for seed in 0..6u64 {
                let mut rng = Rng::seed_from(seed ^ ways);
                let mut c = fresh();
                // A restore target already holding unrelated lines, so
                // restore must clear stale ways through the bitmap.
                let mut target = fresh();
                for _ in 0..ways {
                    random_op(&mut target, &mut rng, 4 * ways);
                }
                for step in 0..(4 * ways).max(400) {
                    random_op(&mut c, &mut rng, 4 * ways);
                    let naive: Vec<_> = c
                        .lines
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| {
                            w.as_ref()
                                .map(|l| (c.block_from(i / c.ways, l.tag), l.state))
                        })
                        .collect();
                    assert_eq!(c.occupancy(), naive.len(), "{name} seed {seed} step {step}");
                    assert_eq!(
                        c.resident().collect::<Vec<_>>(),
                        naive,
                        "{name} seed {seed} step {step}"
                    );
                    let bytes = encoded(&c);
                    target
                        .restore_from(&mut WireReader::new(&bytes))
                        .expect("restore");
                    assert_eq!(encoded(&target), bytes, "{name} seed {seed} step {step}");
                }
                for _ in 0..1_000 {
                    let block = BlockAddr(rng.below(4 * ways));
                    let state = random_state(&mut rng);
                    assert_eq!(c.access(block, state), target.access(block, state));
                }
                assert_eq!(c.stats(), target.stats());
                assert_eq!(encoded(&c), encoded(&target));
            }
        }
    }

    /// Byte offset of live way `k`'s record: five `u64` scalars, the way
    /// count and the live count precede the first.
    fn live_way_at(k: usize) -> usize {
        7 * 8 + k * LIVE_WAY_BYTES
    }

    #[test]
    fn corrupted_cache_sections_are_rejected() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Dirty);
        c.access(BlockAddr(1), LineState::Clean);
        c.access(BlockAddr(2), LineState::PersistDirty);
        let bytes = encoded(&c);
        assert_eq!(bytes.len(), live_way_at(3));
        let restore = |b: &[u8]| small().restore_from(&mut WireReader::new(b));
        restore(&bytes).expect("the clean image restores");

        let patched = |at: usize, new: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + new.len()].copy_from_slice(new);
            b
        };
        let first = u32::from_le_bytes(bytes[live_way_at(0)..][..4].try_into().unwrap());
        let cases = [
            (
                "out-of-order index",
                patched(live_way_at(1), &first.to_le_bytes()),
            ),
            (
                "index beyond the ways",
                patched(live_way_at(2), &4u32.to_le_bytes()),
            ),
            ("state byte 3", patched(live_way_at(0) + 4 + 8, &[3])),
            (
                "live count beyond the input",
                patched(6 * 8, &4u64.to_le_bytes()),
            ),
        ];
        for (what, b) in cases {
            assert!(
                matches!(restore(&b), Err(WireError::Malformed { .. })),
                "{what}: {:?}",
                restore(&b)
            );
        }
        let mut bigger = Cache::new(CacheConfig::new(512, 2, 64, 1));
        assert!(matches!(
            bigger.restore_from(&mut WireReader::new(&bytes)),
            Err(WireError::Malformed { .. })
        ));
        // Every truncation fails cleanly.
        for len in 0..bytes.len() {
            assert!(restore(&bytes[..len]).is_err(), "accepted {len} bytes");
        }
    }

    #[test]
    fn an_empty_cache_encodes_its_header_only() {
        assert_eq!(encoded(&table1_l1()).len(), live_way_at(0));
    }

    #[test]
    fn tags_disambiguate_same_set_blocks() {
        let mut c = small();
        c.access(BlockAddr(0), LineState::Clean);
        // Block 2 maps to set 0 as well but must not hit block 0's line.
        assert!(!c.access(BlockAddr(2), LineState::Clean).hit);
    }
}
