//! The SecPB buffer: a small, fully-associative, battery-backed table of
//! [`Entry`]s with store coalescing, drain watermarks, and oldest-first
//! drain order (Sections III-B and IV-B of the paper).
//!
//! Entries live in a fixed-capacity [`EntryArena`] (one allocation for
//! the whole table); a block→handle index serves coalescing lookups and
//! a FIFO of handles serves drain ordering, so `oldest()` is O(1)
//! instead of a full-table scan and the store→drain steady state never
//! touches the allocator.

use std::collections::VecDeque;

use secpb_sim::addr::{Asid, BlockAddr};
use secpb_sim::config::SecPbConfig;
use secpb_sim::fxhash::FxHashMap;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::arena::{EntryArena, Handle};
use crate::entry::Entry;

/// SecPB activity statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SecPbStats {
    /// Stores accepted (each is a persist: PPTI's numerator).
    pub persists: u64,
    /// Entries allocated (new blocks).
    pub allocations: u64,
    /// Entries drained (by watermark, eviction, or crash).
    pub drained_entries: u64,
    /// Total stores carried by drained entries (NWPE's numerator).
    pub drained_stores: u64,
    /// Highest occupancy ever reached (battery sizing interest: the
    /// worst-case drain obligation actually observed).
    pub peak_occupancy: u64,
}

impl SecPbStats {
    /// Mean number of writes per drained SecPB entry — the paper's NWPE
    /// metric.
    pub fn nwpe(&self) -> f64 {
        if self.drained_entries == 0 {
            0.0
        } else {
            self.drained_stores as f64 / self.drained_entries as f64
        }
    }
}

/// The SecPB table.
///
/// # Example
///
/// ```
/// use secpb_core::buffer::SecPb;
/// use secpb_sim::addr::{Asid, BlockAddr};
/// use secpb_sim::config::SecPbConfig;
///
/// let mut pb = SecPb::new(SecPbConfig::default());
/// pb.allocate(BlockAddr(1), Asid(0), [0u8; 64]);
/// assert!(pb.contains(BlockAddr(1)));
/// assert_eq!(pb.occupancy(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SecPb {
    config: SecPbConfig,
    arena: EntryArena,
    /// Block → live arena handle (coalescing lookups).
    index: FxHashMap<BlockAddr, Handle>,
    /// Handles in allocation order.  Removal leaves a stale handle
    /// behind (the arena's generation check filters it), pruned from
    /// the front eagerly and compacted wholesale when stale nodes pile
    /// up, so the front is always the oldest live entry.
    fifo: VecDeque<Handle>,
    next_seq: u64,
    stats: SecPbStats,
}

impl SecPb {
    /// Creates an empty buffer.
    pub fn new(config: SecPbConfig) -> Self {
        let capacity = config.entries;
        SecPb {
            config,
            arena: EntryArena::with_capacity(capacity),
            index: FxHashMap::with_capacity_and_hasher(capacity * 2, Default::default()),
            fifo: VecDeque::with_capacity(capacity * 2),
            next_seq: 0,
            stats: SecPbStats::default(),
        }
    }

    /// The buffer configuration.
    pub fn config(&self) -> &SecPbConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> SecPbStats {
        self.stats
    }

    /// Number of resident entries.
    pub fn occupancy(&self) -> usize {
        self.arena.live()
    }

    /// Whether every entry slot is occupied.
    pub fn is_full(&self) -> bool {
        self.arena.live() >= self.config.entries
    }

    /// Whether occupancy has reached the high watermark (start draining).
    pub fn above_high_watermark(&self) -> bool {
        self.arena.live() >= self.config.high_watermark_entries()
    }

    /// Whether the buffer holds `block`.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.index.contains_key(&block)
    }

    /// Immutable access to an entry.
    pub fn entry(&self, block: BlockAddr) -> Option<&Entry> {
        self.arena.get(*self.index.get(&block)?)
    }

    /// Mutable access to an entry.
    pub fn entry_mut(&mut self, block: BlockAddr) -> Option<&mut Entry> {
        self.arena.get_mut(*self.index.get(&block)?)
    }

    /// Records a store hitting an existing entry (coalescing) or a fresh
    /// one; the caller applies the store to the entry itself.
    pub fn note_persist(&mut self) {
        self.stats.persists += 1;
    }

    /// Allocates a fresh entry for `block` whose plaintext starts from
    /// `base`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full or the block is already resident —
    /// callers must drain first and must coalesce hits.
    pub fn allocate(&mut self, block: BlockAddr, asid: Asid, base: [u8; 64]) -> &mut Entry {
        assert!(!self.is_full(), "SecPB is full; drain before allocating");
        assert!(
            !self.contains(block),
            "{block} already resident; coalesce instead"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.allocations += 1;
        let handle = match self.arena.insert(Entry::new(block, asid, base, seq)) {
            Ok(h) => h,
            Err(_) => unreachable!("fullness checked above"),
        };
        self.index.insert(block, handle);
        self.fifo.push_back(handle);
        // Bound the stale-node backlog: live handles can never exceed
        // capacity, so past 2x the queue is mostly tombstones.
        if self.fifo.len() > 2 * self.config.entries.max(8) {
            let arena = &self.arena;
            self.fifo.retain(|h| arena.get(*h).is_some());
        }
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.arena.live() as u64);
        self.arena.get_mut(handle).expect("just inserted")
    }

    /// Removes and returns an entry (drain or migration), updating NWPE
    /// accounting.
    pub fn remove(&mut self, block: BlockAddr) -> Option<Entry> {
        let handle = self.index.remove(&block)?;
        let e = self.arena.remove(handle).expect("index maps live handles");
        // Keep the FIFO front live so `oldest` stays O(1).
        while let Some(front) = self.fifo.front() {
            if self.arena.get(*front).is_some() {
                break;
            }
            self.fifo.pop_front();
        }
        self.stats.drained_entries += 1;
        self.stats.drained_stores += e.stores;
        Some(e)
    }

    /// The oldest resident entry's block (FIFO drain order).
    pub fn oldest(&self) -> Option<BlockAddr> {
        self.live_oldest_first().next().map(|e| e.block)
    }

    /// Blocks of all resident entries, oldest first.
    pub fn blocks_oldest_first(&self) -> Vec<BlockAddr> {
        self.live_oldest_first().map(|e| e.block).collect()
    }

    /// Blocks of resident entries owned by `asid`, oldest first.
    pub fn blocks_of_asid(&self, asid: Asid) -> Vec<BlockAddr> {
        self.live_oldest_first()
            .filter(|e| e.asid == asid)
            .map(|e| e.block)
            .collect()
    }

    /// Iterates over all resident entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.arena.iter()
    }

    /// Live entries in allocation (seq) order: walks the handle FIFO and
    /// lets the arena's generation check drop tombstones.
    fn live_oldest_first(&self) -> impl Iterator<Item = &Entry> {
        self.fifo.iter().filter_map(|h| self.arena.get(*h))
    }

    /// Appends the arena, the handle FIFO exactly as it stands (stale
    /// tombstones included, so the compaction heuristic fires at the same
    /// point after restore), the allocation sequence, and the statistics
    /// to a checkpoint.  The block→handle index is derivable and is
    /// rebuilt on decode.
    pub fn encode_into(&self, w: &mut WireWriter) {
        self.arena.encode_into(w);
        w.usize(self.fifo.len());
        for h in &self.fifo {
            w.u32(h.slot());
            w.u32(h.generation());
        }
        w.u64(self.next_seq);
        w.u64(self.stats.persists);
        w.u64(self.stats.allocations);
        w.u64(self.stats.drained_entries);
        w.u64(self.stats.drained_stores);
        w.u64(self.stats.peak_occupancy);
    }

    /// Rebuilds a buffer from [`encode_into`](Self::encode_into) bytes.
    /// The snapshot's arena size must match `config.entries`.
    ///
    /// # Errors
    ///
    /// Fails on capacity mismatch, an inconsistent image, or truncation.
    pub fn decode_from(config: SecPbConfig, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let arena = EntryArena::decode_from(r)?;
        if arena.capacity() != config.entries {
            return Err(r.malformed("SecPB snapshot capacity does not match config"));
        }
        let n = r.seq_len(4 + 4)?;
        let mut fifo = VecDeque::with_capacity(n.max(config.entries * 2));
        for _ in 0..n {
            let slot = r.u32()?;
            let generation = r.u32()?;
            fifo.push_back(Handle::from_parts(slot, generation));
        }
        let next_seq = r.u64()?;
        let stats = SecPbStats {
            persists: r.u64()?,
            allocations: r.u64()?,
            drained_entries: r.u64()?,
            drained_stores: r.u64()?,
            peak_occupancy: r.u64()?,
        };
        let mut index = FxHashMap::with_capacity_and_hasher(config.entries * 2, Default::default());
        for h in fifo.iter() {
            // The arena's generation check filters stale tombstones; the
            // survivors are exactly the handles the index must hold.
            if let Some(e) = arena.get(*h) {
                index.insert(e.block, *h);
            }
        }
        if index.len() != arena.live() {
            return Err(r.malformed("SecPB snapshot FIFO does not cover all live entries"));
        }
        Ok(SecPb {
            config,
            arena,
            index,
            fifo,
            next_seq,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pb(entries: usize) -> SecPb {
        SecPb::new(SecPbConfig {
            entries,
            ..SecPbConfig::default()
        })
    }

    #[test]
    fn allocate_and_lookup() {
        let mut b = pb(4);
        b.allocate(BlockAddr(1), Asid(0), [7u8; 64]);
        assert!(b.contains(BlockAddr(1)));
        assert_eq!(b.entry(BlockAddr(1)).unwrap().plaintext, [7u8; 64]);
        assert!(!b.contains(BlockAddr(2)));
        assert_eq!(b.stats().allocations, 1);
    }

    #[test]
    fn watermarks_track_occupancy() {
        let mut b = pb(8); // HWM = 6
        for i in 0..5u64 {
            b.allocate(BlockAddr(i), Asid(0), [0u8; 64]);
        }
        assert!(!b.above_high_watermark());
        b.allocate(BlockAddr(5), Asid(0), [0u8; 64]);
        assert!(b.above_high_watermark());
        b.remove(BlockAddr(0));
        assert!(!b.above_high_watermark());
    }

    #[test]
    fn full_buffer_is_detected() {
        let mut b = pb(2);
        b.allocate(BlockAddr(0), Asid(0), [0u8; 64]);
        assert!(!b.is_full());
        b.allocate(BlockAddr(1), Asid(0), [0u8; 64]);
        assert!(b.is_full());
    }

    #[test]
    #[should_panic(expected = "full")]
    fn allocate_into_full_buffer_panics() {
        let mut b = pb(1);
        b.allocate(BlockAddr(0), Asid(0), [0u8; 64]);
        b.allocate(BlockAddr(1), Asid(0), [0u8; 64]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn duplicate_allocation_panics() {
        let mut b = pb(4);
        b.allocate(BlockAddr(0), Asid(0), [0u8; 64]);
        b.allocate(BlockAddr(0), Asid(0), [0u8; 64]);
    }

    #[test]
    fn oldest_first_order() {
        let mut b = pb(4);
        b.allocate(BlockAddr(9), Asid(0), [0u8; 64]);
        b.allocate(BlockAddr(3), Asid(0), [0u8; 64]);
        b.allocate(BlockAddr(7), Asid(0), [0u8; 64]);
        assert_eq!(b.oldest(), Some(BlockAddr(9)));
        assert_eq!(
            b.blocks_oldest_first(),
            vec![BlockAddr(9), BlockAddr(3), BlockAddr(7)]
        );
        b.remove(BlockAddr(9));
        assert_eq!(b.oldest(), Some(BlockAddr(3)));
    }

    #[test]
    fn nwpe_accounting() {
        let mut b = pb(4);
        b.allocate(BlockAddr(0), Asid(0), [0u8; 64]);
        b.entry_mut(BlockAddr(0)).unwrap().apply_store(0, 1, 8);
        b.entry_mut(BlockAddr(0)).unwrap().apply_store(8, 2, 8);
        b.entry_mut(BlockAddr(0)).unwrap().apply_store(0, 3, 8);
        b.allocate(BlockAddr(1), Asid(0), [0u8; 64]);
        b.entry_mut(BlockAddr(1)).unwrap().apply_store(0, 1, 8);
        b.remove(BlockAddr(0));
        b.remove(BlockAddr(1));
        // 4 stores over 2 drained entries.
        assert!((b.stats().nwpe() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nwpe_of_nothing_is_zero() {
        assert_eq!(SecPbStats::default().nwpe(), 0.0);
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut b = pb(4);
        b.allocate(BlockAddr(0), Asid(0), [0u8; 64]);
        b.allocate(BlockAddr(1), Asid(0), [0u8; 64]);
        b.remove(BlockAddr(0));
        b.allocate(BlockAddr(2), Asid(0), [0u8; 64]);
        assert_eq!(b.stats().peak_occupancy, 2, "peak was two resident entries");
    }

    #[test]
    fn asid_filtering() {
        let mut b = pb(4);
        b.allocate(BlockAddr(0), Asid(1), [0u8; 64]);
        b.allocate(BlockAddr(1), Asid(2), [0u8; 64]);
        b.allocate(BlockAddr(2), Asid(1), [0u8; 64]);
        assert_eq!(b.blocks_of_asid(Asid(1)), vec![BlockAddr(0), BlockAddr(2)]);
        assert_eq!(b.blocks_of_asid(Asid(2)), vec![BlockAddr(1)]);
    }

    #[test]
    fn remove_absent_returns_none() {
        let mut b = pb(2);
        assert!(b.remove(BlockAddr(5)).is_none());
        assert_eq!(b.stats().drained_entries, 0);
    }
}
