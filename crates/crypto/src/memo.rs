//! Memoization caches for data-value-independent crypto.
//!
//! Two observations from the paper's Section IV-A drive this module: the
//! OTP pad is a pure function of (block address, split counter) and a
//! counter block's integrity digest is a pure function of its 64 bytes —
//! neither depends on the data being stored.  Re-stores to the same block
//! under the same counter, page re-encryption, and post-crash replay all
//! recompute identical values, so caching them cannot change any output.
//!
//! Both caches use interior mutability (`RefCell`/`Cell`): the hot callers
//! (`decrypt` during recovery, pad generation during drains) hold `&self`.
//! They are bounded by deterministic *second-chance (clock) eviction*: a
//! fixed ring of slots, one referenced bit per slot, and a cyclic hand
//! that sweeps past recently-touched entries and replaces the first
//! unreferenced one.  The hand position and referenced bits are a pure
//! function of the access trace, so hit/miss/eviction sequences stay
//! deterministic — a requirement of the engine's determinism contract —
//! while the working set survives capacity pressure that the previous
//! whole-cache epoch reset would have thrown away wholesale.

use std::cell::{Cell, RefCell};
use std::hash::Hash;

use secpb_sim::fxhash::FxHashMap;

use crate::backend::CryptoBackend;
use crate::counter::SplitCounter;
use crate::otp::Otp;
use crate::sha512::{digest64_batch, Digest, Sha512};

/// Default capacity for pad/digest caches (slots in the clock ring).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Hit/miss/eviction counters shared by both cache types.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then cached the result).
    pub misses: u64,
    /// Entries replaced by the clock hand once the ring was full.
    pub evictions: u64,
}

impl MemoStats {
    /// Field-wise sum, for reporting several caches as one gauge.
    #[must_use]
    pub fn merged(self, other: MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// One slot of the clock ring.
#[derive(Debug, Clone)]
struct ClockSlot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

/// A bounded key→value map with second-chance (clock) replacement.
///
/// Lookups mark the slot referenced; inserts past capacity sweep the
/// cyclic hand, clearing referenced bits until an unreferenced victim is
/// found.  Entirely deterministic: state is a pure function of the
/// operation sequence.
#[derive(Debug, Clone)]
struct ClockCore<K, V> {
    /// Key → slot index.
    map: FxHashMap<K, usize>,
    slots: Vec<ClockSlot<K, V>>,
    hand: usize,
}

impl<K: Copy + Eq + Hash, V> ClockCore<K, V> {
    fn new() -> Self {
        ClockCore {
            map: FxHashMap::default(),
            slots: Vec::new(),
            hand: 0,
        }
    }

    /// Looks up `key`, marking its slot recently used on a hit.
    fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.slots[slot].referenced = true;
        Some(&self.slots[slot].value)
    }

    /// Inserts or replaces `key`'s value.  Returns `true` when a
    /// *different* key was evicted to make room.
    fn insert(&mut self, key: K, value: V, capacity: usize) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            // In-place refresh (e.g. a digest memo key re-seen with new
            // bytes): no eviction.
            self.slots[slot].value = value;
            self.slots[slot].referenced = true;
            return false;
        }
        if self.slots.len() < capacity {
            self.map.insert(key, self.slots.len());
            self.slots.push(ClockSlot {
                key,
                value,
                referenced: true,
            });
            return false;
        }
        // Second-chance sweep: clear referenced bits until an
        // unreferenced slot comes under the hand.  Terminates within two
        // revolutions because every cleared slot is unreferenced when the
        // hand returns.
        while self.slots[self.hand].referenced {
            self.slots[self.hand].referenced = false;
            self.hand = (self.hand + 1) % self.slots.len();
        }
        let victim = self.hand;
        self.hand = (victim + 1) % self.slots.len();
        let old = std::mem::replace(
            &mut self.slots[victim],
            ClockSlot {
                key,
                value,
                referenced: true,
            },
        );
        self.map.remove(&old.key);
        self.map.insert(key, victim);
        true
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
    }
}

/// A bounded memo of OTP pads keyed by (block address, split counter).
///
/// # Example
///
/// ```
/// use secpb_crypto::counter::SplitCounter;
/// use secpb_crypto::memo::PadCache;
///
/// let cache = PadCache::new(16);
/// let c = SplitCounter { major: 1, minor: 2 };
/// let pad = cache.get_or_insert_with(7, c, || [0xABu8; 64]);
/// let again = cache.get_or_insert_with(7, c, || unreachable!("cached"));
/// assert_eq!(pad, again);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Clone)]
pub struct PadCache {
    core: RefCell<ClockCore<(u64, SplitCounter), Otp>>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl std::fmt::Debug for PadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PadCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl PadCache {
    /// Creates a cache that clock-evicts once `capacity` slots are live.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pad cache needs capacity");
        PadCache {
            core: RefCell::new(ClockCore::new()),
            capacity,
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// Returns the cached pad for `(block_addr, counter)`, computing and
    /// caching it via `compute` on a miss.
    pub fn get_or_insert_with(
        &self,
        block_addr: u64,
        counter: SplitCounter,
        compute: impl FnOnce() -> Otp,
    ) -> Otp {
        let mut core = self.core.borrow_mut();
        if let Some(pad) = core.get(&(block_addr, counter)) {
            self.hits.set(self.hits.get() + 1);
            return *pad;
        }
        self.misses.set(self.misses.get() + 1);
        let pad = compute();
        if core.insert((block_addr, counter), pad, self.capacity) {
            self.evictions.set(self.evictions.get() + 1);
        }
        pad
    }

    /// Current number of cached pads.
    pub fn len(&self) -> usize {
        self.core.borrow().len()
    }

    /// Whether the cache holds no pads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Drops every cached pad (counters are preserved).
    pub fn clear(&self) {
        self.core.borrow_mut().clear();
    }
}

/// A bounded memo of SHA-512 digests of 64-byte counter blocks, keyed by
/// an identifier (e.g. the encryption-page number) and validated against
/// the block bytes so a changed counter block can never return a stale
/// digest.
///
/// # Example
///
/// ```
/// use secpb_crypto::memo::DigestMemo;
/// use secpb_crypto::sha512::Sha512;
///
/// let memo = DigestMemo::new(16);
/// let bytes = [3u8; 64];
/// assert_eq!(memo.digest(9, &bytes), Sha512::digest(&bytes));
/// assert_eq!(memo.digest(9, &bytes), Sha512::digest(&bytes));
/// assert_eq!(memo.stats().hits, 1);
/// ```
#[derive(Clone)]
pub struct DigestMemo {
    core: RefCell<ClockCore<u64, ([u8; 64], Digest)>>,
    capacity: usize,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
}

impl std::fmt::Debug for DigestMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestMemo")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl DigestMemo {
    /// Creates a memo that clock-evicts once `capacity` slots are live.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "digest memo needs capacity");
        DigestMemo {
            core: RefCell::new(ClockCore::new()),
            capacity,
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
        }
    }

    /// The SHA-512 digest of `bytes`, served from the memo when `key` was
    /// last seen with identical bytes.
    pub fn digest(&self, key: u64, bytes: &[u8; 64]) -> Digest {
        let mut core = self.core.borrow_mut();
        if let Some((stored, digest)) = core.get(&key) {
            if stored == bytes {
                self.hits.set(self.hits.get() + 1);
                return *digest;
            }
        }
        self.misses.set(self.misses.get() + 1);
        let digest = Sha512::digest(bytes);
        if core.insert(key, (*bytes, digest), self.capacity) {
            self.evictions.set(self.evictions.get() + 1);
        }
        digest
    }

    /// Digests a whole batch of `(key, bytes)` items, dispatching every
    /// miss through `backend` in one multi-lane batch.
    ///
    /// Lookups happen in item order (marking hits recently used), then
    /// all missing digests are computed in a single
    /// [`digest64_batch`] dispatch, then inserted in item order.
    /// Per-item values are bit-identical to calling
    /// [`digest`](Self::digest) item by item; hit/miss accounting is too,
    /// unless the same key recurs within one batch (drain bursts never
    /// repeat a key with identical bytes — a re-drained page carries a
    /// changed counter block).
    pub fn digest_batch(
        &self,
        backend: &CryptoBackend,
        items: &[(u64, [u8; 64])],
        out: &mut Vec<Digest>,
    ) {
        let mut core = self.core.borrow_mut();
        let mut miss_idx: Vec<usize> = Vec::new();
        let base = out.len();
        for (key, bytes) in items {
            if let Some((stored, digest)) = core.get(key) {
                if stored == bytes {
                    self.hits.set(self.hits.get() + 1);
                    out.push(*digest);
                    continue;
                }
            }
            self.misses.set(self.misses.get() + 1);
            miss_idx.push(out.len() - base);
            out.push(Digest([0u8; 64]));
        }
        if miss_idx.is_empty() {
            return;
        }
        let msgs: Vec<&[u8; 64]> = miss_idx.iter().map(|&i| &items[i].1).collect();
        let mut digests = Vec::with_capacity(msgs.len());
        digest64_batch(backend, &msgs, &mut digests);
        for (&i, digest) in miss_idx.iter().zip(&digests) {
            out[base + i] = *digest;
            if core.insert(items[i].0, (items[i].1, *digest), self.capacity) {
                self.evictions.set(self.evictions.get() + 1);
            }
        }
    }

    /// Current number of memoized digests.
    pub fn len(&self) -> usize {
        self.core.borrow().len()
    }

    /// Whether the memo holds no digests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Drops every memoized digest (counters are preserved).
    pub fn clear(&self) {
        self.core.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CryptoBackend;

    #[test]
    fn pad_cache_hits_after_first_compute() {
        let cache = PadCache::new(8);
        let c = SplitCounter { major: 2, minor: 5 };
        let mut computes = 0;
        for _ in 0..3 {
            cache.get_or_insert_with(42, c, || {
                computes += 1;
                [0x5Au8; 64]
            });
        }
        assert_eq!(computes, 1);
        assert_eq!(
            cache.stats(),
            MemoStats {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn pad_cache_distinguishes_counters_and_addresses() {
        let cache = PadCache::new(8);
        let c1 = SplitCounter { major: 1, minor: 0 };
        let c2 = SplitCounter { major: 1, minor: 1 };
        cache.get_or_insert_with(1, c1, || [1u8; 64]);
        let p2 = cache.get_or_insert_with(1, c2, || [2u8; 64]);
        let p3 = cache.get_or_insert_with(2, c1, || [3u8; 64]);
        assert_eq!(p2, [2u8; 64]);
        assert_eq!(p3, [3u8; 64]);
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn pad_cache_clock_evicts_one_entry_at_capacity() {
        let cache = PadCache::new(2);
        let c = SplitCounter::default();
        cache.get_or_insert_with(0, c, || [0u8; 64]);
        cache.get_or_insert_with(1, c, || [1u8; 64]);
        assert_eq!(cache.len(), 2);
        // A third distinct key sweeps the hand (clearing both referenced
        // bits) and replaces exactly one victim — not the whole cache.
        cache.get_or_insert_with(2, c, || [2u8; 64]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The survivor and the newcomer still hit...
        cache.get_or_insert_with(1, c, || unreachable!("survivor cached"));
        cache.get_or_insert_with(2, c, || unreachable!("newcomer cached"));
        // ...while the victim recomputes (still correct, just slower).
        let p = cache.get_or_insert_with(0, c, || [0u8; 64]);
        assert_eq!(p, [0u8; 64]);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn clock_eviction_is_deterministic() {
        // Two caches fed the same access sequence agree on every counter.
        let run = || {
            let cache = PadCache::new(4);
            for i in 0..64u64 {
                let key = (i * 7) % 11;
                let c = SplitCounter::default();
                cache.get_or_insert_with(key, c, || [key as u8; 64]);
            }
            cache.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.evictions > 0, "the sequence must overflow the ring");
    }

    #[test]
    fn digest_memo_matches_sha512() {
        let memo = DigestMemo::new(4);
        let a = [7u8; 64];
        let b = [8u8; 64];
        assert_eq!(memo.digest(1, &a), Sha512::digest(&a));
        assert_eq!(memo.digest(1, &a), Sha512::digest(&a));
        assert_eq!(memo.digest(2, &b), Sha512::digest(&b));
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(memo.stats().misses, 2);
    }

    #[test]
    fn digest_memo_detects_changed_bytes() {
        let memo = DigestMemo::new(4);
        let old = [1u8; 64];
        let mut new = old;
        new[63] = 2;
        memo.digest(5, &old);
        // Same key, different bytes: must recompute, never serve stale —
        // and the in-place refresh is not an eviction.
        assert_eq!(memo.digest(5, &new), Sha512::digest(&new));
        assert_eq!(memo.stats().hits, 0);
        assert_eq!(memo.stats().misses, 2);
        assert_eq!(memo.stats().evictions, 0);
        // And the entry now reflects the new bytes.
        assert_eq!(memo.digest(5, &new), Sha512::digest(&new));
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn digest_memo_clock_evicts_at_capacity() {
        let memo = DigestMemo::new(2);
        memo.digest(0, &[0u8; 64]);
        memo.digest(1, &[1u8; 64]);
        memo.digest(2, &[2u8; 64]);
        assert_eq!(memo.len(), 2, "one victim replaced, not a full reset");
        assert_eq!(memo.stats().evictions, 1);
    }

    #[test]
    fn digest_batch_matches_item_by_item() {
        let batch = DigestMemo::new(8);
        let serial = DigestMemo::new(8);
        let items: Vec<(u64, [u8; 64])> = (0..6u64).map(|i| (i % 4, [i as u8; 64])).collect();
        // Pre-warm one key so the batch sees a mix of hits and misses.
        batch.digest(1, &[1u8; 64]);
        serial.digest(1, &[1u8; 64]);
        let mut out = Vec::new();
        batch.digest_batch(&CryptoBackend::Native, &items, &mut out);
        assert_eq!(out.len(), items.len());
        for ((key, bytes), digest) in items.iter().zip(&out) {
            assert_eq!(*digest, Sha512::digest(bytes), "key {key}");
            assert_eq!(serial.digest(*key, bytes), *digest);
        }
        assert_eq!(batch.stats(), serial.stats());
    }

    #[test]
    fn digest_batch_all_hits_dispatches_nothing() {
        let memo = DigestMemo::new(8);
        let items: Vec<(u64, [u8; 64])> = (0..4u64).map(|i| (i, [i as u8; 64])).collect();
        for (key, bytes) in &items {
            memo.digest(*key, bytes);
        }
        let misses_before = memo.stats().misses;
        let mut out = Vec::new();
        memo.digest_batch(&CryptoBackend::Scalar, &items, &mut out);
        assert_eq!(memo.stats().misses, misses_before);
        assert_eq!(memo.stats().hits, items.len() as u64);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_pad_cache_panics() {
        PadCache::new(0);
    }
}
