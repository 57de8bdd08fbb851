//! The shared security/persistence kernel all three system fronts
//! delegate to.
//!
//! [`SecureSystem`](crate::system::SecureSystem),
//! [`EadrSystem`](crate::eadr::EadrSystem) and
//! [`MultiCoreSystem`](crate::multicore::MultiCoreSystem) differ in *when*
//! and *why* a memory tuple persists (SecPB drains, LLC writebacks, or
//! per-core coherence events) — but the tuple pipeline itself
//! (counter → OTP → BMT → ciphertext → MAC, Figure 4) and the durable
//! state it feeds are one machine.  [`PersistDomain`] owns that machine:
//! the architectural golden state, the logical counters, the NVM store,
//! the crypto engines, and the integrity tree, plus the flush/persist
//! kernels every front drives.  The crash-verdict and recovery kernels
//! live in [`recovery`](crate::recovery), implemented on this type.
//!
//! Each front keeps its historical key-derivation salts (a
//! [`DomainKeys`]) so the refactor is bit-identical to the three
//! hand-written implementations it replaces.

use secpb_crypto::backend::CryptoBackend;
use secpb_crypto::counter::{CounterBlock, SplitCounter};
use secpb_crypto::mac::BlockMac;
use secpb_crypto::memo::DigestMemo;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::{Digest, Sha512};
use secpb_mem::store::NvmStore;
use secpb_sim::addr::{Asid, BlockAddr};
use secpb_sim::fxhash::FxHashMap;
use secpb_sim::trace::Access;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

use crate::entry::Entry;
use crate::policy::{CounterLayout, PersistencePolicy, PolicyState, TreePersistence};
use crate::tree::{IntegrityTree, TreeKind};

/// BMT arity used throughout (8-ary, 8 levels covers 16 M pages).
pub(crate) const BMT_ARITY: usize = 8;

/// Per-front key-derivation salts.  The three fronts historically derived
/// their AES/tree keys with different constants; preserving them keeps
/// every persisted image byte-identical to the pre-refactor code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainKeys {
    /// Multiplier mixed into each AES key byte.
    pub aes_mult: u64,
    /// XOR salt applied to the key seed for the integrity-tree key.
    pub tree_xor: u64,
}

impl DomainKeys {
    /// Salts used by the single-core [`SecureSystem`](crate::system::SecureSystem).
    pub const SECPB: DomainKeys = DomainKeys {
        aes_mult: 0x9E37,
        tree_xor: 0xB111_7AB1E,
    };
    /// Salts used by [`EadrSystem`](crate::eadr::EadrSystem).
    pub const EADR: DomainKeys = DomainKeys {
        aes_mult: 0xEAD2,
        tree_xor: 0xEAD2,
    };
    /// Salts used by [`MultiCoreSystem`](crate::multicore::MultiCoreSystem).
    pub const MULTI_CORE: DomainKeys = DomainKeys {
        aes_mult: 0x517C,
        tree_xor: 0xC0_FFEE,
    };
}

/// What `PersistDomain::flush` computed for one entry, so each front
/// can translate the work into its own statistics namespace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushRecord {
    /// The OTP was generated at flush time (was not carried early).
    pub otp_generated: bool,
    /// The ciphertext was generated at flush time.
    pub ciphertext_generated: bool,
    /// The MAC was computed at flush time.
    pub mac_generated: bool,
    /// BMT node hashes charged by the leaf update.
    pub tree_hashes: u64,
}

/// The durable integrity-tree frontier a
/// [`TreePersistence::Levels`] policy keeps online (see
/// [`PersistDomain::persisted_frontier`]).
pub(crate) struct PersistedFrontier {
    /// `(index, digest)` pairs of the frontier level's nodes.
    pub(crate) nodes: Vec<(u64, Digest)>,
    /// The root the frontier folds up to.
    pub(crate) root: Digest,
    /// Hash invocations that fold costs (recovery accounting).
    pub(crate) fold_hashes: u64,
}

/// The shared persist-domain core: golden state, counters, NVM image,
/// crypto engines, and integrity tree.
///
/// Fields are crate-visible so the fronts (and the split
/// `pipeline`/`recovery` modules) can drive them directly; external users
/// go through the fronts or the [`PersistSystem`](crate::facade::PersistSystem)
/// facade.
pub struct PersistDomain {
    pub(crate) tree_kind: TreeKind,
    pub(crate) keys: DomainKeys,
    pub(crate) seed: u64,
    pub(crate) bmt_levels: u32,
    pub(crate) golden: FxHashMap<BlockAddr, [u8; 64]>,
    pub(crate) counters: FxHashMap<u64, CounterBlock>,
    pub(crate) nvm: NvmStore,
    pub(crate) otp_engine: OtpEngine,
    pub(crate) mac_engine: BlockMac,
    pub(crate) tree: IntegrityTree,
    /// Whether this domain runs the eager reference engine (every tree
    /// walk and digest recomputed on update, no memo caches) instead of
    /// the lazy production engine.  Only `#[cfg(test)]` code builds one.
    pub(crate) eager: bool,
    /// Crypto kernel every engine dispatches through.
    pub(crate) backend: CryptoBackend,
    pub(crate) ctr_digests: DigestMemo,
    /// The persistence policy driving this domain (what metadata is
    /// persisted when); `PersistencePolicy::for_scheme` layouts are the
    /// byte-identical baseline.
    pub(crate) policy: PersistencePolicy,
    /// Dynamic policy state: shadow root + write-amplification counters.
    pub(crate) policy_state: PolicyState,
}

impl std::fmt::Debug for PersistDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistDomain")
            .field("tree_kind", &self.tree_kind)
            .field("eager", &self.eager)
            .field("data_blocks", &self.nvm.data_block_count())
            .finish_non_exhaustive()
    }
}

impl PersistDomain {
    /// Builds the kernel, deriving the AES/MAC/tree keys from `key_seed`
    /// with the front's salts.  It runs the lazy engine (deferred tree
    /// folds, memoized pads and counter digests) on the fastest crypto
    /// kernel the host supports ([`CryptoBackend::auto`]).
    pub(crate) fn new(
        keys: DomainKeys,
        tree_kind: TreeKind,
        bmt_levels: u32,
        key_seed: u64,
        policy: PersistencePolicy,
    ) -> Self {
        Self::build(keys, tree_kind, bmt_levels, key_seed, policy, false)
    }

    /// This (still unused) domain rebuilt as the reference oracle: the
    /// eager engine on the `Scalar` kernel, which the production engine
    /// must match byte for byte.
    #[cfg(test)]
    pub(crate) fn into_reference(self) -> Self {
        Self::build(
            self.keys,
            self.tree_kind,
            self.bmt_levels,
            self.seed,
            self.policy,
            true,
        )
    }

    fn build(
        keys: DomainKeys,
        tree_kind: TreeKind,
        bmt_levels: u32,
        key_seed: u64,
        policy: PersistencePolicy,
        reference: bool,
    ) -> Self {
        let backend = if reference {
            CryptoBackend::Scalar
        } else {
            CryptoBackend::auto()
        };
        let mut aes_key = [0u8; 24];
        for (i, b) in aes_key.iter_mut().enumerate() {
            *b = (key_seed.rotate_left(i as u32) ^ (i as u64 * keys.aes_mult)) as u8;
        }
        let mac_key = key_seed.to_le_bytes();
        let tree_key = (key_seed ^ keys.tree_xor).to_le_bytes();
        let mut tree = IntegrityTree::new(tree_kind, &tree_key, BMT_ARITY, bmt_levels);
        tree.set_backend(backend);
        let mut otp_engine = OtpEngine::new(&aes_key);
        otp_engine.set_backend(backend);
        let mut mac_engine = BlockMac::new(&mac_key);
        mac_engine.set_backend(backend);
        if !reference {
            tree.set_lazy(true);
            otp_engine.enable_pad_cache(secpb_crypto::memo::DEFAULT_CAPACITY);
        }
        PersistDomain {
            tree_kind,
            keys,
            seed: key_seed,
            bmt_levels,
            golden: FxHashMap::default(),
            counters: FxHashMap::default(),
            nvm: NvmStore::new(),
            otp_engine,
            mac_engine,
            tree,
            eager: reference,
            backend,
            ctr_digests: DigestMemo::new(secpb_crypto::memo::DEFAULT_CAPACITY),
            policy,
            policy_state: PolicyState::default(),
        }
    }

    /// The persistence policy driving this domain.
    pub fn policy(&self) -> PersistencePolicy {
        self.policy
    }

    /// The policy's dynamic state (shadow root, write-amplification
    /// counters).
    pub fn policy_state(&self) -> &PolicyState {
        &self.policy_state
    }

    /// The architecturally-expected plaintext of a block (all stores
    /// applied).
    pub fn expected_plaintext(&self, block: BlockAddr) -> [u8; 64] {
        self.golden.get(&block).copied().unwrap_or([0u8; 64])
    }

    /// Applies a store's architectural effect to the golden state.
    pub(crate) fn apply_store_golden(&mut self, access: Access) {
        let block = access.addr.block();
        let entry = self.golden.entry(block).or_insert([0u8; 64]);
        let off = access.addr.block_offset();
        let size = usize::from(access.size);
        entry[off..off + size].copy_from_slice(&access.value.to_le_bytes()[..size]);
    }

    /// The SHA-512 digest of a counter block, memoized by the lazy
    /// engine.
    pub(crate) fn counter_digest(&self, page: u64, cb: &CounterBlock) -> Digest {
        let bytes = cb.to_bytes();
        if self.eager {
            Sha512::digest(&bytes)
        } else {
            self.ctr_digests.digest(page, &bytes)
        }
    }

    /// Batched [`counter_digest`](Self::counter_digest): every miss in
    /// the burst rides one multi-lane hash dispatch.  Bit-identical
    /// digests to the per-item path.
    pub(crate) fn counter_digest_batch(&self, items: &[(u64, [u8; 64])], out: &mut Vec<Digest>) {
        if self.eager {
            let msgs: Vec<&[u8; 64]> = items.iter().map(|(_, bytes)| bytes).collect();
            secpb_crypto::sha512::digest64_batch(&self.backend, &msgs, out);
        } else {
            self.ctr_digests.digest_batch(&self.backend, items, out);
        }
    }

    /// Combined hit/miss/eviction counters of the domain's memo caches
    /// (the lazy engine's OTP pad cache and counter-digest memo).
    pub fn memo_stats(&self) -> secpb_crypto::memo::MemoStats {
        let pads = self
            .otp_engine
            .pad_cache()
            .map(|c| c.stats())
            .unwrap_or_default();
        pads.merged(self.ctr_digests.stats())
    }

    /// Persists the tree root into NVM after a leaf update, charging the
    /// policy's durable metadata traffic (selective node writes, shadow
    /// refreshes).  The lazy engine skips the register writes: durable
    /// roots are only *read* at recovery, which always follows a
    /// [`sync_root`](Self::sync_root).  The policy counters are analytic
    /// — charged identically by both engines, like the tree's hash counts.
    pub(crate) fn persist_root(&mut self) {
        self.policy_state.leaf_persists += 1;
        self.policy_state.node_writes += self.policy.tree.node_writes_per_persist();
        if self.policy.counters == CounterLayout::Shadow {
            self.policy_state.shadow_writes += 1;
        }
        if self.eager {
            self.nvm.set_bmt_root(self.tree.root());
            if self.policy.counters == CounterLayout::Shadow {
                self.policy_state.shadow_root = Some(self.tree.root());
            }
        }
    }

    /// Raw logical-counter increment (no page-overflow handling — the
    /// eADR and multi-core fronts never re-encrypt; the single-core
    /// pipeline layers overflow handling on top in
    /// `SecureSystem::increment_logical`).  The fronts resolve counters
    /// with it before calling [`flush`](Self::flush).
    pub(crate) fn increment_raw(&mut self, block: BlockAddr) -> SplitCounter {
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let cb = self.counters.entry(page).or_default();
        cb.increment(slot);
        cb.counter_of(slot)
    }

    /// The drain-completion kernel every front drives: applies each
    /// entry's full memory-tuple update to the durable state, in order.
    ///
    /// With `secure == false` (the insecure `bbb` baseline) only the data
    /// blocks move.  Otherwise every entry's counter must already be
    /// resolved (each front owns its counter policy); whatever else the
    /// scheme left late — pad, ciphertext, MAC — is generated here, and
    /// the returned [`FlushRecord`]s say what was.  The stateless MACs of
    /// the whole slice ride one multi-lane dispatch and so do its counter
    /// digests, while everything stateful — pad-cache and digest-memo
    /// accesses, NVM writes, tree-leaf updates — runs in slice order, so
    /// the result is byte-identical to flushing the entries one by one.
    pub(crate) fn flush(&mut self, entries: &[Entry], secure: bool) -> Vec<FlushRecord> {
        if !secure {
            for entry in entries {
                self.nvm.write_data(entry.block, entry.plaintext);
            }
            return vec![FlushRecord::default(); entries.len()];
        }
        debug_assert!(
            entries.iter().all(|e| e.valid.counter),
            "the flush kernel requires resolved counters"
        );
        let mut recs = Vec::with_capacity(entries.len());
        let mut cts: Vec<[u8; 64]> = Vec::with_capacity(entries.len());
        for e in entries {
            // `mac_generated` reports whether the *modeled* MAC unit ran
            // at drain; with `valid.mac` set the unit already ran early
            // and only the host-side tag is computed here.
            let mut rec = FlushRecord {
                mac_generated: !e.valid.mac,
                ..FlushRecord::default()
            };
            let pad = if e.valid.otp {
                e.otp
            } else {
                rec.otp_generated = true;
                self.otp_engine.generate(e.block.index(), e.counter)
            };
            cts.push(if e.valid.ciphertext {
                e.ciphertext
            } else {
                rec.ciphertext_generated = true;
                OtpEngine::apply_pad(&e.plaintext, &pad)
            });
            recs.push(rec);
        }
        let mut tags = Vec::with_capacity(entries.len());
        {
            let refs: Vec<(&[u8; 64], u64, SplitCounter)> = entries
                .iter()
                .zip(&cts)
                .map(|(e, ct)| (ct, e.block.index(), e.counter))
                .collect();
            self.mac_engine.compute_truncated_batch(&refs, &mut tags);
        }
        // Pass 1, in order: data/MAC/counter writes, snapshotting each
        // entry's post-write counter block.  A later same-page entry reads
        // the earlier one's update exactly as the sequential path would.
        let mut pages: Vec<(u64, [u8; 64])> = Vec::with_capacity(entries.len());
        for ((entry, ct), &tag64) in entries.iter().zip(&cts).zip(&tags) {
            let block = entry.block;
            let page = NvmStore::page_of(block);
            let slot = NvmStore::page_slot_of(block);
            self.nvm.write_data(block, *ct);
            self.nvm.write_mac(block, tag64);
            let mut cb = self.nvm.read_counters(page);
            cb.set_counter(slot, entry.counter);
            pages.push((page, cb.to_bytes()));
            self.nvm.write_counters(page, cb);
        }
        let mut digests = Vec::with_capacity(pages.len());
        self.counter_digest_batch(&pages, &mut digests);
        // Pass 2, in order: leaf updates against the snapshotted digests.
        // Same-page entries update the leaf once per entry with the same
        // digest sequence as sequential flushing, so the final tree state
        // and per-entry hash counts are identical.
        for (rec, (&(page, _), &digest)) in recs.iter_mut().zip(pages.iter().zip(&digests)) {
            rec.tree_hashes = self.tree.update_leaf(page, digest);
            self.persist_root();
        }
        recs
    }

    /// Persists a block's full tuple from the golden state with an
    /// already-incremented counter — the per-store kernel shared by the
    /// SP baseline and the eADR writeback path, a one-entry
    /// [`flush`](Self::flush).  Returns the BMT hashes charged by the
    /// leaf update.
    pub(crate) fn persist_with_counter(&mut self, block: BlockAddr, ctr: SplitCounter) -> u64 {
        let mut entry = Entry::new(block, Asid(0), self.expected_plaintext(block), 0);
        entry.counter = ctr;
        entry.valid.counter = true;
        self.flush(std::slice::from_ref(&entry), true)[0].tree_hashes
    }

    /// [`persist_with_counter`](Self::persist_with_counter) preceded by a
    /// raw counter increment (the eADR tuple-persist kernel).
    pub(crate) fn persist_block(&mut self, block: BlockAddr) -> u64 {
        let ctr = self.increment_raw(block);
        self.persist_with_counter(block, ctr)
    }

    /// Folds all deferred integrity-tree work; persists the root when
    /// `persist` is set (the fronts gate this on scheme security).
    /// Returns the analytic hash count charged to the sec-sync gap.
    pub(crate) fn sync_root(&mut self, persist: bool) -> u64 {
        let sync_hashes = self.tree.sync();
        if persist {
            self.nvm.set_bmt_root(self.tree.root());
            if self.policy.counters == CounterLayout::Shadow {
                self.policy_state.shadow_root = Some(self.tree.root());
            }
        }
        sync_hashes
    }

    /// The durable tree frontier a [`TreePersistence::Levels`] policy
    /// keeps online, plus the root it folds to and the hashes that fold
    /// costs.  An observation point: callers sync first (every recovery
    /// path does).  `None` under the root-only baseline or on forests.
    pub(crate) fn persisted_frontier(&self) -> Option<PersistedFrontier> {
        let TreePersistence::Levels(n) = self.policy.tree else {
            return None;
        };
        let frontier_level = u32::from(n) - 1;
        let nodes = self.tree.level_nodes(frontier_level)?;
        let (root, fold_hashes) = self.tree.root_from_level(frontier_level, &nodes)?;
        Some(PersistedFrontier {
            nodes,
            root,
            fold_hashes,
        })
    }

    /// Appends the domain's dynamic state — golden image, logical
    /// counters (both in sorted key order), NVM store, and integrity
    /// tree — to a checkpoint.  The crypto engines are pure functions of
    /// the construction scalars and are rebuilt, not serialised; the
    /// memo caches are host-side accelerators whose contents never reach
    /// any digested output, so [`restore_from`](Self::restore_from)
    /// simply clears them.
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        let mut golden: Vec<_> = self.golden.iter().collect();
        golden.sort_by_key(|(b, _)| b.index());
        w.usize(golden.len());
        for (block, bytes) in golden {
            w.u64(block.index());
            w.raw(bytes);
        }
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by_key(|&(page, _)| *page);
        w.usize(counters.len());
        for (page, cb) in counters {
            w.u64(*page);
            w.raw(&cb.to_bytes());
        }
        self.nvm.encode_into(w);
        self.tree.encode_into(w);
    }

    /// Overlays state captured by [`encode_into`](Self::encode_into) onto
    /// a domain constructed with the same scalars (salts, tree kind,
    /// engine, key seed).
    pub(crate) fn restore_from(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        let n = r.seq_len(8 + 64)?;
        let mut golden = FxHashMap::default();
        for _ in 0..n {
            let block = BlockAddr(r.u64()?);
            golden.insert(block, r.array::<64>()?);
        }
        let n = r.seq_len(8 + 64)?;
        let mut counters = FxHashMap::default();
        for _ in 0..n {
            let page = r.u64()?;
            let bytes = r.array::<64>()?;
            counters.insert(page, CounterBlock::from_bytes(&bytes));
        }
        let nvm = NvmStore::decode_from(r)?;
        self.tree.restore_from(r)?;
        self.golden = golden;
        self.counters = counters;
        self.nvm = nvm;
        self.ctr_digests.clear();
        if let Some(pads) = self.otp_engine.pad_cache() {
            pads.clear();
        }
        Ok(())
    }

    /// A fresh integrity tree keyed like this domain's, for the recovery
    /// rebuild.
    pub(crate) fn rebuilt_tree(&self) -> IntegrityTree {
        let tree_key = (self.seed ^ self.keys.tree_xor).to_le_bytes();
        let mut rebuilt = IntegrityTree::new(self.tree_kind, &tree_key, BMT_ARITY, self.bmt_levels);
        rebuilt.set_backend(self.backend);
        rebuilt.set_lazy(!self.eager);
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secpb_sim::addr::Address;

    #[test]
    fn front_salts_are_distinct() {
        let salts = [DomainKeys::SECPB, DomainKeys::EADR, DomainKeys::MULTI_CORE];
        for (i, a) in salts.iter().enumerate() {
            for b in &salts[i + 1..] {
                assert_ne!(a, b, "fronts must not share a persisted key space");
            }
        }
    }

    #[test]
    fn flush_record_reports_late_work() {
        let mut d = PersistDomain::new(
            DomainKeys::SECPB,
            TreeKind::Monolithic,
            8,
            7,
            PersistencePolicy::default(),
        )
        .into_reference();
        let block = Address(0x1000).block();
        d.golden.insert(block, [3u8; 64]);
        let mut entry = Entry::new(block, Asid(0), [3u8; 64], 0);
        entry.counter = d.increment_raw(block);
        entry.valid.counter = true;
        let rec = d.flush(std::slice::from_ref(&entry), true)[0];
        assert!(rec.otp_generated && rec.ciphertext_generated && rec.mac_generated);
        assert!(rec.tree_hashes > 0);
        // Insecure flush does no metadata work at all.
        let entry = Entry::new(block, Asid(0), [3u8; 64], 0);
        assert_eq!(d.flush(&[entry], false), vec![FlushRecord::default()]);
    }

    #[test]
    fn batched_flush_matches_one_entry_flushes() {
        // A burst of same- and cross-page entries with a mix of early
        // work must leave the same durable state, records and memo
        // accounting as flushing the entries one at a time.
        let domain = || {
            PersistDomain::new(
                DomainKeys::SECPB,
                TreeKind::Monolithic,
                8,
                11,
                PersistencePolicy::default(),
            )
        };
        let (mut batched, mut single) = (domain(), domain());
        let mut entries = Vec::new();
        for (i, addr) in [0x1000u64, 0x1040, 0x9000, 0x1080, 0x9040]
            .into_iter()
            .enumerate()
        {
            let block = Address(addr).block();
            let mut entry = Entry::new(block, Asid(0), [i as u8 + 1; 64], i as u64);
            entry.counter = batched.increment_raw(block);
            single.increment_raw(block);
            entry.valid.counter = true;
            if i % 2 == 1 {
                entry.otp = batched.otp_engine.generate(block.index(), entry.counter);
                entry.valid.otp = true;
                entry.ciphertext = OtpEngine::apply_pad(&entry.plaintext, &entry.otp);
                entry.valid.ciphertext = true;
            }
            entries.push(entry);
        }
        let recs = batched.flush(&entries, true);
        let singles: Vec<FlushRecord> = entries
            .iter()
            .map(|e| single.flush(std::slice::from_ref(e), true)[0])
            .collect();
        assert_eq!(recs, singles);
        batched.sync_root(true);
        single.sync_root(true);
        let image = |d: &PersistDomain| {
            let mut w = WireWriter::new();
            d.encode_into(&mut w);
            w.into_bytes()
        };
        assert_eq!(image(&batched), image(&single));
        assert_eq!(batched.ctr_digests.stats(), single.ctr_digests.stats());
    }

    #[test]
    fn persist_block_round_trips_through_decrypt() {
        let mut d = PersistDomain::new(
            DomainKeys::EADR,
            TreeKind::Monolithic,
            8,
            42,
            PersistencePolicy::default(),
        );
        let block = Address(0x2000).block();
        d.golden.insert(block, [9u8; 64]);
        d.persist_block(block);
        let page = NvmStore::page_of(block);
        let slot = NvmStore::page_slot_of(block);
        let ctr = d.nvm.read_counters(page).counter_of(slot);
        let pt = d
            .otp_engine
            .decrypt(&d.nvm.read_data(block), block.index(), ctr);
        assert_eq!(pt, [9u8; 64]);
    }
}
