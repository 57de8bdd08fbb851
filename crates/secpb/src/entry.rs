//! One SecPB entry (Figure 5 of the paper).
//!
//! Each entry tracks a 64-byte persistent block and the portion of its
//! memory tuple that the active scheme generates eagerly:
//!
//! * `Dp` — the data plaintext (64 B, always valid once allocated),
//! * `O`  — the precomputed one-time pad (64 B),
//! * `Dc` — the data ciphertext (64 B),
//! * `C`  — the incremented split counter (8 bits in hardware; we keep the
//!   logical `SplitCounter` for the functional model),
//! * `B`  — the BMT-root-update acknowledgement (1 bit),
//! * `M`  — the MAC (512 bits).
//!
//! Every field except `B` carries a valid bit; when all the fields the
//! scheme requires are valid, the entry's security persist is complete and
//! the entry is *drainable* (Section IV-B).

use secpb_crypto::counter::SplitCounter;
use secpb_crypto::sha512::Digest;
use secpb_sim::addr::{Asid, BlockAddr};
use secpb_sim::cycle::Cycle;
use secpb_sim::wire::{WireError, WireReader, WireWriter};

/// The valid bits of a SecPB entry's tuple fields.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ValidBits {
    /// `O` field holds the pad for the current counter.
    pub otp: bool,
    /// `Dc` field reflects the current plaintext.
    pub ciphertext: bool,
    /// `C` field holds the incremented counter.
    pub counter: bool,
    /// BMT root has been updated for this entry's counter (the `B` bit).
    pub bmt: bool,
    /// `M` field holds the MAC of the current ciphertext.
    pub mac: bool,
}

/// One SecPB entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The 64-byte block this entry shadows.
    pub block: BlockAddr,
    /// Owning address space (drain-process crash policy).
    pub asid: Asid,
    /// `Dp`: current plaintext of the block.
    pub plaintext: [u8; 64],
    /// `O`: precomputed pad (meaningful when `valid.otp`).
    pub otp: [u8; 64],
    /// `Dc`: ciphertext (meaningful when `valid.ciphertext`).
    pub ciphertext: [u8; 64],
    /// `C`: the incremented counter (meaningful when `valid.counter`).
    pub counter: SplitCounter,
    /// `M`: the MAC (meaningful when `valid.mac`).
    pub mac: Option<Digest>,
    /// Field valid bits.
    pub valid: ValidBits,
    /// Number of stores coalesced into this entry (drives NWPE).
    pub stores: u64,
    /// Allocation sequence number: drains proceed oldest-first.
    pub seq: u64,
    /// Allocation cycle (drives the entry-lifetime distribution).
    pub born: Cycle,
}

impl Entry {
    /// Creates a fresh entry for `block` with the given allocation
    /// sequence number.  The plaintext starts from the block's current
    /// memory contents (`base`), onto which stores are coalesced.
    pub fn new(block: BlockAddr, asid: Asid, base: [u8; 64], seq: u64) -> Self {
        Entry {
            block,
            asid,
            plaintext: base,
            otp: [0u8; 64],
            ciphertext: [0u8; 64],
            counter: SplitCounter::default(),
            mac: None,
            valid: ValidBits::default(),
            stores: 0,
            seq,
            born: Cycle::ZERO,
        }
    }

    /// Applies a store of `size` bytes of `value` at byte offset `offset`
    /// and invalidates the data-value-dependent fields (`Dc`, `M`), which
    /// must track every plaintext change (Section IV-A).  Data-value-
    /// *independent* fields (`C`, `O`, `B`) stay valid: the counter is
    /// incremented once per dirty block, not once per store.
    ///
    /// # Panics
    ///
    /// Panics if the write would cross the 64-byte block boundary.
    pub fn apply_store(&mut self, offset: usize, value: u64, size: usize) {
        assert!((1..=8).contains(&size), "store size must be 1..=8 bytes");
        assert!(offset + size <= 64, "store crosses block boundary");
        let bytes = value.to_le_bytes();
        self.plaintext[offset..offset + size].copy_from_slice(&bytes[..size]);
        self.stores += 1;
        self.valid.ciphertext = false;
        self.valid.mac = false;
        self.mac = None;
    }

    /// Appends every tuple field, valid bit, and counter to a checkpoint.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.u64(self.block.index());
        w.u32(u32::from(self.asid.0));
        w.raw(&self.plaintext);
        w.raw(&self.otp);
        w.raw(&self.ciphertext);
        w.u64(self.counter.major);
        w.u8(self.counter.minor);
        match self.mac {
            Some(d) => {
                w.bool(true);
                w.raw(&d.0);
            }
            None => w.bool(false),
        }
        w.bool(self.valid.otp);
        w.bool(self.valid.ciphertext);
        w.bool(self.valid.counter);
        w.bool(self.valid.bmt);
        w.bool(self.valid.mac);
        w.u64(self.stores);
        w.u64(self.seq);
        w.u64(self.born.raw());
    }

    /// Rebuilds an entry from [`encode_into`](Self::encode_into) bytes.
    ///
    /// # Errors
    ///
    /// Propagates truncation/malformation with the byte offset.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let block = BlockAddr(r.u64()?);
        let asid_raw = r.u32()?;
        let asid = Asid(u16::try_from(asid_raw).map_err(|_| r.malformed("ASID exceeds 16 bits"))?);
        let plaintext = r.array::<64>()?;
        let otp = r.array::<64>()?;
        let ciphertext = r.array::<64>()?;
        let counter = SplitCounter {
            major: r.u64()?,
            minor: r.u8()?,
        };
        let mac = if r.bool()? {
            Some(Digest(r.array::<64>()?))
        } else {
            None
        };
        let valid = ValidBits {
            otp: r.bool()?,
            ciphertext: r.bool()?,
            counter: r.bool()?,
            bmt: r.bool()?,
            mac: r.bool()?,
        };
        Ok(Entry {
            block,
            asid,
            plaintext,
            otp,
            ciphertext,
            counter,
            mac,
            valid,
            stores: r.u64()?,
            seq: r.u64()?,
            born: Cycle(r.u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> Entry {
        Entry::new(BlockAddr(5), Asid(0), [0u8; 64], 1)
    }

    #[test]
    fn fresh_entry_has_no_valid_fields() {
        let e = entry();
        assert_eq!(e.valid, ValidBits::default());
        assert_eq!(e.stores, 0);
    }

    #[test]
    fn store_updates_plaintext_bytes() {
        let mut e = entry();
        e.apply_store(8, 0x1122_3344_5566_7788, 8);
        assert_eq!(&e.plaintext[8..16], &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(e.stores, 1);
    }

    #[test]
    fn partial_width_store() {
        let mut e = entry();
        e.apply_store(62, 0xAABB, 2);
        assert_eq!(e.plaintext[62], 0xBB);
        assert_eq!(e.plaintext[63], 0xAA);
    }

    #[test]
    fn store_invalidates_value_dependent_fields_only() {
        let mut e = entry();
        e.valid = ValidBits {
            otp: true,
            ciphertext: true,
            counter: true,
            bmt: true,
            mac: true,
        };
        e.apply_store(0, 1, 8);
        assert!(e.valid.counter, "counter is data-value independent");
        assert!(e.valid.otp, "OTP is data-value independent");
        assert!(e.valid.bmt, "BMT ack is data-value independent");
        assert!(!e.valid.ciphertext, "ciphertext must track the new value");
        assert!(!e.valid.mac, "MAC must track the new value");
    }

    #[test]
    #[should_panic(expected = "crosses block boundary")]
    fn cross_block_store_panics() {
        entry().apply_store(60, 0, 8);
    }

    #[test]
    #[should_panic(expected = "store size")]
    fn oversized_store_panics() {
        entry().apply_store(0, 0, 9);
    }
}
