//! Crypto-backend equivalence suite: the pluggable SIMD/multi-block
//! kernels are a pure performance feature, so every digest must be
//! byte-identical no matter which kernel computed it.
//!
//! Scalar is the reference kernel.  MultiBlock (4-lane interleaved
//! SHA-512 schedule) and HwCrypto (AES-NI + vectorized hash when the
//! `hw-crypto` feature is compiled in and the ISA is detected; graceful
//! scalar fallback otherwise) must agree with it.  The sweep always runs
//! all three — on hosts without the feature or the ISA the hw kernel
//! exercises its fallback path, which is exactly the behaviour the
//! fallback must get right.  The system-level checks (grid JSON,
//! crash/recovery verdicts, telemetry parity) run the production path
//! against the eager `Scalar` reference inside `secpb-core`
//! (`reference_tests`).
//!
//! Also here: the arena stress test (churned ASIDs, overflow → slot
//! reuse, stale-handle aliasing) because the arena rides the same hot
//! path and its invariants guard the same buffers the kernels encrypt.

use secpb::core::arena::EntryArena;
use secpb::core::entry::Entry;
use secpb::crypto::backend::{CryptoBackend, HashBackend};
use secpb::crypto::sha512::{digest64_batch, Sha512};
use secpb::sim::addr::{Asid, BlockAddr};

/// Deterministic xorshift64* fuzz source (no external RNG crates).
struct Fuzz(u64);

impl Fuzz {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes64(&mut self) -> [u8; 64] {
        let mut out = [0u8; 64];
        for chunk in out.chunks_exact_mut(8) {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        out
    }
}

#[test]
fn fuzzed_digest_batches_agree_across_backends() {
    // 64-byte single-compression batches at awkward sizes (0, 1, lane
    // count, lane count ± 1, large odd) — every backend must reproduce
    // the one-shot scalar digest bit-for-bit.
    let mut fuzz = Fuzz(0x5EC9_B001);
    for batch_len in [0usize, 1, 3, 4, 5, 17, 64] {
        let msgs: Vec<[u8; 64]> = (0..batch_len).map(|_| fuzz.bytes64()).collect();
        let expected: Vec<_> = msgs.iter().map(|m| Sha512::digest(m)).collect();
        for backend in CryptoBackend::ALL {
            let refs: Vec<&[u8; 64]> = msgs.iter().collect();
            let mut got = Vec::new();
            digest64_batch(&backend, &refs, &mut got);
            assert_eq!(
                got,
                expected,
                "{} backend diverged on a {batch_len}-message batch",
                HashBackend::name(&backend)
            );
        }
    }
}

#[test]
fn hw_backend_reports_detection_consistently() {
    // auto() must resolve to HwCrypto exactly when hw_available() says
    // so; on every other host it must be MultiBlock.  Either way the
    // digest sweep above and the reference suite in `secpb-core` pin its
    // output to the scalar reference.
    if CryptoBackend::hw_available() {
        assert_eq!(CryptoBackend::auto(), CryptoBackend::HwCrypto);
    } else {
        assert_eq!(CryptoBackend::auto(), CryptoBackend::MultiBlock);
    }
}

#[test]
fn arena_stress_churned_asids_overflow_and_no_aliasing() {
    // 10k fuzzed operations against a model map: inserts under churned
    // ASIDs, removals in random order, overflow must hand the entry
    // back, freed slots must be reused, and every retired handle must
    // stay dead (generation check) for the rest of the run.
    const CAP: usize = 32;
    let mut arena = EntryArena::with_capacity(CAP);
    let mut fuzz = Fuzz(0xA12E_57A7);
    // Live handles with the (block, asid, seq) identity we stored.
    let mut live: Vec<(secpb::core::arena::Handle, u64, u16, u64)> = Vec::new();
    let mut retired: Vec<secpb::core::arena::Handle> = Vec::new();
    let mut overflows = 0u32;
    let mut max_slot_seen = 0u32;

    for op in 0..10_000u64 {
        let r = fuzz.next();
        let insert = live.is_empty() || (r & 1 == 0);
        if insert {
            let block = r >> 8;
            let asid = (op % 11) as u16; // churn through 11 address spaces
            let entry = Entry::new(BlockAddr(block), Asid(asid), [op as u8; 64], op);
            match arena.insert(entry) {
                Ok(h) => {
                    max_slot_seen = max_slot_seen.max(h.slot());
                    live.push((h, block, asid, op));
                }
                Err(back) => {
                    // Overflow: the arena must be exactly full and must
                    // return our entry untouched.
                    overflows += 1;
                    assert_eq!(arena.live(), CAP, "overflow before the arena was full");
                    assert_eq!(back.block, BlockAddr(block));
                    assert_eq!(back.asid, Asid(asid));
                    assert_eq!(back.seq, op);
                }
            }
        } else {
            let idx = (r as usize >> 2) % live.len();
            let (h, block, asid, seq) = live.swap_remove(idx);
            let e = arena.remove(h).expect("live handle must remove");
            assert_eq!(
                (e.block, e.asid, e.seq),
                (BlockAddr(block), Asid(asid), seq)
            );
            retired.push(h);
        }

        assert_eq!(arena.live(), live.len(), "live count drifted from model");
        // Spot-check a live handle and a retired handle each iteration.
        if let Some(&(h, block, asid, seq)) = live.last() {
            let e = arena.get(h).expect("live handle must resolve");
            assert_eq!(
                (e.block, e.asid, e.seq),
                (BlockAddr(block), Asid(asid), seq)
            );
        }
        if let Some(&stale) = retired.last() {
            assert!(arena.get(stale).is_none(), "stale handle aliased a tenant");
        }
    }

    // The workload must actually have exercised the interesting paths.
    assert!(overflows > 0, "stress never overflowed the arena");
    assert!(retired.len() > 1_000, "stress never churned slots");
    assert!(
        (max_slot_seen as usize) < CAP,
        "arena grew beyond its fixed capacity"
    );
    // Every retired handle is still dead at the end — no aliasing ever.
    for h in retired {
        assert!(arena.get(h).is_none());
        assert!(arena.remove(h).is_none());
    }
}
