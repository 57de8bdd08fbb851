//! The crypto kernels behind every engine: a production backend that
//! picks AES-NI and AVX2 kernels at runtime, and the scalar reference.
//!
//! Every fold of an integrity tree, every recovery-sweep MAC check, and
//! every OTP pad is built from two primitive operations: the SHA-512
//! compression function and the AES block encryption.  Both are
//! *embarrassingly batchable* — sibling nodes of a tree level, the MACs of
//! a recovery chunk, and the four AES blocks of one pad are mutually
//! independent — so the engines dispatch whole batches through a
//! [`CryptoBackend`] and let it decide how to schedule them:
//!
//! * [`CryptoBackend::Scalar`] — one block at a time, the reference the
//!   tests pin the production kernel to.
//! * [`CryptoBackend::Native`] — the production kernel.  Hashing runs
//!   four SHA-512 lanes per dispatch: the 256-bit `sha512x4` kernel
//!   when `is_x86_feature_detected!("avx2")` confirms the ISA, otherwise
//!   [`sha512`]'s portable structure-of-arrays compression.  The cipher
//!   runs the `aesni` kernel when the CPU advertises AES-NI, otherwise
//!   the portable [`Aes`].  x86 offers no SHA-512 instruction (SHA-NI
//!   covers SHA-1/SHA-256 only), so the vector kernel is the
//!   hardware-class hash path.  Both kernels are compiled into every
//!   x86-64 build; [`CryptoBackend::name`] reports which ones detection
//!   picked.
//!
//! Both variants are bit-identical by construction; the unit tests here
//! pin each detected kernel to its portable fallback, and the
//! backend-equivalence suite and `secpb-core`'s reference tests pin the
//! whole production path to the scalar reference.

use crate::aes::Aes;
use crate::sha512::{self, LANES};

/// A copyable backend selector the crypto engines hold and dispatch
/// through, so engines stay cheap to clone and need no trait objects on
/// the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CryptoBackend {
    /// One block at a time (the reference engine).
    Scalar,
    /// Four SHA-512 lanes per dispatch and batched AES, each through the
    /// fastest kernel runtime detection finds on this host.
    #[default]
    Native,
}

impl CryptoBackend {
    /// Every backend variant, for equivalence sweeps.
    pub const ALL: [CryptoBackend; 2] = [CryptoBackend::Scalar, CryptoBackend::Native];

    /// The production backend.  Never [`CryptoBackend::Scalar`]; which
    /// kernels it runs is decided per dispatch by runtime detection and
    /// reported by [`name`](Self::name).
    pub fn auto() -> Self {
        CryptoBackend::Native
    }

    /// Whether the CPU advertises AES-NI, so [`CryptoBackend::Native`]
    /// ciphers through the `aesni` kernel.
    pub fn aes_ni_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            aesni::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether the CPU advertises AVX2, so [`CryptoBackend::Native`]
    /// hashes through the vector `sha512x4` kernel.  When `false`,
    /// batched dispatches still work but run the portable schedule, so
    /// batching is a correctness/equivalence feature rather than a
    /// speedup — benchmark regression guards key off this.
    pub fn simd_hash_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            sha512x4::available()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Stable lowercase name of the kernels this backend runs on this
    /// host (reports, benchmarks): `scalar` for the reference, and for
    /// [`CryptoBackend::Native`] what detection picked — `aesni+avx2`,
    /// `aesni`, `avx2`, or `portable`.
    pub fn name(self) -> &'static str {
        match (self, Self::aes_ni_available(), Self::simd_hash_available()) {
            (CryptoBackend::Scalar, _, _) => "scalar",
            (CryptoBackend::Native, true, true) => "aesni+avx2",
            (CryptoBackend::Native, true, false) => "aesni",
            (CryptoBackend::Native, false, true) => "avx2",
            (CryptoBackend::Native, false, false) => "portable",
        }
    }

    /// Compresses `blocks[i]` into `states[i]` for every lane.
    ///
    /// The blocks are independent (different messages), not consecutive
    /// blocks of one message, so the backend is free to interleave them.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `blocks` have different lengths.
    pub fn compress_batch(&self, states: &mut [[u64; 8]], blocks: &[&[u8; 128]]) {
        assert_eq!(states.len(), blocks.len(), "lane count mismatch");
        let mut i = 0;
        if *self == CryptoBackend::Native {
            while states.len() - i >= LANES {
                let lane_blocks = [blocks[i], blocks[i + 1], blocks[i + 2], blocks[i + 3]];
                let lane_states: &mut [[u64; 8]; LANES] =
                    (&mut states[i..i + LANES]).try_into().expect("4 lanes");
                i += LANES;
                // Prefer the explicit 256-bit kernel: the portable SoA
                // schedule needs 32+ live 64-bit values, which spills on
                // the 16-GPR baseline target, so real vector registers
                // are where the batching pays off.
                #[cfg(target_arch = "x86_64")]
                if sha512x4::try_compress4(lane_states, lane_blocks) {
                    continue;
                }
                sha512::compress4(lane_states, lane_blocks);
            }
        }
        for (state, block) in states[i..].iter_mut().zip(&blocks[i..]) {
            sha512::compress_block(state, block);
        }
    }

    /// Encrypts each 16-byte block in place under `aes`'s key schedule.
    pub fn encrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if *self == CryptoBackend::Native && aesni::try_encrypt_batch(aes, blocks) {
            return;
        }
        for block in blocks {
            *block = aes.encrypt_block(block);
        }
    }

    /// Decrypts each 16-byte block in place under `aes`'s key schedule.
    pub fn decrypt_batch(&self, aes: &Aes, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if *self == CryptoBackend::Native && aesni::try_decrypt_batch(aes, blocks) {
            return;
        }
        for block in blocks {
            *block = aes.decrypt_block(block);
        }
    }
}

impl std::fmt::Display for CryptoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str((*self).name())
    }
}

/// The `std::arch` AES-NI kernels — with `sha512x4`, the only unsafe
/// code in the crate, compiled into every x86-64 build and entered only
/// behind a runtime `is_x86_feature_detected!("aes")` check.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aesni {
    use std::arch::x86_64::{
        __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
        _mm_aesimc_si128, _mm_loadu_si128, _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Whether the CPU advertises the AES ISA extension.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("aes")
    }

    /// Encrypts the batch through AES-NI if the ISA is present; returns
    /// `false` (untouched blocks) when the caller must fall back.
    pub(super) fn try_encrypt_batch(aes: &crate::aes::Aes, blocks: &mut [[u8; 16]]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed the `aes` (and implied
        // `sse2`) target features on this CPU.
        unsafe { encrypt_batch(aes.round_keys(), blocks) };
        true
    }

    /// Decrypts the batch through AES-NI if the ISA is present; returns
    /// `false` (untouched blocks) when the caller must fall back.
    pub(super) fn try_decrypt_batch(aes: &crate::aes::Aes, blocks: &mut [[u8; 16]]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: as in `try_encrypt_batch`.
        unsafe { decrypt_batch(aes.round_keys(), blocks) };
        true
    }

    /// Loads an expanded key schedule into xmm registers (at most 15 round
    /// keys: AES-256).
    #[target_feature(enable = "aes,sse2")]
    unsafe fn load_keys(round_keys: &[[u8; 16]]) -> ([__m128i; 15], usize) {
        let mut keys = [_mm_setzero_si128(); 15];
        for (slot, rk) in keys.iter_mut().zip(round_keys) {
            *slot = _mm_loadu_si128(rk.as_ptr().cast());
        }
        (keys, round_keys.len() - 1)
    }

    /// Encrypts each block in place: `AddRoundKey`, `nr - 1` full
    /// `aesenc` rounds, one `aesenclast`.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature.
    #[target_feature(enable = "aes,sse2")]
    unsafe fn encrypt_batch(round_keys: &[[u8; 16]], blocks: &mut [[u8; 16]]) {
        let (keys, nr) = load_keys(round_keys);
        for block in blocks {
            let mut state = _mm_loadu_si128(block.as_ptr().cast());
            state = _mm_xor_si128(state, keys[0]);
            for key in &keys[1..nr] {
                state = _mm_aesenc_si128(state, *key);
            }
            state = _mm_aesenclast_si128(state, keys[nr]);
            _mm_storeu_si128(block.as_mut_ptr().cast(), state);
        }
    }

    /// Decrypts each block in place via the equivalent inverse cipher:
    /// round keys reversed, interior keys through `aesimc`.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `aes` target feature.
    #[target_feature(enable = "aes,sse2")]
    unsafe fn decrypt_batch(round_keys: &[[u8; 16]], blocks: &mut [[u8; 16]]) {
        let (keys, nr) = load_keys(round_keys);
        let mut dec = [_mm_setzero_si128(); 15];
        dec[0] = keys[nr];
        for i in 1..nr {
            dec[i] = _mm_aesimc_si128(keys[nr - i]);
        }
        dec[nr] = keys[0];
        for block in blocks {
            let mut state = _mm_loadu_si128(block.as_ptr().cast());
            state = _mm_xor_si128(state, dec[0]);
            for key in &dec[1..nr] {
                state = _mm_aesdec_si128(state, *key);
            }
            state = _mm_aesdeclast_si128(state, dec[nr]);
            _mm_storeu_si128(block.as_mut_ptr().cast(), state);
        }
    }
}

/// The `std::arch` AVX2 four-lane SHA-512 compression kernel — like
/// `aesni`, unsafe code compiled into every x86-64 build and entered
/// only behind a runtime `is_x86_feature_detected!("avx2")` check.  x86 has no SHA-512 instruction, but one ymm register holds a
/// 64-bit round variable for all four lanes at once, so every round
/// operation of four independent compressions becomes a single vector
/// instruction instead of four spill-prone scalar ones.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha512x4 {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256, _mm256_or_si256,
        _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    use crate::sha512::{constants, LANES};

    /// `x >>> n` on each 64-bit lane (AVX2 has no 64-bit rotate, so it is
    /// synthesized from the two shifts).
    macro_rules! rotr {
        ($x:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_srli_epi64::<$n>($x),
                _mm256_slli_epi64::<{ 64 - $n }>($x),
            )
        };
    }

    /// Whether the CPU advertises AVX2.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// Runs the four-lane compression through AVX2 if the ISA is present;
    /// returns `false` (untouched states) when the caller must fall back.
    pub(super) fn try_compress4(
        states: &mut [[u64; 8]; LANES],
        blocks: [&[u8; 128]; LANES],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just confirmed the `avx2` target feature.
        unsafe { compress4(states, blocks) };
        true
    }

    /// Round `i`'s big-endian message word of `block`, as the lane type.
    #[inline(always)]
    fn word(block: &[u8; 128], i: usize) -> i64 {
        u64::from_be_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes")) as i64
    }

    /// Four independent SHA-512 compressions, one per 64-bit lane of each
    /// ymm value.  Bit-identical to four scalar `compress_block` calls.
    ///
    /// # Safety
    ///
    /// The caller must have verified the `avx2` target feature.
    #[target_feature(enable = "avx2")]
    unsafe fn compress4(states: &mut [[u64; 8]; LANES], blocks: [&[u8; 128]; LANES]) {
        let (k, _) = constants();
        let mut w = [_mm256_set1_epi64x(0); 80];
        for (i, w_i) in w.iter_mut().take(16).enumerate() {
            *w_i = _mm256_setr_epi64x(
                word(blocks[0], i),
                word(blocks[1], i),
                word(blocks[2], i),
                word(blocks[3], i),
            );
        }
        for i in 16..80 {
            let w15 = w[i - 15];
            let w2 = w[i - 2];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(w15, 1), rotr!(w15, 8)),
                _mm256_srli_epi64::<7>(w15),
            );
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(w2, 19), rotr!(w2, 61)),
                _mm256_srli_epi64::<6>(w2),
            );
            w[i] = _mm256_add_epi64(
                _mm256_add_epi64(w[i - 16], s0),
                _mm256_add_epi64(w[i - 7], s1),
            );
        }
        let mut v = [_mm256_set1_epi64x(0); 8];
        for (r, row) in v.iter_mut().enumerate() {
            *row = _mm256_setr_epi64x(
                states[0][r] as i64,
                states[1][r] as i64,
                states[2][r] as i64,
                states[3][r] as i64,
            );
        }
        let init = v;
        for (&k_i, &w_i) in k.iter().zip(&w) {
            let [a, b, c, d, e, f, g, h] = v;
            let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 14), rotr!(e, 18)), rotr!(e, 41));
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let kw = _mm256_add_epi64(_mm256_set1_epi64x(k_i as i64), w_i);
            let temp1 = _mm256_add_epi64(_mm256_add_epi64(h, s1), _mm256_add_epi64(ch, kw));
            let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 28), rotr!(a, 34)), rotr!(a, 39));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let temp2 = _mm256_add_epi64(s0, maj);
            v = [
                _mm256_add_epi64(temp1, temp2),
                a,
                b,
                c,
                _mm256_add_epi64(d, temp1),
                e,
                f,
                g,
            ];
        }
        for (r, (row, row0)) in v.iter().zip(&init).enumerate() {
            let mut lanes = [0u64; LANES];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), _mm256_add_epi64(*row0, *row));
            for (l, lane) in lanes.iter().enumerate() {
                states[l][r] = *lane;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha512::{Digest, Sha512};

    /// Deterministic xorshift64* fuzz source.
    struct Fuzz(u64);

    impl Fuzz {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn fill(&mut self, out: &mut [u8]) {
            for b in out {
                *b = self.next() as u8;
            }
        }
    }

    fn states_and_blocks(n: usize) -> (Vec<[u64; 8]>, Vec<[u8; 128]>) {
        let states = vec![crate::sha512::initial_state(); n];
        let blocks: Vec<[u8; 128]> = (0..n)
            .map(|i| {
                let mut b = [0u8; 128];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = (i * 37 + j * 11 + 5) as u8;
                }
                b
            })
            .collect();
        (states, blocks)
    }

    #[test]
    fn all_backends_compress_identically() {
        for n in [0usize, 1, 3, 4, 5, 8, 13] {
            let (base_states, blocks) = states_and_blocks(n);
            let refs: Vec<&[u8; 128]> = blocks.iter().collect();
            let mut results = Vec::new();
            for backend in CryptoBackend::ALL {
                let mut states = base_states.clone();
                backend.compress_batch(&mut states, &refs);
                results.push(states);
            }
            assert_eq!(results[0], results[1], "scalar vs native, n={n}");
        }
    }

    #[test]
    fn batch_of_one_matches_one_shot_digest() {
        // A single padded block compressed through the batch API must be
        // the digest of the unpadded message.
        let msg = [0xC3u8; 64];
        let mut tail = [0u8; 128];
        crate::sha512::write_padded_tail(&msg, 0, &mut tail);
        let mut states = vec![crate::sha512::initial_state()];
        CryptoBackend::Native.compress_batch(&mut states, &[&tail]);
        let mut out = [0u8; 64];
        for (i, word) in states[0].iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&word.to_be_bytes());
        }
        assert_eq!(Digest(out), Sha512::digest(&msg));
    }

    #[test]
    fn all_backends_cipher_identically() {
        let aes = Aes::new_192(&[0x3C; 24]);
        let base: Vec<[u8; 16]> = (0..9u8)
            .map(|i| {
                let mut b = [0u8; 16];
                for (j, byte) in b.iter_mut().enumerate() {
                    *byte = i.wrapping_mul(29).wrapping_add(j as u8);
                }
                b
            })
            .collect();
        let mut results = Vec::new();
        for backend in CryptoBackend::ALL {
            let mut blocks = base.clone();
            backend.encrypt_batch(&aes, &mut blocks);
            results.push(blocks.clone());
            backend.decrypt_batch(&aes, &mut blocks);
            assert_eq!(blocks, base, "{backend} round trip");
        }
        assert_eq!(results[0], results[1]);
        // And the batch path agrees with the scalar single-block API.
        assert_eq!(results[0][0], aes.encrypt_block(&base[0]));
    }

    #[test]
    fn auto_is_the_native_kernel() {
        assert_eq!(CryptoBackend::auto(), CryptoBackend::Native);
        assert_eq!(CryptoBackend::default(), CryptoBackend::Native);
    }

    #[test]
    fn names_report_the_detected_kernels() {
        assert_eq!(CryptoBackend::Scalar.name(), "scalar");
        let expected = match (
            CryptoBackend::aes_ni_available(),
            CryptoBackend::simd_hash_available(),
        ) {
            (true, true) => "aesni+avx2",
            (true, false) => "aesni",
            (false, true) => "avx2",
            (false, false) => "portable",
        };
        assert_eq!(CryptoBackend::Native.name(), expected);
        for backend in CryptoBackend::ALL {
            assert_eq!(backend.to_string(), backend.name());
        }
    }

    #[test]
    #[should_panic(expected = "lane count mismatch")]
    fn mismatched_lanes_panic() {
        let (mut states, blocks) = states_and_blocks(2);
        let refs: Vec<&[u8; 128]> = blocks.iter().take(1).collect();
        CryptoBackend::Scalar.compress_batch(&mut states, &refs);
    }

    // The portable AES and `sha512::compress4` are the fallbacks runtime
    // detection selects on hosts without AES-NI/AVX2, so on hosts with
    // them they never run in production.  These pin each detected kernel
    // to its fallback on fuzzed inputs.

    #[test]
    fn aesni_kernel_matches_portable_aes_on_fuzzed_inputs() {
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            let mut fuzz = Fuzz(0xAE5_0001);
            for round in 0..48usize {
                let mut key = [0u8; 32];
                fuzz.fill(&mut key);
                let aes = match round % 3 {
                    0 => Aes::new_128(key[..16].try_into().expect("16 bytes")),
                    1 => Aes::new_192(key[..24].try_into().expect("24 bytes")),
                    _ => Aes::new_256(&key),
                };
                let mut plain = vec![[0u8; 16]; round % 11];
                for block in &mut plain {
                    fuzz.fill(block);
                }
                let mut blocks = plain.clone();
                assert!(aesni::try_encrypt_batch(&aes, &mut blocks));
                let portable: Vec<[u8; 16]> = plain.iter().map(|b| aes.encrypt_block(b)).collect();
                assert_eq!(blocks, portable, "encrypt, round {round}");
                let back: Vec<[u8; 16]> = blocks.iter().map(|b| aes.decrypt_block(b)).collect();
                assert_eq!(back, plain, "portable decrypt, round {round}");
                assert!(aesni::try_decrypt_batch(&aes, &mut blocks));
                assert_eq!(blocks, plain, "decrypt, round {round}");
            }
            return;
        }
        eprintln!("note: AES-NI absent on this host; aesni kernel check skipped");
    }

    #[test]
    fn avx2_kernel_matches_portable_compress4_on_fuzzed_inputs() {
        #[cfg(target_arch = "x86_64")]
        if sha512x4::available() {
            let mut fuzz = Fuzz(0x5A5_0004);
            for round in 0..64 {
                let mut states = [[0u64; 8]; LANES];
                for word in states.iter_mut().flatten() {
                    *word = fuzz.next();
                }
                let mut blocks = [[0u8; 128]; LANES];
                for block in &mut blocks {
                    fuzz.fill(block);
                }
                let lanes = [&blocks[0], &blocks[1], &blocks[2], &blocks[3]];
                let mut portable = states;
                sha512::compress4(&mut portable, lanes);
                let mut scalar = states;
                for (state, block) in scalar.iter_mut().zip(&blocks) {
                    sha512::compress_block(state, block);
                }
                assert_eq!(portable, scalar, "portable compress4, round {round}");
                assert!(sha512x4::try_compress4(&mut states, lanes));
                assert_eq!(states, portable, "avx2 compress4, round {round}");
            }
            return;
        }
        eprintln!("note: AVX2 absent on this host; sha512x4 kernel check skipped");
    }
}
