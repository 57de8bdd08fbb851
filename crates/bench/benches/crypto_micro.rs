//! Microbenchmarks for the cryptographic substrate: the host-side cost
//! of the operations the simulator models at 40 cycles (AES, MAC) and
//! 320 cycles (BMT walk), and the batched fold dispatches per backend.
//!
//! `cargo bench -p secpb-bench --bench crypto_micro -- --check` is the
//! CI regression guard: it exits non-zero unless the native backend's
//! batched HMAC fold is at least 2x faster than the scalar backend on the BMT
//! sibling-group shape (the speedup the batched fold rewrite exists to
//! deliver).

use std::collections::BTreeMap;
use std::process::ExitCode;

use secpb_bench::micro::{bench, black_box};
use secpb_crypto::aes::Aes;
use secpb_crypto::backend::CryptoBackend;
use secpb_crypto::bmt::BonsaiMerkleTree;
use secpb_crypto::counter::{CounterBlock, SplitCounter};
use secpb_crypto::hmac::HmacSha512;
use secpb_crypto::mac::BlockMac;
use secpb_crypto::memo::DigestMemo;
use secpb_crypto::otp::OtpEngine;
use secpb_crypto::sha512::Sha512;

fn bench_aes() {
    let aes = Aes::new_192(&[7u8; 24]);
    let block = [0x5Au8; 16];
    bench("aes192_encrypt_block", || {
        aes.encrypt_block(black_box(&block))
    });
    let ct = aes.encrypt_block(&block);
    bench("aes192_decrypt_block", || aes.decrypt_block(black_box(&ct)));
}

fn bench_sha512() {
    let data = vec![0xA5u8; 64];
    bench("sha512_64B", || Sha512::digest(black_box(&data)));
    let big = vec![0xA5u8; 4096];
    bench("sha512_4KB", || Sha512::digest(black_box(&big)));
}

fn bench_hmac_and_mac() {
    let hmac = HmacSha512::new(b"bench-key");
    let data = [0x11u8; 64];
    bench("hmac_sha512_64B", || hmac.compute(black_box(&data)));

    let mac = BlockMac::new(b"bench-key");
    let ctr = SplitCounter { major: 3, minor: 9 };
    bench("block_mac_compute", || {
        mac.compute(black_box(&data), black_box(0x40), ctr)
    });
}

fn bench_otp() {
    let engine = OtpEngine::new(&[9u8; 24]);
    let ctr = SplitCounter { major: 1, minor: 2 };
    let data = [0x42u8; 64];
    bench("otp_generate_64B", || engine.generate(black_box(1234), ctr));
    bench("otp_encrypt_64B", || {
        engine.encrypt(black_box(&data), black_box(1234), ctr)
    });
}

fn bench_bmt() {
    let mut tree = BonsaiMerkleTree::new(b"bench", 8, 8);
    let digest = Sha512::digest(b"leaf");
    let mut i = 0u64;
    bench("bmt8_update_leaf", || {
        i = (i + 1) % 4096;
        tree.update_leaf(black_box(i), digest)
    });

    let mut tree = BonsaiMerkleTree::new(b"bench", 8, 8);
    tree.update_leaf(42, digest);
    bench("bmt8_prove_and_verify", || {
        let proof = tree.prove(black_box(42));
        tree.verify_proof(&proof, digest)
    });
}

/// Lazy vs eager metadata engine: N coalescing `update_leaf` calls plus
/// the observation-point fold, against the same N calls folded eagerly.
fn bench_lazy_bmt() {
    const UPDATES: u64 = 64;
    let digest = Sha512::digest(b"leaf");

    let mut eager = BonsaiMerkleTree::new(b"bench", 8, 8);
    bench("bmt8_eager_64_updates", || {
        for i in 0..UPDATES {
            eager.update_leaf(black_box(i % 8), digest);
        }
        eager.root()
    });

    let mut lazy = BonsaiMerkleTree::new(b"bench", 8, 8);
    lazy.set_lazy(true);
    bench("bmt8_lazy_64_updates_fold", || {
        for i in 0..UPDATES {
            lazy.update_leaf(black_box(i % 8), digest);
        }
        lazy.fold();
        lazy.root()
    });
}

/// Pad-cache hit vs miss vs uncached generation, plus the counter-block
/// digest memo — the memoization layer on the simulated-store hot path.
fn bench_memo() {
    let ctr = SplitCounter { major: 4, minor: 7 };

    let uncached = OtpEngine::new(&[9u8; 24]);
    bench("otp_generate_uncached", || {
        uncached.generate(black_box(0x40), ctr)
    });

    let cached = OtpEngine::with_pad_cache(&[9u8; 24], 4096);
    cached.generate(0x40, ctr); // warm the single hot entry
    bench("otp_generate_cache_hit", || {
        cached.generate(black_box(0x40), ctr)
    });

    let mut addr = 0u64;
    bench("otp_generate_cache_miss", || {
        addr += 0x40;
        cached.generate(black_box(addr), ctr)
    });

    let memo = DigestMemo::new(4096);
    let block = [0x3Cu8; 64];
    memo.digest(7, &block);
    bench("digest_memo_hit", || memo.digest(black_box(7), &block));
    let mut key = 0u64;
    bench("digest_memo_miss", || {
        key += 1;
        memo.digest(black_box(key), &block)
    });
}

fn bench_counters() {
    let mut cb = CounterBlock::new();
    for i in 0..64 {
        for _ in 0..(i % 11) {
            cb.increment(i);
        }
    }
    bench("counter_block_pack_unpack", || {
        CounterBlock::from_bytes(black_box(&cb.to_bytes()))
    });
}

/// The batched dispatches on every backend: the BMT sibling-group HMAC
/// fold, a whole-tree fold, OTP generation, and the recovery-sweep MAC
/// batch.  Returns the HMAC fold's ns per 8-message batch by backend.
fn bench_backends() -> BTreeMap<&'static str, f64> {
    // One 8-ary node hash is a 512-byte message; a fold level dispatches
    // many of them at once.
    const LANES: usize = 8;
    const NODE: usize = 512;
    let hmac = HmacSha512::new(b"bench-key");
    let mut flat = vec![0u8; LANES * NODE];
    for (i, b) in flat.iter_mut().enumerate() {
        *b = (i * 31 % 251) as u8;
    }
    let mut fold_ns = BTreeMap::new();
    for backend in CryptoBackend::ALL {
        let mut out = Vec::with_capacity(LANES);
        let mut i = 0u8;
        let ns = bench(&format!("hmac_fold_8x512B[{}]", backend.name()), || {
            i = i.wrapping_add(1);
            flat[0] = i;
            out.clear();
            hmac.compute_batch(&backend, &flat, NODE, &mut out);
            out.len()
        });
        fold_ns.insert(backend.name(), ns);
    }

    // Whole-tree fold: dirty-path batching end to end.
    for backend in CryptoBackend::ALL {
        let mut i = 0u8;
        bench(&format!("bmt_fold_64leaves[{}]", backend.name()), || {
            i = i.wrapping_add(1);
            let mut t = BonsaiMerkleTree::new(b"k", 8, 4);
            t.set_backend(backend);
            t.set_lazy(true);
            for leaf in 0..64u64 {
                t.update_leaf(leaf * 61 % 4096, Sha512::digest(&[leaf as u8, i]));
            }
            t.fold()
        });
    }

    for backend in CryptoBackend::ALL {
        let mut engine = OtpEngine::new(&[7u8; 24]);
        engine.set_backend(backend);
        let mut addr = 0u64;
        bench(&format!("otp_generate[{}]", backend.name()), || {
            addr += 1;
            engine.generate_uncached(addr, SplitCounter { major: 1, minor: 2 })
        });
    }

    // Recovery-sweep shape: 256 block MACs in one batch.
    let blocks: Vec<([u8; 64], u64, SplitCounter)> = (0..256u64)
        .map(|i| ([i as u8; 64], i, SplitCounter { major: 1, minor: 1 }))
        .collect();
    let refs: Vec<(&[u8; 64], u64, SplitCounter)> =
        blocks.iter().map(|(b, a, c)| (b, *a, *c)).collect();
    for backend in CryptoBackend::ALL {
        let mut mac = BlockMac::new(b"mac-key");
        mac.set_backend(backend);
        let mut tags = Vec::with_capacity(refs.len());
        bench(&format!("mac_sweep_256[{}]", backend.name()), || {
            tags.clear();
            mac.compute_truncated_batch(&refs, &mut tags);
            tags.len()
        });
    }
    fold_ns
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    println!("crypto kernel: {}", CryptoBackend::auto().name());
    bench_aes();
    bench_sha512();
    bench_hmac_and_mac();
    bench_otp();
    bench_bmt();
    bench_lazy_bmt();
    bench_memo();
    bench_counters();
    let fold_ns = bench_backends();

    let scalar = fold_ns["scalar"];
    let batched = fold_ns[CryptoBackend::auto().name()];
    let speedup = scalar / batched;
    println!("batched fold speedup vs scalar: {speedup:.2}x");
    if !check {
        return ExitCode::SUCCESS;
    }
    // Without the vectorized kernel (no AVX2 on this host) batching is an equivalence feature, not a speedup — there is
    // nothing to guard, so skip rather than fail.
    if !CryptoBackend::simd_hash_available() {
        println!(
            "check skipped: vectorized hash kernel unavailable \
             (needs an AVX2 host)"
        );
    } else if speedup < 2.0 {
        eprintln!("FAIL: batched fold must be >= 2x faster than scalar (got {speedup:.2}x)");
        return ExitCode::FAILURE;
    } else {
        println!("check ok: batched fold >= 2x scalar");
    }
    ExitCode::SUCCESS
}
