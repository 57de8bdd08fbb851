#!/usr/bin/env bash
# Repository CI gate: formatting, lints, docs, and the tier-1 verify
# (ROADMAP.md). Run from the repo root; fails fast on the first error.
#
# Flags:
#   --update-baseline   write the full-grid and service-scaling reports to
#                       the checked-in BENCH_grid.json / BENCH_serve.json
#                       (default: temp dir, tree stays clean)
set -euo pipefail
cd "$(dirname "$0")"

UPDATE_BASELINE=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) UPDATE_BASELINE=1 ;;
    *) echo "ci.sh: unknown flag '$arg'" >&2; exit 2 ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests (every member crate's unit and integration tests)"
# Tier-1 runs the root package only; this covers the member crates,
# including the secpb-crypto tests that pin each runtime-detected
# AES-NI/AVX2 kernel to its portable fallback.
cargo test -q --workspace

echo "==> reference-oracle suite (production == eager Scalar reference)"
# The eager metadata engine on the Scalar kernel is buildable only from
# secpb-core's own tests.  This lane pins the lazy engine and the native
# kernels runtime detection picks (AES-NI/AVX2 where the host has them,
# the portable fallbacks elsewhere) to it.
cargo test -q -p secpb-core --lib reference_tests

echo "==> backend-equivalence smoke (scalar == native on fuzzed digests)"
# The suite sweeps every kernel against the scalar reference on fuzzed
# digest batches, checks that the reported kernel name matches runtime
# ISA detection, and runs the arena stress test.
cargo test -q --test backend_equivalence

echo "==> crypto_micro regression guard (batched fold >= 2x scalar)"
# Fails if the native backend's batched HMAC fold is not at least 2x
# faster than the scalar backend; self-skips (with a notice) on hosts
# where the vectorized hash kernel is unavailable.
cargo bench -p secpb-bench --bench crypto_micro -- --check

echo "==> fault-injection storm smoke (crash storms, brown-outs, bit flips)"
# secpb storm exits nonzero on any panic, silent corruption, accounting
# mismatch, or undetected bit flip across all schemes, every front, and
# both drain policies, or if its brown-out pass loses nothing; --quick
# keeps this to a few seconds.
./target/release/secpb storm --quick

echo "==> grid determinism smoke (2 workloads x 2 schemes, serial vs parallel, telemetered)"
# secpb grid exits nonzero if the parallel grid diverges from the serial
# one; --smoke keeps this to a few seconds.  With --telemetry the serial
# pass runs with live rings attached, so the determinism gate also
# proves telemetry events observe without steering.
./target/release/secpb grid 50000 --jobs 4 --smoke --json /tmp/bench_grid_smoke_tel.json --telemetry
./target/release/secpb grid 50000 --jobs 4 --smoke --json /tmp/bench_grid_smoke.json
# Telemetry-on vs telemetry-off must produce byte-identical reports once
# host-timing and ring-accounting fields are stripped: every simulated
# number (cycles, ipc, recovery verdicts, recovery_cycles) is unchanged.
normalize_grid() {
  grep -vE '"(serial_seconds|parallel_seconds|speedup|serial_instructions_per_second|parallel_instructions_per_second|serial_ns_per_store|ns_per_store|telemetry|telemetry_events|telemetry_dropped)"' "$1"
}
if ! diff <(normalize_grid /tmp/bench_grid_smoke.json) <(normalize_grid /tmp/bench_grid_smoke_tel.json); then
  echo "ci.sh: telemetry-on grid diverged from telemetry-off" >&2
  exit 1
fi
rm -f /tmp/bench_grid_smoke.json /tmp/bench_grid_smoke_tel.json

echo "==> grid parallel-determinism pin (--validate-parallel on every CI run)"
# --validate-parallel pins the parallel pass to 2 workers so even a
# 1-core CI host proves the serial/parallel byte-identity contract; the
# report must record that the check ran.
./target/release/secpb grid 50000 --smoke --validate-parallel --json /tmp/bench_grid_smoke_vp.json
grep -q '"parallel_determinism_validated": true' /tmp/bench_grid_smoke_vp.json \
  || { echo "ci.sh: grid smoke did not validate parallel determinism" >&2; exit 1; }
rm -f /tmp/bench_grid_smoke_vp.json

echo "==> sharded service smoke (secpb serve --quick)"
# The serve command itself exits nonzero on zero drained stores, any
# model-invariant anomaly, a QoS-violation counter > 0, or an
# inconsistent recovery sweep; assert the healthy lines anyway so a
# silent output regression cannot slip through.
SERVE_OUT=$(./target/release/secpb serve --quick)
echo "$SERVE_OUT" | grep -q '^anomalies       0$' || { echo "ci.sh: serve reported anomalies" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^qos violations  0$' || { echo "ci.sh: serve reported QoS violations" >&2; exit 1; }
echo "$SERVE_OUT" | grep -q '^consistent      true$' || { echo "ci.sh: serve recovery inconsistent" >&2; exit 1; }
echo "$SERVE_OUT" | grep -Eq '^stores drained  [1-9]' || { echo "ci.sh: serve drained zero stores" >&2; exit 1; }

echo "==> checkpoint restore+replay byte-identity gate (tests/checkpoint_replay.rs)"
# Restoring a checkpoint at epoch N and replaying N..M must be
# byte-identical to the uninterrupted run for every scheme and tree
# organisation — the contract shard crash-recovery and the soak's
# restart storms build on.
cargo test --release -q --test checkpoint_replay

echo "==> scheme byte-identity + persistence-policy gate (tests/scheme_equivalence.rs)"
# Pins the refactor's byte-identity contract: the 8 named schemes are
# one instantiation of the PersistencePolicy layer (round-trip +
# 32-combination legality sweep), the Triad/fast-recovery layouts
# never perturb a timing metric, and the baseline recovery accounting
# reproduces the historical root-only formula exactly.
cargo test --release -q --test scheme_equivalence
cargo test --release -q -p secpb-core --lib policy::

echo "==> recovery-latency sweep smoke (secpb recover-sweep --quick)"
# recover-sweep exits nonzero if any policy point recovers inconsistent
# or the write-amp vs recovery-latency curve loses its pinned monotone
# ordering (fastrec <= triad-full <= nogap <= cobcm); assert the
# verdict line anyway.  The same curve is embedded in BENCH_grid.json
# as recovery_curve by the full grid run below.
SWEEP_OUT=$(./target/release/secpb recover-sweep --quick)
echo "$SWEEP_OUT" | grep -q 'curve monotone' || { echo "ci.sh: recovery sweep curve not monotone" >&2; exit 1; }

echo "==> trace ingest truncation fuzz (tests/trace_io_fuzz.rs)"
# Every truncation point and seeded corruption of an SPB1 stream must
# fail with the item index and byte offset — never a panic or a
# silently short trace.
cargo test --release -q --test trace_io_fuzz

echo "==> fault-tolerance soak smoke (secpb soak --quick)"
# The soak exits nonzero unless it converged: crashes actually fired
# and were recovered, restored shards digest-identical to a crash-free
# reference, shed counts crash-invariant, restart storm byte-identical,
# zero anomalies, zero QoS violations.  Assert the verdict lines anyway.
SOAK_OUT=$(./target/release/secpb soak --quick)
echo "$SOAK_OUT" | grep -q 'match crash-free reference' || { echo "ci.sh: soak shard digests diverged" >&2; exit 1; }
echo "$SOAK_OUT" | grep -q 'byte-identical' || { echo "ci.sh: soak restart storm diverged" >&2; exit 1; }
echo "$SOAK_OUT" | grep -q '^converged         true$' || { echo "ci.sh: soak did not converge" >&2; exit 1; }

# The long-horizon storm (100+ injected mid-epoch shard crashes) is
# opt-in: SECPB_SOAK=1 ./ci.sh
if [ "${SECPB_SOAK:-0}" = "1" ]; then
  echo "==> full fault-tolerance soak (SECPB_SOAK=1, 100+ crashes)"
  ./target/release/secpb soak
fi

echo "==> service scaling + determinism smoke (secpb serve-bench --smoke)"
# serve-bench exits nonzero if any shard outcome diverges from a solo
# re-run of its tenants (the shard-determinism contract) or, where the
# host has the cores to make wall-clock ratios meaningful, if aggregate
# stores/sec degrades as shards are added.  Validate the report fields
# the baseline depends on either way.
./target/release/secpb serve-bench --smoke --json /tmp/bench_serve_smoke.json
grep -q '"determinism_validated": true' /tmp/bench_serve_smoke.json \
  || { echo "ci.sh: serve-bench did not validate shard determinism" >&2; exit 1; }
grep -q '"scaling_valid":' /tmp/bench_serve_smoke.json \
  || { echo "ci.sh: serve-bench report missing scaling_valid" >&2; exit 1; }
grep -q '"aggregate_stores_per_sec":' /tmp/bench_serve_smoke.json \
  || { echo "ci.sh: serve-bench report missing throughput fields" >&2; exit 1; }
if grep -q '"scaling_valid": true' /tmp/bench_serve_smoke.json; then
  grep -q '"monotone_throughput": true' /tmp/bench_serve_smoke.json \
    || { echo "ci.sh: serve-bench throughput degraded with shard count" >&2; exit 1; }
fi
rm -f /tmp/bench_serve_smoke.json

echo "==> live telemetry watch smoke (storm cell, snapshots + zero anomalies)"
# secpb watch exits nonzero if it streams no snapshots, observes any
# model-invariant anomaly, or a storm-mode recovery is inconsistent.
WATCH_OUT=$(./target/release/secpb watch gamess cobcm --quick)
echo "$WATCH_OUT" | grep -q '"seq":1' || { echo "ci.sh: watch streamed no snapshots" >&2; exit 1; }
echo "$WATCH_OUT" | grep -q '^anomalies    0$' || { echo "ci.sh: watch reported anomalies" >&2; exit 1; }

if [ "$UPDATE_BASELINE" = 1 ]; then
  echo "==> regenerate BENCH_grid.json (full grid wall-clock baseline)"
  ./target/release/secpb grid 200000 --jobs 4 --update-baseline
  echo "==> regenerate BENCH_serve.json (service scaling baseline)"
  ./target/release/secpb serve-bench --update-baseline
else
  echo "==> full grid run (temp output; --update-baseline refreshes BENCH_grid.json)"
  ./target/release/secpb grid 200000 --jobs 4
fi

echo "CI OK"
