#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — exactly what a reviewer runs.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> fixed-point kernels: intrinsics feature gate"
# The AVX2 kernels must build everywhere and be bit-identical to the
# portable fallback wherever the host can actually run them (the tests
# runtime-detect AVX2 and skip the comparison on hosts without it).
cargo test -q -p sd-math -p sd-core --features simd-intrinsics

echo "==> quantized BER gate (release)"
# The degradation bound that licenses the served fixed-point rungs, at the
# paper's 16x16/16-QAM point with 600 frames per SNR point: k-best-fx
# (QuantizedKBestSd at the ladder's K) against the float K-best at the same
# K, and the FSD sweep behind fsd-fx-linf (QuantizedFsd, one full-expansion
# level, in the l2 metric both arithmetics share) against the float FSD.
# Each must cost <= MAX_QUANT_DEGRADATION_DB (0.2 dB) at BER 1e-2 on the
# same frames. Debug-ignored for speed; the 8x8 grids run in `cargo test`.
cargo test -q --release --test quantized -- --ignored

echo "==> exact DFS bit-identity (release)"
# The stock exact rung is the sorted DFS on a sorted-QR
# (ColumnOrdering::Sorted) preparation. It must return the seed
# recursion's bits on that same problem, as on the paper's natural-order
# one: indices, every DetectionStats field, metric bits, traced or not, in
# the release codegen the benchmark measures (the lane kernel vectorizes
# there). Its decisions must equal the natural order's (both are ML), and
# the sorted QR must be the natural QR of the permuted channel, bit for
# bit, through the fused, split and block preparations.
cargo test -q --release --test bit_identity --test arena_vs_reference \
  --test parallel_exactness
cargo test -q --release --test telemetry traced_decode_equals_untraced
cargo test -q --release --test extensions ordering_never_changes_the_answer
cargo test -q --release -p sd-core --lib preprocess
cargo test -q --release -p sd-math --lib sorted_qr

echo "==> parallel determinism stress (SD_STRESS_ITERS=200)"
# The subtree-parallel decoder must return bit-identical answers on every
# run regardless of thread interleaving; hammer it at full hardware
# parallelism long enough for scheduling races to surface.
SD_STRESS_ITERS=200 cargo test -q --release --test parallel_exactness \
  repeated_parallel_decodes_are_deterministic

echo "==> served exactness (release)"
# Every tier's served decisions must equal a direct decode of the same
# engine, bit for bit, in the release codegen the benchmark measures:
# single vectors, runs of consecutive vectors on one channel (served as
# one block) interleaved with fresh channels and frames under every
# topology and ladder mode, and the requests admission must refuse as
# malformed without losing a worker.
cargo test -q --release --test serve_exactness
cargo test -q --release --test alloc_free served_runs

echo "==> frame-path exactness"
# Whole-frame submission must be bit-identical to per-vector submission
# through every registry tier, including under overload/shedding; a
# one-subcarrier frame must match a vector counter for counter, and
# frames sharing a channel must hit the prep cache.
cargo test -q --test serve_frames

echo "==> shard matrix (SD_SHARDS in 1 2 4)"
# The sharded runtime must be bit-identical to the single-queue runtime
# at every topology the config space allows: one shard (the classic
# runtime), two (the default under test), and four (more shards than
# this container has cores, so stealing and round-robin worker dealing
# are both exercised hard).
for s in 1 2 4; do
  SD_SHARDS=$s cargo test -q --release --test serve_shards
done

echo "==> sharded determinism stress (SD_STRESS_ITERS=25)"
# Steals land on different workers run to run; the served bits must not.
SD_STRESS_ITERS=25 cargo test -q --release --test serve_shards \
  repeated_sharded_runs_are_deterministic

echo "==> fused block decode exactness"
# The cross-subcarrier fused decode (one GEMM batch per tree level for a
# whole coherence block) must be bit-identical per subcarrier to the
# per-subcarrier loop and to per-vector decoding — across the stock and
# quantized fusable tiers, for degenerate blocks, and with budgets
# tripped and untripped — and exactly allocation-free in steady state.
# The fixed-point K-best and FSD sweeps, scalar and fused, must also
# return their plain oracles' bits (reference::fx_kbest_reference,
# fx_fsd_reference) in the release codegen the benchmark measures.
cargo test -q --release --test block_fused
cargo test -q --release --test quantized fixed_point_sweeps_match_the_reference
cargo test -q --release --test alloc_free fused_block_decode
cargo test -q --release --test alloc_free served_frames

echo "==> anytime exactness + truncation + predictive admission"
# An unexhausted decode budget must change *nothing*: served decisions
# bit-identical to the unbudgeted engine, every quality flag exact. An
# exhausted one must truncate deterministically with the counters
# closing (quality_exact + budget_exhausted == served). The predictive
# admission gate must shed exactly the doomed requests (PredictedLate)
# and count them in the snapshot, for vectors and frames both.
cargo test -q --test serve_anytime

echo "==> serve_demo --smoke"
# End-to-end smoke: tiny per-vector run, a frame loadgen pass, an
# expired-deadline anytime pass, and a frozen-backlog predictive
# admission pass, each rendering the Prometheus + JSON export surfaces
# and self-validating the JSON line — including the quality-counter and
# predictive-shed rows — (non-zero on failure).
cargo run --release --example serve_demo -- --smoke >/dev/null

echo "==> sdbench --smoke"
# The repository benchmark end to end on every workload for about 2 s
# each, with every check on: workload sanity gate, served decisions
# against the replay, BER and drain checks (non-zero on any failure).
cargo run --release -p sd-bench --bin sdbench -- --smoke >/dev/null

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run"
# Compile (but don't execute) every Criterion bench so the harness can't
# bit-rot between full bench runs.
cargo bench --workspace --no-run

echo "==> cargo doc --no-deps"
# Broken intra-doc links are rustdoc warnings; promote them to errors.
# The compat/* shims are vendored stand-ins, not product docs — skip them.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude criterion --exclude proptest --exclude rand --exclude rayon \
  --exclude serde --exclude serde_derive

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "ci: all green"
