#!/usr/bin/env bash
# CI gate: formatting, lints, build, tests. Run from the repo root.
#
# Everything builds offline: external dependencies resolve to the stub
# crates under vendor/ (see CHANGES.md for why).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (tier-1: root package) =="
cargo test -q

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== bench-tests (repository benchmark workloads, tiny sizes) =="
# perfbench is a standalone package (its own workspace), so the workspace
# test run above skips it. Its tests run the tiny solve/serve/graph
# workloads with every output checked: a planner or service change that
# breaks a workload fails here, not only in the benchmark pipeline.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "== fault-smoke (scripted fault recovery matrix) =="
# Deterministic injected panics/stalls/deaths/corruption through both
# parallel layers; every recovery must be bit-identical to serial.
# RUST_BACKTRACE is pinned off: symbolizing a backtrace for every
# injected panic slows the drills against their 40 ms deadlines (a panic
# whose hook outlasts the deadline is still reported as a panic; see
# crates/parallel/tests/slow_panic_hook.rs).
RUST_BACKTRACE=0 cargo test -q -p spmv-parallel --features fault-injection

echo "== asan (AddressSanitizer over the unsafe executor core) =="
# The core, parallel and service suites, fault drills included, plus the
# four *_equivalence suites, on a nightly AddressSanitizer build: the
# AVX2 kernels, the chunk executors' disjoint writes (the pool path
# through DisjointSlices, the supervised output panels), the pool's
# borrowed jobs and the SpMSpV scatter are unsafe code. Doctests are
# instrumented too, and the instrumented build keeps its own target dir.
# RUST_BACKTRACE is pinned off: symbolizing a panic backtrace under ASan
# slows the fault drills against their 40 ms deadlines.
asan() {
    RUST_BACKTRACE=0 RUSTFLAGS=-Zsanitizer=address RUSTDOCFLAGS=-Zsanitizer=address \
        CARGO_TARGET_DIR=target/asan \
        cargo +nightly test -q --target x86_64-unknown-linux-gnu "$@"
}
asan -p spmv-parallel -p spmv-service --features fault-injection
asan -p spmv-core --lib
asan --test format_equivalence --test simd_equivalence --test spmm_equivalence \
    --test spmspv_equivalence

echo "== tier-1 under a 5 ms watchdog deadline =="
# An aggressively low deadline forces spurious stall triage on this
# single-CPU host; it may only cause (correct) serial recovery — any
# wrong result or error fails the gate.
SPMV_WATCHDOG_MS=5 cargo test -q --test fault_tolerance

echo "== bench-smoke (BENCH.json emission + schema gate) =="
# Emit a tiny-but-real benchmark artifact (its parallel records carry
# per-worker telemetry) and re-validate it through the independent jsonv
# reader; a schema drift or a non-finite metric fails the gate.
cargo run -q --release -p spmv-bench --bin reproduce -- \
    --scale 0.002 --iters 6 --out target/bench-smoke bench
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/bench-smoke/BENCH.json

echo "== spmm-smoke (multi-vector kernel differential matrix + k records) =="
# The SpMM differential matrix (formats x k x threads, ULP-compared per
# column) plus a tiny k=4 bench run whose artifact must carry k and
# per-vector bandwidth fields and re-validate through check-bench.
cargo test -q --test spmm_equivalence
cargo test -q --test proptest_spmm
cargo run -q --release -p spmv-bench --bin reproduce -- \
    --scale 0.002 --iters 4 --k 4 --out target/spmm-smoke bench
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/spmm-smoke/BENCH.json

echo "== simd-smoke (cross-ISA bit-identity + roofline artifact) =="
# The SIMD differential matrix (formats x k x threads, bit-compared) must
# hold with the dispatcher forced to scalar and left on auto-detect; then
# a tiny --isa auto bench artifact must carry finite roofline fields and
# a recognized kernel_isa, re-validated through check-bench.
SPMV_ISA=scalar cargo test -q --test simd_equivalence
SPMV_ISA=auto cargo test -q --test simd_equivalence
cargo run -q --release -p spmv-bench --bin reproduce -- \
    --scale 0.002 --iters 4 --isa auto --out target/simd-smoke bench
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/simd-smoke/BENCH.json

echo "== service-smoke (overload-safe serving layer) =="
# The serving layer's own matrix, with and without fault injection:
# admission control, tenant quotas, deadline budgets, batch coalescing,
# retry/breaker behavior, and the chaos-under-load suite across thread
# counts {1,2,4,7}.
cargo test -q -p spmv-service
cargo test -q -p spmv-service --features fault-injection
# Drive the load generator briefly above saturation with a short
# deadline. The gate requires: nonzero sheds (admission control actually
# rejected load), bounded wall-clock (timeout; a hang fails the gate),
# and a schema-valid BENCH.json service section re-validated through the
# independent jsonv reader.
timeout 300 cargo run -q --release -p spmv-bench --bin loadgen -- \
    --duration 2 --deadline-ms 25 --queue-capacity 8 --clients 32 \
    --load-factor 2 --require-shed --out target/service-smoke
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/service-smoke/BENCH.json

echo "== shard-chaos (self-healing sharded dispatch) =="
# Supervision drills against the live service: every dispatcher shard is
# killed or stalled under concurrent mixed-tenant load and zero requests
# may be lost (bit-identical results or allowed typed errors only), plus
# the hot register/evict lifecycle and the shard-breaker serial fallback.
cargo test -q -p spmv-service --test shard_chaos
# Then the load generator as a supervision drill: 4 shards, a killer
# thread murdering them round-robin, deterministic worker faults armed
# underneath, and the schema-v5 artifact — whose per-shard counter
# mirrors must sum exactly to the globals — re-validated through the
# independent jsonv reader.
timeout 300 cargo run -q --release -p spmv-bench --features fault-injection --bin loadgen -- \
    --duration 2 --deadline-ms 25 --queue-capacity 8 --clients 32 \
    --shards 4 --kill-shard --inject-faults --load-factor 2 \
    --out target/shard-chaos
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/shard-chaos/BENCH.json

echo "== plan-smoke (adaptive planner + fingerprint-keyed plan cache) =="
# Two planner-driven runs against the same --out, planning with the LLC
# unknown (the streamed bandwidth-model regime): the cold run analyzes
# every M0 matrix, encodes its candidate formats, measures the chosen
# cell and persists the plan cache; the warm run must serve every
# decision from that cache — zero misses, zero new encodes (checked on
# the stable plan-cache counter line) — and its schema-v6 artifact must
# re-validate through the independent reader. The stage thus covers
# encode -> persist -> warm replay end to end.
rm -rf target/plan-smoke
cargo run -q --release -p spmv-bench --bin reproduce -- \
    --scale 0.002 --iters 2 --out target/plan-smoke plan
warm_out=$(cargo run -q --release -p spmv-bench --bin reproduce -- \
    --scale 0.002 --iters 2 --out target/plan-smoke plan)
echo "$warm_out" | grep "^plan-cache: " | grep -q " misses=0 " \
    || { echo "plan-smoke: warm run was not all cache hits"; \
         echo "$warm_out" | grep "^plan-cache: "; exit 1; }
echo "$warm_out" | grep "^plan-cache: " | grep -q " encodes=0 " \
    || { echo "plan-smoke: warm run re-encoded"; \
         echo "$warm_out" | grep "^plan-cache: "; exit 1; }
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/plan-smoke/BENCH.json

echo "== graph-smoke (SpMSpV drivers + differential matrix) =="
# The SpMSpV differential matrix (densities x paths x threads, 0-ULP
# against the densify-then-SpMV baseline), the property suites (bucket
# == scatter, parallel == serial, BFS level-set identity, CSC
# round-trips), the PageRank determinism regression, then a short
# BFS/PageRank run over the small power-law corpus whose schema-v7
# artifact — bit-identity checked inside the run itself — must
# re-validate through the independent jsonv reader.
cargo test -q --test spmspv_equivalence
cargo test -q --test proptest_spmspv
cargo test -q --test graph_determinism
timeout 300 cargo run -q --release -p spmv-bench --bin reproduce -- \
    --scale 0.002 --iters 3 --out target/graph-smoke graph
cargo run -q --release -p spmv-bench --bin reproduce -- \
    check-bench target/graph-smoke/BENCH.json

echo "== fuzz-smoke (deterministic, fixed seed) =="
# 12k mutated inputs per parser (io container, MatrixMarket, ctl stream);
# any panic fails the gate. Reproducible: same seed -> same inputs.
cargo run -q --release -p spmv-fuzz -- --seed 3203334144 --iters 12000

echo "== proptest-rotated (property suites under a fresh seed) =="
# Every other stage runs the property suites on their fixed, name-derived
# seeds. This one mixes a new seed into all of them (the vendored stub
# reads PROPTEST_SEED), so each CI run explores fresh inputs. A failing
# case prints the seed; pin it as a regression test before fixing.
# Export PROPTEST_SEED to replay a given run.
seed=${PROPTEST_SEED:-$(( $(date +%s) ^ $$ ))}
echo "PROPTEST_SEED=$seed"
PROPTEST_SEED=$seed cargo test -q --test proptest_formats --test proptest_io \
    --test proptest_spmm --test proptest_spmspv --test proptest_structures

echo "CI gate passed."
