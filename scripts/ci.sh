#!/usr/bin/env bash
# The repository's CI gate: hermetic (offline) build + full test suite +
# formatting + lints. Must pass from a clean checkout with no network and no
# cargo registry cache — the default dependency graph is workspace
# crates only (see DESIGN.md §8, "Hermetic build & determinism").
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> cargo fmt --check"
cargo fmt --check

# Every clippy warning fails this step. A lint whose fix would rewrite a
# hot loop carries a targeted `#[allow(...)]` with a one-line reason.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Every rustdoc warning fails this step too: a doc link to a renamed,
# deleted or private item, or an unescaped citation like `\[7\]`.
echo "==> cargo doc --no-deps --workspace (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

# Arithmetic that only misbehaves when it wraps must fail loudly: rerun
# the numeric crates' tests with overflow checks forced on (release
# builds default them off).
echo "==> overflow-checks test pass (core, sim, stats)"
RUSTFLAGS="-C overflow-checks=on" \
    cargo test -q --offline -p hms-core -p hms-sim -p hms-stats

# Chaos gate: the seed-replayable connection-fault matrix AND the
# resource-fault storm (disk ENOSPC/torn-write/bit-rot/rename, pool
# stalls, clock skew — DESIGN.md §11, §15), pinned to three fixed seeds
# so CI failures reproduce locally with the printed HMS_CHAOS_SEED
# line. The storm asserts zero 5xx for in-quota /v1/search (exact or
# degraded:true with a sound gap bound) and monotone ladder recovery.
echo "==> chaos gate (3 pinned seeds, connection + resource faults)"
for seed in 12689413 271828 9221; do
    echo "    HMS_CHAOS_SEED=$seed"
    HMS_CHAOS_SEED="$seed" cargo test -q --offline --test chaos
done

# Bit-identity net with optimizations on: the release-mode equivalence
# pass replays the columnar/engine/skeleton property suites under three
# pinned seeds, so float-contraction or UB that only appears with
# optimizations cannot slip through, and any failure reproduces locally
# from the printed HMS_PROPTEST_SEED line (see DESIGN.md §12).
echo "==> release equivalence net (3 pinned seeds)"
for seed in 7 170831 948276; do
    echo "    HMS_PROPTEST_SEED=$seed"
    HMS_PROPTEST_SEED="$seed" HMS_PROPTEST_CASES=24 cargo test -q --offline --release \
        --test trace_properties --test engine_equivalence --test skeleton_cache
done

# perfbench (the repository's benchmark, BENCHMARK.json) is a workspace
# of its own, so the root build and tests above never compile it. Its
# unit tests build it against the crates' current public API.
echo "==> perfbench unit tests"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The bench gates below compare a fresh run, written by each bin to
# target/bench/BENCH_*.json, against the committed BENCH_*.json baseline
# at the repository root; a run never rewrites its own baseline.
echo "==> search micro-benchmark (BENCH_search.json)"
bench_num() {
    sed -n 's/^ *"'"$2"'": *\([0-9.eE+-]*\),*$/\1/p' "$1"
}
baseline_cps="$(bench_num BENCH_search.json engine_candidates_per_sec)"
baseline_batch_cps="$(bench_num BENCH_search.json batch_candidates_per_sec)"
[ -n "$baseline_cps" ] || { echo "no committed BENCH_search.json baseline"; exit 1; }
[ -n "$baseline_batch_cps" ] || { echo "no committed batch baseline in BENCH_search.json"; exit 1; }
cargo run -q -p hms-bench --release --offline --bin bench_search -- test
current_cps="$(bench_num target/bench/BENCH_search.json engine_candidates_per_sec)"
current_batch_cps="$(bench_num target/bench/BENCH_search.json batch_candidates_per_sec)"
echo "    engine_candidates_per_sec: baseline=$baseline_cps current=$current_cps"
awk -v cur="$current_cps" -v base="$baseline_cps" 'BEGIN { exit !(cur >= 0.8 * base) }' || {
    echo "search throughput regressed >20% against the committed BENCH_search.json baseline"
    exit 1
}
echo "    batch_candidates_per_sec: baseline=$baseline_batch_cps current=$current_batch_cps"
awk -v cur="$current_batch_cps" -v base="$baseline_batch_cps" 'BEGIN { exit !(cur >= 0.8 * base) }' || {
    echo "batch throughput regressed >20% against the committed BENCH_search.json baseline"
    exit 1
}

echo "==> anytime search gate (BENCH_anytime.json)"
bench_gap() {
    sed -n 's/^ *"gate_gap_upper_bound": *\([0-9.eE+-]*\),*$/\1/p' "$1"
}
baseline_gap="$(bench_gap BENCH_anytime.json)"
[ -n "$baseline_gap" ] || { echo "no committed BENCH_anytime.json baseline"; exit 1; }
cargo run -q -p hms-bench --release --offline --bin bench_anytime -- gate
current_gap="$(bench_gap target/bench/BENCH_anytime.json)"
echo "    gate_gap_upper_bound: baseline=$baseline_gap current=$current_gap"
# The gate gap is a pure function of the model (beam at a pinned width,
# no deadline), so any growth is an engine/bound change, not noise; a
# small epsilon absorbs float formatting.
awk -v cur="$current_gap" -v base="$baseline_gap" \
    'BEGIN { exit !(cur <= 1.2 * base + 1e-9) }' || {
    echo "beam gap bound regressed >20% against the committed BENCH_anytime.json baseline"
    exit 1
}

echo "==> serve smoke (hms serve + curl predict/metrics + clean SIGTERM)"
serve_log="$(mktemp)"
./target/release/hms serve --port 0 --threads 2 > "$serve_log" 2>&1 &
serve_pid=$!
trap 'kill -9 "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
    grep -q '^listening on ' "$serve_log" && break
    sleep 0.1
done
serve_url="$(sed -n 's#^listening on \(http://.*\)$#\1#p' "$serve_log")"
[ -n "$serve_url" ] || { echo "serve did not come up"; cat "$serve_log"; exit 1; }
predict_status="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$serve_url/v1/predict" \
    -d '{"kernel":"vecadd","scale":"test","moves":[{"array":"a","space":"T"}]}')"
[ "$predict_status" = "200" ] || { echo "predict returned $predict_status"; exit 1; }
metrics_status="$(curl -s -o /dev/null -w '%{http_code}' "$serve_url/metrics")"
[ "$metrics_status" = "200" ] || { echo "metrics returned $metrics_status"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "serve exited nonzero on SIGTERM"; exit 1; }
trap - EXIT
rm -f "$serve_log"

echo "==> serve load benchmark gate (256 connections, BENCH_serve.json)"
bench_rps() {
    sed -n 's/^ *"throughput_rps": *\([0-9.eE+-]*\),*$/\1/p' "$1"
}
baseline_rps="$(bench_rps BENCH_serve.json)"
[ -n "$baseline_rps" ] || { echo "no committed BENCH_serve.json baseline"; exit 1; }
cargo run -q -p hms-bench --release --offline --bin bench_serve -- gate
current_rps="$(bench_rps target/bench/BENCH_serve.json)"
echo "    throughput_rps: baseline=$baseline_rps current=$current_rps"
awk -v cur="$current_rps" -v base="$baseline_rps" 'BEGIN { exit !(cur >= 0.8 * base) }' || {
    echo "serve throughput regressed >20% against the committed BENCH_serve.json baseline"
    exit 1
}

echo "CI OK"
