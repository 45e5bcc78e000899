#!/usr/bin/env bash
# Runs the machine-readable benches and refreshes the BENCH_*.json
# trajectory files at the repository root.
#
#   bench/run_benches.sh [BUILD_DIR]     (default: build)
#
# Benches and their acceptance gates (each bench enforces its own gates
# through its exit status; this script runs every bench and fails if ANY
# gate failed, so CI gets one pass/fail for the whole trajectory):
#
#   bench_micro_sketch   -> BENCH_sketch.json
#       stats memory >= 10x smaller than exact, plan-quality theta
#       within tolerance of the exact plan.
#   bench_micro_threaded -> BENCH_threaded.json
#       real-thread 1M-key run: sketch-mode stats memory >= 8x smaller
#       than exact, throughput >= 0.97x the exact mutex-drain path, and
#       the asynchronous boundary merge's ingestion stall >= 5x smaller
#       than the inline-merge baseline (per-boundary stall_ms is in the
#       JSON; a stall regression past the gate fails the bench, and with
#       it this script and CI).
#   bench_micro_plan     -> BENCH_plan.json
#       compact planning path at 1M keys / 4096 heavy: snapshot + plan
#       generation >= 20x faster than the dense path, no O(|K|)
#       structures on the planning path.
#   bench_micro_churn    -> BENCH_churn.json
#       adversarial workloads: under the rotating-hot-set attack the
#       decayed tracker's heavy-set churn rate is >= 2x lower than the
#       --no-decay baseline, and its realized post-rebalance theta stays
#       within the sketch-vs-exact tolerance.
#   bench_micro_net      -> BENCH_net.json
#       socket engine: forked-worker 1M-key run sustains >= 0.5x the
#       threaded engine's throughput with IDENTICAL plan digests, and a
#       plan broadcast on the control channel round-trips >= 5x faster
#       than the saturated data channel drains.
#   bench_micro_fault    -> BENCH_fault.json
#       fault tolerance: a worker SIGKILLed at an early and a late
#       interval boundary is checkpoint-restored and replayed with ZERO
#       digest divergence vs the crash-free run (plan digest, state
#       checksum, processed count), and mean time to repair stays within
#       5x the crash-free run's per-boundary stall.
set -uo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

BENCHES=(
  bench_micro_sketch:BENCH_sketch.json
  bench_micro_threaded:BENCH_threaded.json
  bench_micro_plan:BENCH_plan.json
  bench_micro_churn:BENCH_churn.json
  bench_micro_net:BENCH_net.json
  bench_micro_fault:BENCH_fault.json
)

status=0
for spec in "${BENCHES[@]}"; do
  bench="${spec%%:*}"
  out="${spec##*:}"
  bin="${BUILD_DIR}/bench/${bench}"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built" >&2
    echo "hint: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
  echo "== ${bench} -> ${out}" >&2
  if ! "$bin" > "$out"; then
    # One retry: these are wall-clock perf gates, and a sustained noisy
    # phase on a shared/steal-prone runner can sink a whole invocation.
    # A genuine regression fails both attempts — clean-machine
    # measurements sit well clear of every gate.
    echo "-- ${bench} gates failed, retrying once" >&2
    if ! "$bin" > "$out"; then
      echo "!! ${bench} gates FAILED (see ${out})" >&2
      status=1
    fi
  fi
  cat "$out"
done
exit "$status"
