#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json files against the committed
baselines and fail on a regression.

Usage: tools/check_bench_regression.py [--ref HEAD] [BENCH_file...]

Run AFTER bench/run_benches.sh has refreshed the BENCH_*.json files in
the working tree: for every file given (default: all BENCH_*.json at the
repository root) the committed copy is read with `git show REF:file` and
the two JSON trees are walked side by side. Two metric families are
checked, both higher-is-better:

  * throughput family -- any numeric leaf whose key contains "tps" or is
    one of the named ratio/speedup metrics. A fresh value more than 20%
    below the committed baseline is a regression.
  * memory-ratio family -- the sketch-vs-exact memory ratios. More than
    10% below baseline is a regression (memory ratios are not wall-clock
    noisy, so the band is tighter).

A file with no committed baseline (first run of a new bench) is skipped
with a note -- committing the fresh file IS the baseline-setting act.
Absolute wall-clock milliseconds are deliberately NOT compared: they
move with the runner hardware; the gated quantities are ratios and
within-run throughput numbers whose baselines came from the same class
of runner.

Every bench records the environment it ran under ("hardware_threads").
When both sides carry that field and it DIFFERS, the file is skipped
with a note instead of compared: a 2-thread-vs-32-thread comparison
measures the machines, not the code. Same-class baselines remain fully
enforced. Committed baselines may still carry an older "kernel_tier"
field; it is not compared.

Exit status: 0 when no metric regressed, 1 otherwise. Stdlib only.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

# (predicate over key name, tolerated fractional drop, family label)
THROUGHPUT_KEYS = {
    "throughput_ratio",
    "stall_reduction",
    "speedup",     # BENCH_plan: compact vs dense planning path
    "reduction",   # BENCH_churn: decayed vs no-decay heavy-set churn
    "mttr_headroom",  # BENCH_fault: 5x boundary stall / mean time to repair
}

# Environment fields stamped into every bench JSON; a mismatch between
# baseline and fresh run means the numbers are not comparable.
ENV_KEYS = ("hardware_threads",)
MEMORY_RATIO_KEYS = {"memory_ratio", "ratio"}
THROUGHPUT_TOLERANCE = 0.20
MEMORY_TOLERANCE = 0.10


def classify(path):
    """Returns (tolerance, family) for a JSON path, or None if the leaf
    is not a tracked metric."""
    key = path[-1]
    if "tps" in key or key in THROUGHPUT_KEYS:
        return THROUGHPUT_TOLERANCE, "throughput"
    if key in MEMORY_RATIO_KEYS and any("memory" in p for p in path):
        return MEMORY_TOLERANCE, "memory-ratio"
    return None


def walk(node, path=()):
    """Yields (path_tuple, numeric_value) for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, path + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)


def committed_copy(ref, path):
    """The file's contents at `ref`, or None if it does not exist there."""
    try:
        out = subprocess.run(
            ["git", "show", "%s:%s" % (ref, path)],
            capture_output=True,
            check=True,
        )
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None
    return out.stdout.decode()


def check_file(path, ref):
    """Returns a list of regression strings for one bench file."""
    with open(path) as f:
        fresh = json.load(f)
    baseline_text = committed_copy(ref, path)
    if baseline_text is None:
        print("-- %s: no committed baseline at %s, skipping" % (path, ref))
        return []
    baseline = json.loads(baseline_text)

    for env_key in ENV_KEYS:
        base_env = baseline.get(env_key)
        fresh_env = fresh.get(env_key)
        if base_env is not None and fresh_env is not None \
                and base_env != fresh_env:
            print(
                "-- %s: %s differs (baseline %r, fresh %r) -- different "
                "machine class, skipping" % (path, env_key, base_env,
                                             fresh_env)
            )
            return []

    fresh_leaves = dict(walk(fresh))
    regressions = []
    compared = 0
    for leaf_path, base_value in walk(baseline):
        rule = classify(leaf_path)
        if rule is None or base_value <= 0.0:
            continue
        fresh_value = fresh_leaves.get(leaf_path)
        if fresh_value is None:
            continue  # metric removed/renamed: a review concern, not a gate
        compared += 1
        tolerance, family = rule
        floor = base_value * (1.0 - tolerance)
        if fresh_value < floor:
            regressions.append(
                "%s: %s (%s) regressed %.3f -> %.3f (floor %.3f, -%d%%)"
                % (
                    path,
                    ".".join(leaf_path),
                    family,
                    base_value,
                    fresh_value,
                    floor,
                    round(100 * (1 - fresh_value / base_value)),
                )
            )
    print(
        "-- %s: %d metrics compared, %d regressed"
        % (path, compared, len(regressions))
    )
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ref", default="HEAD", help="baseline git ref")
    parser.add_argument("files", nargs="*", help="BENCH_*.json files")
    args = parser.parse_args()

    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    files = args.files or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1

    regressions = []
    for path in files:
        regressions.extend(check_file(path, args.ref))
    for line in regressions:
        print("!! %s" % line, file=sys.stderr)
    if regressions:
        return 1
    print("bench trajectory: no regressions vs %s" % args.ref)
    return 0


if __name__ == "__main__":
    sys.exit(main())
