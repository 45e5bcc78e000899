#!/usr/bin/env python3
"""Check a perfbench run's deterministic fingerprints against the
committed ones.

Usage: python3 perfbench/run.py --workload WL --seed 1 --seconds 1 \\
           --trace 0 | tools/check_perfbench_fingerprint.py WL

Reads the run's stdout on stdin, finds its {"detail": ...} line and
compares plan_digest, state_checksum and worker_imbalance_bits with the
entry for WL in tools/perfbench_fingerprints.json (recorded with the
arguments listed there). A change that keeps behaviour keeps all three;
a change that means to alter plans updates the JSON file in the same
commit, the way BENCH_*.json baselines are moved.

Exit status: 0 on a match, 1 on a mismatch or a missing detail line.
Stdlib only.
"""

import json
import os
import sys

FIELDS = ("plan_digest", "state_checksum", "worker_imbalance_bits")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    workload = sys.argv[1]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "perfbench_fingerprints.json")
    with open(path) as f:
        want = json.load(f)["workloads"][workload]
    detail = None
    for line in sys.stdin:
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    if detail is None:
        print(f"perfbench {workload}: no detail line in the output")
        return 1
    diffs = [f"{k}: got {detail.get(k)}, want {want[k]}"
             for k in FIELDS if detail.get(k) != want[k]]
    for d in diffs:
        print(f"perfbench {workload} fingerprint changed: {d}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
