#!/usr/bin/env python3
"""Spread report: run each workload N times and compare the spread of each
end-to-end metric with its bound from BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 [--workloads zipf-threaded,zipf-net]
                                [--seed0 1] [--repeat]

Run from the repository root. Run i of every workload uses seed seed0 + i;
workloads are interleaved so slow drift of the host spreads evenly. For
each metric the report prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the bound: "ok" below a third of the bound,
"tight" below the bound, "OVER" above it.

It also checks determinism. The rebalancing outcome (plan digest, state
checksum, worker_imbalance bits, rebalances, routing_table_entries,
migrated_mb) must equal zipf-threaded's on zipf-net for every seed both
ran, and, with --repeat, must repeat exactly when the first seed of each
workload runs again. Exits 1 if a run fails or a determinism check does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINT = ("plan_digest", "state_checksum", "worker_imbalance_bits",
               "rebalances", "routing_table_entries", "migrated_mb")
# Where the stall tail sits: its percentile, and the median stall of
# boundaries that did and did not rebalance.
STALL_DETAIL = ("stall_tail_percentile", "rebalancing_boundaries",
                "stall_p50_rebalancing_ms", "stall_p50_other_ms")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
        return None
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    return {"elapsed": elapsed, "detail": detail, "result": result}


def fingerprint(run):
    return {k: run["detail"][k] for k in FINGERPRINT}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]

    runs = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        for w in workloads:
            r = run_once(w, args.seed0 + i, seconds)
            if r is None or not r["result"]["correct"]:
                ok = False
                continue
            runs[w].append(r)
            m = r["result"]["metrics"]
            print(f"# {w} seed {args.seed0 + i}: {r['elapsed']:.1f} s, "
                  f"tps {m['throughput_tps']['value']:.4g}", file=sys.stderr)

    for w in workloads:
        if not runs[w]:
            continue
        n = len(runs[w])
        mean_s = statistics.mean(r["elapsed"] for r in runs[w])
        print(f"\n{w}: {n} runs, {mean_s:.1f} s per run")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            vals = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if n > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            verdict = ("ok" if spread < bound / 3 else
                       "tight" if spread <= bound else "OVER")
            print(f"  {name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f} {verdict}")
        for key in STALL_DETAIL:
            med = statistics.median(r["detail"][key] for r in runs[w])
            print(f"  {key:24} {med:12.6g}   (median of the detail lines)")

    if args.repeat:
        for w in workloads:
            if not runs[w]:
                continue
            first = runs[w][0]
            again = run_once(w, first["detail"]["seed"], seconds)
            same = again is not None and fingerprint(again) == fingerprint(first)
            ok &= same
            print(f"\nrepeat {w} seed {first['detail']['seed']}: "
                  f"{'identical' if same else 'DIFFERS'}")

    if "zipf-threaded" in runs and "zipf-net" in runs:
        by_seed = {r["detail"]["seed"]: r for r in runs["zipf-threaded"]}
        pairs = [(by_seed[r["detail"]["seed"]], r) for r in runs["zipf-net"]
                 if r["detail"]["seed"] in by_seed]
        same = all(fingerprint(a) == fingerprint(b) for a, b in pairs)
        ok &= same
        print(f"\nzipf-net vs zipf-threaded on {len(pairs)} seeds: "
              f"{'identical' if same else 'DIFFER'}")

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
