#!/usr/bin/env python3
"""Run one workload of the skewless end-to-end benchmark.

    python3 perfbench/run.py --workload zipf-threaded --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench_driver (and the library from src/) under .bench_build/; later
calls rebuild only what changed. The driver's stdout is passed through: its
last line is the result JSON.

Exit codes: 0 success, 1 the run failed its reference check, 2 the build
or the sources are missing, 3 the host has too few CPUs for the thread
budget, 124 the driver ran past its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_driver(argv):
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(*_):
        # The net workload's worker processes share the driver's group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(143)))
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s", 124)
    except KeyboardInterrupt:
        stop()
        raise
    stop()  # reaps anything the driver left behind in its group
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    argv = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        argv += ["--trace-out",
                 os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    code, out = run_driver(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
