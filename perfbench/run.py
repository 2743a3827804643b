#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-adjoint|sense-cg|stream-serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library from src/ plus the benchmark) into .bench_build/,
then runs the benchmark's self-tests once per build. Every call then runs
one workload; the last line of standard output is the result JSON (see
README.md). Build output goes to standard error. The exit code is non-zero
when the build, the self-tests or any output check fails.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 175  # one run, build excluded


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it. Returns the exit code (None on timeout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    start = time.monotonic()
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code = run(["cmake", "-S", SOURCE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                   sys.stderr)
        if code != 0:
            return False
    left = BUILD_TIMEOUT_S - (time.monotonic() - start)
    code = run(["cmake", "--build", BUILD, "-j", jobs], left, sys.stderr)
    return code == 0


def selftest():
    """Run the benchmark's self-tests once per build of them."""
    binary = os.path.join(BUILD, "perfbench_selftest")
    stamp = os.path.join(BUILD, "selftest.passed")
    if (os.path.exists(stamp)
            and os.path.getmtime(stamp) >= os.path.getmtime(binary)):
        return True
    if run([binary], RUN_LIMIT_S, sys.stderr) != 0:
        return False
    with open(stamp, "w") as f:
        f.write("ok\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-adjoint", "sense-cg", "stream-serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not selftest():
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    code = run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--out-dir", OUT], RUN_LIMIT_S, sys.stdout)
    if code is None:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
