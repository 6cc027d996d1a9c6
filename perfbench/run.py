#!/usr/bin/env python3
"""Builds and runs the graphalytics benchmark (see WORKLOADS.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload batch-sweep --seed 1 --seconds 10 --trace 0

Builds the library, the CLI daemon and the perfbench driver into
.bench_build/ (incrementally), runs one workload in a scratch directory
under .bench_work/, and passes the driver's output through: an `info`
line, then the result object as the last line of standard output. Span
files of traced runs are kept under .bench_out/. Exits non-zero when the
build fails, an output is wrong, or an outcome deviates from the
expected map.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("batch-sweep", "serve-hot", "serve-churn", "mutate-stream")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns the driver and CLI paths."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, **quiet)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "graphalytics_cli"], check=True, **quiet)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "graphalytics", "tools", "graphalytics_cli"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        driver, cli = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 3

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        # The driver works in `work` with relative paths, which keeps the
        # daemon's unix socket path short whatever the checkout path.
        result = subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--cli", cli],
            cwd=work, timeout=RUN_TIMEOUT_S)
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            os.makedirs(OUT, exist_ok=True)
            shutil.move(spans, os.path.join(
                OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        return result.returncode
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
