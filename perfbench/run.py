#!/usr/bin/env python3
"""Builds the perfbench runner from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
set of BENCHMARK.json, with --trace 1 the per-layer set; traced runs also
write Chrome trace JSON (open in Perfetto) under the build directory's out/.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
inside the checkout. Exits non-zero without a result line when the sources,
the build or the run fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then (re)builds; output goes to stderr."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be exactly correct, attempted, failed, metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a non-negative whole number"
    want = declared_metrics(trace)
    if want is not None and set(res["metrics"]) != want:
        missing = sorted(want - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - want)
        return f"metrics differ from BENCHMARK.json: missing {missing} extra {extra}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["rmi_churn", "cycle_reclaim", "mixed_sim"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")
    bdir = build_dir()
    try:
        build(bdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")

    out_dir = os.path.join(bdir, "out")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return fail(f"runner exited with {proc.returncode}")
    err = check_result(lines[-1], args.trace == 1)
    if err:
        sys.stderr.write(proc.stdout)
        return fail(err)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
