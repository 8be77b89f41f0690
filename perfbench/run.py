#!/usr/bin/env python3
"""Build and run the simulator's performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload gap_sweep --seed 42 \\
        --seconds 40 --trace 0

It configures and builds perfbench/ (a CMake package that compiles
../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the benchmark binary for one workload. The last line of
stdout is the result: one JSON object with "correct", "attempted",
"failed" and "metrics". --trace 1 makes a traced run instead, which
reports the per-layer metrics and writes its spans next to the build.
--workload all runs every workload the binary lists (perfbench --list)
in turn and prints one combined result with the metrics keyed
"<workload>.<metric>".

A failed build or benchmark exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure once, then (re)build; compiler output goes to stderr."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)


def run_one(binary, build_dir, workload, args):
    """Run the binary on one workload; returns (stdout text, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s exited %d without a result"
                 % (workload, proc.returncode))
    return proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    binary = os.path.join(build_dir, "perfbench")

    if args.workload != "all":
        out, _ = run_one(binary, build_dir, args.workload, args)
        sys.stdout.write(out)
        return

    workloads = subprocess.run([binary, "--list"], stdout=subprocess.PIPE,
                               text=True, check=True).stdout.split()
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for w in workloads:
        out, result = run_one(binary, build_dir, w, args)
        sys.stdout.write("\n== %s ==\n" % w)
        sys.stdout.write("\n".join(out.strip().splitlines()[:-1]) + "\n")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"]["%s.%s" % (w, name)] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
