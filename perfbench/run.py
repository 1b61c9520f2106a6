#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload na_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory. With --trace 0 the last
line of stdout is one JSON object with the end-to-end metrics; with --trace 1
it carries the per-layer metrics, and the benchmark-side spans are written to
<build>/spans/<workload>-seed<N>.json (or --span-out). Each workload's shape
is read from perfbench/workloads.json.
Exit code 0 only when the build, the run and every answer check succeed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds msq_perfbench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "msq_perfbench",
              "-j", jobs]]
    for cmd in steps:
        try:
            # Build chatter goes to stderr; stdout carries only results.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as err:
            log("cannot run %s: %s" % (cmd[0], err))
            return None
        if rc != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "msq_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes (for the smoke test)")
    parser.add_argument("--span-out", default="")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1

    cmd = [binary, "--config", os.path.join(HERE, "workloads.json"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == 1:
        span_out = args.span_out
        if not span_out:
            span_dir = os.path.join(build_dir, "spans")
            os.makedirs(span_dir, exist_ok=True)
            span_out = os.path.join(
                span_dir, "%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--traced", "--span-out", span_out]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("no result line from " + binary)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        log("answer or accounting check failed (exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
