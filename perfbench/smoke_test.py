#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at its smallest size (--smoke, 2 s),
untraced and traced, through run.py. Checks that each run passes its answer
checks, that the untraced run prints exactly the end-to-end metrics and the
traced run exactly the per-layer metrics, each with its declared unit, and
that the traced run writes a well-formed span file. Exit code 0 when all
checks pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SMOKE_SECONDS = "2"


def check_result(result, expected, label, errors):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (label, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (label, result["attempted"]))
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append("%s: missing %s, unexpected %s" % (
            label, sorted(set(expected) - set(got)),
            sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: %s unit %r, want %r" %
                          (label, name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)):
            errors.append("%s: %s value %r" % (label, name, m.get("value")))


def check_spans(path, label, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        errors.append("%s: span file %s: %s" % (label, path, err))
        return
    spans = doc.get("spans")
    if not isinstance(spans, list) or not spans:
        errors.append("%s: no spans" % label)
        return
    ids = set()
    for s in spans:
        ok = (isinstance(s.get("name"), str) and s["name"] and
              all(isinstance(s.get(k), (int, float))
                  for k in ("start_us", "end_us")) and
              s["start_us"] <= s["end_us"] and
              all(isinstance(s.get(k), int)
                  for k in ("id", "parent", "request")) and
              s["id"] > 0 and s["id"] not in ids)
        if not ok:
            errors.append("%s: malformed span %s" % (label, s))
            return
        ids.add(s["id"])
    orphans = [s for s in spans if s["parent"] and s["parent"] not in ids]
    if orphans:
        errors.append("%s: %d spans name a missing parent" %
                      (label, len(orphans)))
    if not any(s["parent"] for s in spans):
        errors.append("%s: no child spans" % label)
    if not any(s["request"] for s in spans):
        errors.append("%s: no span carries a request id" % label)


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            span_out = os.path.join(build_dir, "smoke-%s.spans.json" % workload)
            if os.path.exists(span_out):
                os.remove(span_out)
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1",
                   "--seconds", SMOKE_SECONDS, "--trace", str(trace),
                   "--smoke", "--span-out", span_out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append("%s: exit %d" % (label, proc.returncode))
                continue
            check_result(json.loads(lines[-1]),
                         per_layer if trace else end_to_end, label, errors)
            if trace:
                check_spans(span_out, label, errors)
            print("%s: ok" % label if not errors else "%s: checked" % label)
    for e in errors:
        print("FAIL " + e)
    print("smoke test: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
