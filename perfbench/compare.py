#!/usr/bin/env python3
"""Records and compares result sets of the repo benchmark.

A result set is a JSONL file, one run per line:
    {"workload": ..., "seed": ..., "trace": 0|1, "result": {<run.py result>}}

    # run every workload on seeds 1..10 and append to a set
    python3 perfbench/compare.py record --out base.jsonl --seeds 1-10
    # median and quartiles of every metric, per workload
    python3 perfbench/compare.py summary base.jsonl
    # diff two sets metric by metric against BENCHMARK.json's bounds
    python3 perfbench/compare.py compare base.jsonl head.jsonl

`compare` prints one row per (workload, metric). A metric regressed when the
head median is worse than the base median by more than its bound; it is
`unresolved` when either side's run spread (interquartile range over median)
exceeds the bound, unless every head run beats every base run or the
reverse. Exit code 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def load_set(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def values_by_workload(runs, trace):
    """{workload: {metric: [values...]}} for runs of the given trace mode."""
    out = {}
    for run in runs:
        if run.get("trace", 0) != trace:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def cmd_record(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    failed = 0
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print("run failed: %s seed %d" % (workload, seed),
                          file=sys.stderr)
                    failed += 1
                    continue
                record = {"workload": workload, "seed": seed,
                          "trace": args.trace, "result": json.loads(lines[-1])}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print("%s seed %d: %s" % (workload, seed, json.dumps(
                    {k: round(v["value"], 4)
                     for k, v in record["result"]["metrics"].items()})),
                      flush=True)
    return 1 if failed else 0


def cmd_summary(args):
    bench = load_benchmark()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = load_set(args.set)
    for workload, metrics in sorted(values_by_workload(runs, args.trace).items()):
        print("%s (%d runs)" % (workload, len(next(iter(metrics.values())))))
        print("  %-32s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            bound = bounds.get(name)
            print("  %-32s %12.5g %12.5g %12.5g %8.4f %8s" %
                  (name, q1, med, q3, spread(values),
                   "-" if bound is None else "%.2f" % bound))
    return 0


def cmd_compare(args):
    bench = load_benchmark()
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base = values_by_workload(load_set(args.base), args.trace)
    head = values_by_workload(load_set(args.head), args.trace)
    regressed = 0
    print("%-16s %-30s %12s %12s %8s %6s %8s %8s  %s" %
          ("workload", "metric", "base", "head", "change", "bound",
           "spread_b", "spread_h", "verdict"))
    for workload in sorted(set(base) & set(head)):
        for name in sorted(set(base[workload]) & set(head[workload])):
            spec = specs.get(name, {})
            b, h = base[workload][name], head[workload][name]
            mb, mh = statistics.median(b), statistics.median(h)
            lower = spec.get("better", "lower") == "lower"
            # Positive `worse` means the head is worse than the base.
            worse = ((mh - mb) if lower else (mb - mh)) / mb if mb else 0.0
            bound = spec.get("bound")
            if bound is None:
                verdict = "info"
            else:
                head_wins = (max(h) < min(b)) if lower else (min(h) > max(b))
                base_wins = (max(b) < min(h)) if lower else (min(b) > max(h))
                if max(spread(b), spread(h)) > bound and not (head_wins or base_wins):
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "REGRESSED"
                    regressed += 1
                elif worse < -bound:
                    verdict = "improved"
                else:
                    verdict = "within"
            print("%-16s %-30s %12.5g %12.5g %+7.2f%% %6s %8.4f %8.4f  %s" %
                  (workload, name, mb, mh, 100.0 * (mh - mb) / mb if mb else 0.0,
                   "-" if bound is None else "%.2f" % bound,
                   spread(b), spread(h), verdict))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run seeds and append to a set")
    rec.add_argument("--out", required=True)
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--workloads", default="")
    rec.add_argument("--seconds", type=float, default=0)
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rec.set_defaults(func=cmd_record)
    summ = sub.add_parser("summary", help="quartiles per workload and metric")
    summ.add_argument("set")
    summ.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summ.set_defaults(func=cmd_summary)
    cmp_ = sub.add_parser("compare", help="diff two sets against the bounds")
    cmp_.add_argument("base")
    cmp_.add_argument("head")
    cmp_.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
