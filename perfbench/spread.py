#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

    python3 perfbench/spread.py --workload sweep [--seeds 1-10] [--seconds 20]

Runs perfbench/run.py once per seed and prints, per end-to-end metric, the
median and the quartile spread (Q3 - Q1) / median, with quartiles as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
from BENCHMARK.json. A spread above a third of the bound is flagged: the
benchmark is only trustworthy for a metric whose spread stays well inside
the regression bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in sorted(row.items())),
              flush=True)
        for name in values:
            values[name].append(row[name])

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = ("OVER BOUND" if spread > m["bound"] else
                "over bound/3" if spread > m["bound"] / 3 else "ok")
        print(f"{args.workload:9s} {m['name']:14s} median {med:10.4g} "
              f"spread {spread:6.3f} bound {m['bound']:.2f}  {flag}")


if __name__ == "__main__":
    main()
