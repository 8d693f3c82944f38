#!/usr/bin/env python3
"""Runs one workload of the benchmark over several seeds and reports, per
end-to-end metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, next to the bound BENCHMARK.json fixes for it.

Usage, from the repository root:

    python3 perfbench/spread.py --workload net-open --seeds 1-5 [--seconds 10]

Exits non-zero when a run fails or reports "correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default=None)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", args.trace,
        ]
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s\n%s" % (seed, r.returncode, r.stdout[-3000:],
                                               r.stderr[-3000:]))
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect output\n%s" % (seed, r.stdout[-3000:]))
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % kv for kv in row.items())),
              flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print("\n%-26s %14s %10s %8s %s" % ("metric", "median", "spread", "bound", ""))
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(k)
        flag = ""
        if bound is not None:
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print("%-26s %14.6g %10.4f %8s %s" % (k, med, spread,
                                             "" if bound is None else "%g" % bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
