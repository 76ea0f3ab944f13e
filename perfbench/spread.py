#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload bulk-io --seeds 1-10 [--seconds 20] [--trace 0]

Run from the root of the checkout. For every metric it prints the median
of the runs and the distance between the first and third quartile as a
share of that median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. Raw results are appended, one JSON
line per run, to .bench_build/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    os.makedirs(".bench_build", exist_ok=True)
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        with open(".bench_build/spread.jsonl", "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect output\n{out.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # Ungated: every candidate tail percentile the table printed, to
        # pick the highest one that repeats.
        for line in out.stdout.splitlines():
            head, sep, cands = line.partition(" candidates: ")
            for c in cands.split() if sep else []:
                p, _, v = c.partition("=")
                values.setdefault(f"({head.strip()} {p})", []).append(float(v))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())),
              flush=True)
    print(f"{'metric':34} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:34} {med:12.5g} {spread:11.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
