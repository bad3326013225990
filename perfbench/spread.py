#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload join-l2 --seeds 1-10 [--seconds 10] [--trace 0]

Run from the repository root. For every metric it prints the median over
the runs and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
For end-to-end metrics it also prints the bound from BENCHMARK.json and
flags a spread above a third of it.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, check=True, text=True).stdout
        rep = json.loads(out.strip().splitlines()[-1])
        if not rep["correct"] or rep["failed"]:
            sys.exit(f"seed {seed}: correct={rep['correct']} failed={rep['failed']}")
        for name, m in rep["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={rep['metrics'][k]['value']:.4g}" for k in sorted(bounds) if k in rep["metrics"]),
            flush=True)
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        line = f"{name:34s} median {med:12.4f}  spread {spread:7.3f}"
        if name in bounds:
            flag = "  OVER 1/3 BOUND" if spread > bounds[name] / 3 else ""
            line += f"  bound {bounds[name]:.2f}{flag}"
        print(line)


if __name__ == "__main__":
    main()
