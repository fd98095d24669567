#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every named workload once per seed (untraced), then prints, per
workload and metric, the median and the interquartile range as a share of
the median, next to the metric's bound from BENCHMARK.json. `host_speed`
is the host-speed factor each run scaled its times by (stderr's summary
line); its spread shows how much the host drifted across the runs. Run from the
repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds N]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name in names:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not line:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            result = json.loads(line)
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect result {line}")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            speed = re.search(r"host speed ([0-9.]+)", out.stderr)
            if speed:
                values.setdefault("host_speed", []).append(float(speed.group(1)))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric, float("nan"))
            if metric in bounds and metric != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:20s} {metric:18s} median {med:12.5g}  "
                  f"spread {spread:6.1%}  bound {bound:.0%}", flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
