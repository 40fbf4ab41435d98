#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py funnel_4q --seeds 1-10 --seconds 20 [--trace 1]

Spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median.
Timings are also listed as measured, before scaling to reference speed,
under "(host speed)".
Run it from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]
    values = {}
    for seed in seeds:
        cmd = command + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {out.stdout}\n{out.stderr}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The same timings before scaling to reference speed.
        for line in out.stdout.splitlines():
            if line.startswith("measured at host speed:"):
                fields = line.split(":", 1)[1].split()
                for name, v in zip(fields[::2], fields[1::2]):
                    values.setdefault(name + " (host speed)", []).append(float(v))
        steal = next((l.split("steal during the run")[-1].strip() for l in out.stdout.splitlines()
                      if "steal during the run" in l), "?")
        print(f"seed {seed}: steal {steal} " +
              " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:36s} median {med:.6g}  spread {spread:.4f}")


if __name__ == "__main__":
    main()
