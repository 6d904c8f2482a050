#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds 10] [--first-seed 1]
                                [workload ...]

Runs every named workload (default: all of BENCHMARK.json) once per seed,
seeds first-seed .. first-seed+runs-1, untraced, and prints for each
end-to-end metric its median and its quartile spread (Q3 - Q1, from
statistics.quantiles(n=4)) as a share of the median, beside the metric's
bound. A spread above a third of its bound is flagged; setup_s is held
only to its bound on the median, so its spread is not flagged.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return proc.stdout, json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    names = a.workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for w in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            _, res = run(w, seed, a.seconds)
            for k, v in res["metrics"].items():
                values[k].append(v["value"])
        print(f"== {w} ({a.runs} seeds from {a.first_seed}, {a.seconds} s)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or share <= m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"  {m['name']:24s} median {med:14.6g}  spread {share:7.4f}"
                  f"  bound {m['bound']:.2f}{flag}")
            if a.values:
                print("    " + " ".join(f"{x:.6g}" for x in v))
        sys.stdout.flush()
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
