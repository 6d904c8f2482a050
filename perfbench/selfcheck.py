#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 2] [workload ...]

For each workload (default: all of BENCHMARK.json) runs the benchmark
twice untraced and twice traced with the same seed, and checks that:
  - every run is correct and exits 0;
  - every metric name in the result line is declared in BENCHMARK.json,
    and every declared metric is printed;
  - the simulated block, the digest, and the simulated end-to-end metrics
    (served_share, sim_goodput_req_per_s) are identical across the runs;
  - the per-layer counts (unit "count") are identical across the traced
    runs.
It also prints the tracing overhead: the traced window's request rate
against the untraced one, as a share of the untraced rate.
"""
import argparse
import json
import pathlib
import re
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from spread import ROOT, run  # noqa: E402

SIMULATED_E2E = ("served_share", "sim_goodput_req_per_s")


def simulated_block(stdout):
    """The lines of the simulated block and the digest line."""
    keep, inside = [], False
    for line in stdout.split("\n"):
        if re.match(r"\s+digest ", line):
            keep.append(line)
            inside = False
        elif line.startswith(" simulated"):
            inside = True
        elif not line.startswith("  "):
            inside = False
        elif inside:
            keep.append(line)
    return keep


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    names = a.workloads or [w["name"] for w in spec["workloads"]]
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    problems = []
    for w in names:
        runs = {t: [run(w, a.seed, a.seconds, t) for _ in range(2)] for t in (0, 1)}
        for t, pair in runs.items():
            for _, res in pair:
                if not res["correct"]:
                    problems.append(f"{w}: a run with --trace {t} was not correct")
                if set(res["metrics"]) != declared[t]:
                    problems.append(f"{w}: --trace {t} metrics differ from BENCHMARK.json")
        blocks = [simulated_block(out) for t in (0, 1) for out, _ in runs[t]]
        if any(b != blocks[0] for b in blocks) or not blocks[0]:
            problems.append(f"{w}: simulated results or digest differ between same-seed runs")
        for k in SIMULATED_E2E:
            vals = {res["metrics"][k]["value"] for _, res in runs[0]}
            if len(vals) != 1:
                problems.append(f"{w}: {k} differs between same-seed runs: {sorted(vals)}")
        traced = [res["metrics"] for _, res in runs[1]]
        for k in sorted(counts):
            if traced[0][k]["value"] != traced[1][k]["value"]:
                problems.append(f"{w}: count {k} differs between same-seed traced runs")
        untraced_rate = min(res["metrics"]["host_req_per_s"]["value"] for _, res in runs[0])
        traced_rate = min(m["trace.window_host_req_per_s"]["value"] for m in traced)
        print(f"{w}: digest {blocks[0][-1].split()[-1]}, tracing overhead "
              f"{100 * (1 - traced_rate / untraced_rate):+.1f}% of host_req_per_s "
              f"(span cost {traced[0]['trace.span_ns']['value']:.0f} ns)")
    for p in problems:
        print("FAIL:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
