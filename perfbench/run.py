#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The binary is built (CMake, RelWithDebInfo) into .bench_build/perfbench at
the repository root; later runs only re-check it. Build output goes to
stderr. The binary's output is passed through unchanged; its last line is
one JSON object {correct, attempted, failed, metrics}. For a single
workload the metric names must be exactly those BENCHMARK.json declares
(end_to_end with --trace 0, per_layer with --trace 1); any other set is
an error. The exit code is the binary's: 0 when every output was correct.
"""
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
CHILD = None  # the build step or binary currently running


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def stop_child(signum, _frame):
    """Stop the running build or binary and wait for it before exiting."""
    if CHILD is not None and CHILD.poll() is None:
        CHILD.kill()
        CHILD.wait()
    sys.exit(128 + signum)


def call(cmd, timeout=None, **kw):
    """Run `cmd` to completion; returns (returncode, stdout or None)."""
    global CHILD
    CHILD = subprocess.Popen(cmd, **kw)
    try:
        out, _ = CHILD.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        CHILD.kill()
        CHILD.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return CHILD.returncode, out


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if call(cmd, stdout=sys.stderr, stderr=sys.stderr)[0] != 0:
            fail("build failed: " + " ".join(cmd))


def declared_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop_child)
    build()
    returncode, stdout = call([str(BINARY), *argv], timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(stdout)
        fail(f"binary printed no result (exit {returncode})")
    if args["--workload"] != "all":
        want = declared_names(args["--trace"] == "1")
        got = list(result["metrics"])
        if sorted(got) != sorted(want):
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            fail(f"metrics differ from BENCHMARK.json: undeclared "
                 f"{sorted(set(got) - set(want))}, missing {sorted(set(want) - set(got))}")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
