#!/usr/bin/env python3
"""Benchmark entry point: build the OCaml benchmark, run one workload,
and print its result as the last line of standard output.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to .bench_build (dune,
release profile, no shared cache); a traced run writes its spans to
.bench_out/<workload>.trace.json. The last line is one JSON object with
the keys correct, attempted, failed and metrics; the metric names and
units come from BENCHMARK.json. Any failure exits non-zero without
printing a result.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "easeio_cli.exe")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/bench.exe", "./bin/easeio_cli.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")


def git_sha():
    # stop at the checkout root: a benchmark checkout is not a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def stop_group(proc):
    """Kill whatever is left of the benchmark's process group (a server
    it spawned) and wait until the group is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def result(line, declared, zero_fill):
    """The contract's result line from the benchmark's own last line.
    Metrics must be declared in BENCHMARK.json; a per-layer metric of a
    layer the workload does not reach is 0, an end-to-end one must be
    measured."""
    try:
        out = json.loads(line)
    except ValueError:
        fail("the benchmark printed no result line")
    if not isinstance(out, dict) or set(out) != {"attempted", "failed", "metrics"}:
        fail("malformed result line")
    attempted, failed, measured = out["attempted"], out["failed"], out["metrics"]
    if not (isinstance(attempted, int) and attempted >= 1 and isinstance(failed, int) and failed >= 0):
        fail("malformed op counts")
    undeclared = sorted(set(measured) - set(declared))
    if undeclared:
        fail(f"metrics not in BENCHMARK.json: {undeclared}")
    missing = sorted(set(declared) - set(measured))
    if missing and not zero_fill:
        fail(f"end-to-end metrics not measured: {missing}")
    metrics = {}
    for name, unit in declared.items():
        v = measured.get(name, 0)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")
        print(f"metric {name} = {v:.6g} {unit}")
        metrics[name] = {"value": v, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build()
    start = time.monotonic()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--cli", CLI_EXE,
           "--out", OUT_DIR, "--sha", git_sha()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} run exceeded {RUN_BUDGET_S} s")
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        fail(f"the {args.workload} run exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    res = result(lines[-1], declared, zero_fill=bool(args.trace))
    print(f"run: {time.monotonic() - start:.1f} s after the build")
    print(json.dumps(res), flush=True)


if __name__ == "__main__":
    main()
