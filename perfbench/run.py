#!/usr/bin/env python3
"""Build and run the ULP runtime benchmark; print its result as the last line.

Run from the repository root:

    python3 perfbench/run.py --workload echo --seed 1 --seconds 10 --trace 0

Workloads are `echo`, `spawn_jobs` and `mpi_ring` (see perfbench/README.md).
`--trace 0` reports the end-to-end metrics with every tracer off; `--trace 1`
reports the per-layer metrics from a run with benchmark-side spans on.

The benchmark package (perfbench/Cargo.toml) is built from source with cargo
into $CARGO_TARGET_DIR (default `.bench_build`). The last line of standard
output is one JSON object with exactly the keys `correct`, `attempted`,
`failed` and `metrics`, whose metric names and units are checked against
BENCHMARK.json. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Whole-run budget once the program is built, and the build's own budget.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 700
# Variables that switch the runtime's own tracer on.
TRACE_ENV = ("ULP_TRACE", "ULP_PROFILE", "ULP_METRICS_ADDR")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, env, budget_s, capture):
    """Run cmd to completion within budget_s; kill and reap it otherwise."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {budget_s} s")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return out


def expected_metrics(trace):
    """{name: unit} for this mode, from BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line!r}")
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(res["correct"], bool):
        fail("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            fail(f"{k} must be a whole number")
    if res["attempted"] < 1:
        fail("nothing was attempted")
    got = {n: m.get("unit") for n, m in res["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got)} differ from BENCHMARK.json {sorted(expected)}")
    for n, m in res["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v:
            fail(f"metric {n} has no numeric value")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["echo", "spawn_jobs", "mpi_ring"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must not be negative")

    manifest = os.path.join(HERE, "Cargo.toml")
    sources = os.path.join(HERE, os.pardir, "crates", "core", "Cargo.toml")
    if not os.path.isfile(sources):
        fail("the runtime's sources (crates/) are not next to perfbench/")

    env = {k: v for k, v in os.environ.items() if k not in TRACE_ENV}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    t0 = time.monotonic()
    run_child(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env,
        BUILD_BUDGET_S,
        capture=False,
    )
    print(f"# built in {time.monotonic() - t0:.1f} s", file=sys.stderr)

    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target, "perfbench-spans"),
    ]
    out = run_child(cmd, env, RUN_BUDGET_S, capture=True)
    lines = out.rstrip("\n").split("\n")
    res = check_result(lines[-1], expected_metrics(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
