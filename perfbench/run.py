"""The repository benchmark: one workload, every metric, one JSON line.

Usage::

    python3 perfbench/run.py --workload {tpch-olap,versioned-ingest,cdss-exchange} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each measurement runs in a fresh worker
process (``worker.py``) with ``PYTHONHASHSEED`` pinned.  With ``--trace 0``
the command prints the end-to-end metrics named in ``BENCHMARK.json``:
``setup_s`` is the median scaled set-up time of :data:`SETUP_SAMPLES`
workers, the other metrics come from one untraced run.  With ``--trace 1`` it runs the
workload untraced and then traced, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong output row,
a worker that fails, or a traced run whose simulation differs from the
untraced one makes the command exit non-zero.  A summary for people goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-process set-ups per ``--trace 0`` run; their median is ``setup_s``.
SETUP_SAMPLES = 3
#: The whole command must end within this many seconds.
DEADLINE_S = 175.0
#: Metrics that must not differ between the untraced and the traced run.
SIMULATED = ("vt_p50_ms", "vt_p90_ms", "vt_ops_per_s", "wire_bytes", "wire_messages",
             "ok_ops_ratio")


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(f"no system sources at {ROOT / 'src' / 'repro'}; "
                             "run from the root of a full checkout")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spawn(args: argparse.Namespace, phase: str, deadline: float) -> dict:
    """Run one worker phase; returns its JSON report."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--phase", phase, "--size", args.size]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        # On timeout, subprocess.run kills the worker and waits for it.
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{phase} worker ran past the deadline") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{phase} worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{phase} worker printed no report")
    return json.loads(lines[-1])


def check_report(report: dict, phase: str) -> list[str]:
    """Problems that make a measured run untrustworthy."""
    problems = [f"{phase}: {line}" for line in report["wrong"]]
    if report.get("uncalled"):
        problems.append(f"{phase}: boundaries never called: {', '.join(report['uncalled'])}")
    return problems


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = [spawn(args, "setup", deadline)["setup"] for _ in range(SETUP_SAMPLES - 1)]
    report = spawn(args, "run", deadline)
    setups.append(report["setup"])
    metrics = dict(report["metrics"])
    metrics["setup_s"] = statistics.median(setup["scaled_s"] for setup in setups)
    return report, metrics, check_report(report, "run")


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, list[str]]:
    plain = spawn(args, "run", deadline)
    traced = spawn(args, "trace", deadline)
    problems = check_report(plain, "run") + check_report(traced, "trace")
    for name in SIMULATED:
        if plain["metrics"][name] != traced["metrics"][name]:
            problems.append(f"tracing changed {name}: {plain['metrics'][name]} untraced, "
                            f"{traced['metrics'][name]} traced")
    metrics = dict(traced["metrics"])
    # Host speed is a property of the untraced run.
    for name in ("host.raw_ops_per_s", "host.speed"):
        metrics[name] = plain["metrics"][name]
    for part in ("generate_s", "cluster_s", "load_s"):
        metrics[f"setup.{part}"] = plain["setup"][part]
    traced_host_s = traced["metrics"]["host_s"]
    metrics["trace.overhead_ratio"] = traced_host_s / plain["metrics"]["host_s"]
    metrics["trace.unattributed_ratio"] = max(
        0.0, 1.0 - traced["metrics"]["trace.covered_s"] / traced_host_s)
    return traced, metrics, problems


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs, for the self-tests")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = {workload["name"] for workload in spec["workloads"]}
        if args.workload not in names:
            raise BenchmarkError(f"unknown workload {args.workload!r}; one of {sorted(names)}")
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        measure = per_layer if args.trace else end_to_end
        report, metrics, problems = measure(args, deadline)
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2

    result = {
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for problem in problems:
        print(f"WRONG {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{report['attempted']} ops, {report['failed']} failed, "
          f"{report['metrics']['samples']} latency samples", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
