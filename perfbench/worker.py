"""One benchmark phase in a fresh process; prints one JSON line.

``run.py`` starts this script once per set-up sample and once per measured
run, because the system keeps process-wide state (the SHA-1 memo cache and
``ENCODING_STATS``) that a second run in the same process would inherit.

Phases:

* ``setup`` — generate, build and load only; reports the set-up times.
* ``run`` — set-up, then the timed phase untraced (end-to-end metrics).
* ``trace`` — the same with :class:`layers.LayerTrace` installed before the
  cluster is built (per-layer metrics).

Usage: ``python3 perfbench/worker.py --workload NAME --seed N --seconds S
--phase {setup,run,trace} [--size {full,tiny}]``
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-wide iteration order feeds message order; pin it so virtual time and
#: wire bytes repeat exactly.
HASH_SEED = "0"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)

    sys.path.insert(0, str(ROOT / "src"))
    trace = None
    if args.phase == "trace":
        from layers import LayerTrace

        trace = LayerTrace().install()
    from scenarios import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.size)
    report: dict[str, object] = {"setup": workload.setup()}
    if args.phase != "setup":
        outcome, metrics = workload.measure(trace)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace is not None:
            trace.uninstall()
            metrics.update(trace.boundary_metrics())
            metrics["query.operator.rows_in"] = trace.operator_rows_in
            metrics["storage.gets_per_row_returned"] = (
                trace.calls.get("storage.localstore.get", 0) / max(1, trace.rows_returned)
            )
            metrics["query.pages_pruned_ratio"] = (
                trace.scan_pages_pruned / trace.scan_pages_total
                if trace.scan_pages_total else 0.0
            )
            metrics["trace.covered_s"] = trace.covered_s
            report["uncalled"] = [
                name for name in workload.EXPECTED_BOUNDARIES if not trace.calls.get(name)
            ]
        report.update(attempted=outcome.attempted, failed=outcome.failed,
                      wrong=outcome.wrong, metrics=metrics)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
