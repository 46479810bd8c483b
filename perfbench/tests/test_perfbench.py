"""Self-tests of the benchmark: determinism, trace neutrality, checks.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

Workloads run at ``--size tiny`` so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import BOUNDARY_NAMES, LayerTrace  # noqa: E402
from scenarios import WORKLOADS, same_rows  # noqa: E402

SIMULATED = ("vt_p50_ms", "vt_p90_ms", "vt_ops_per_s", "wire_bytes", "wire_messages",
             "cdss.conflicts", "cache.node.hit_ratio", "cache.result.hit_ratio",
             "common.codec.encoded_bytes", "net.sim_cpu_busy_max_s")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(workload: str, phase: str, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--phase", phase, "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """Two untraced runs and one traced run of a workload, each in a fresh process."""
    name = request.param
    return name, worker(name, "run"), worker(name, "run"), worker(name, "trace")


def test_workloads_are_the_declared_ones():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_repeated_runs_simulate_identically(runs):
    _name, first, second, _traced = runs
    for metric in SIMULATED:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_tracing_does_not_perturb_the_simulation(runs):
    _name, first, _second, traced = runs
    for metric in SIMULATED:
        assert first["metrics"][metric] == traced["metrics"][metric], metric


def test_no_operation_fails_and_every_output_is_right(runs):
    _name, first, _second, traced = runs
    for report in (first, traced):
        assert report["attempted"] > 0
        assert report["failed"] == 0
        assert report["metrics"]["ok_ops_ratio"] == 1.0
        assert report["wrong"] == []


def test_traced_run_calls_every_expected_boundary(runs):
    name, _first, _second, traced = runs
    assert traced["uncalled"] == []
    for boundary in WORKLOADS[name].EXPECTED_BOUNDARIES:
        assert traced["metrics"][f"{boundary}.calls"] > 0, boundary
    # Self times are disjoint, so they cannot add up to more than the
    # traced wall time they cover.
    self_total = sum(traced["metrics"][f"{b}.self_s"] for b in BOUNDARY_NAMES)
    assert self_total <= traced["metrics"]["trace.covered_s"] * 1.001


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_declared_metric(trace):
    done = run_command("--workload", "cdss-exchange", "--seed", "5", "--seconds", "2",
                       "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_command_fails_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command("--workload", "tpch-olap", "--seed", "1", "--seconds", "2",
                       "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_unknown_workload_is_refused():
    done = run_command("--workload", "nope", "--seed", "1", "--seconds", "2", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_same_rows_tolerates_summation_order_only():
    assert same_rows([("a", 71053129.99499999)], [("a", 71053129.995000001)])
    assert same_rows([(1, 2.5), (0, 1.0)], [(0, 1.0), (1, 2.5)])
    assert not same_rows([("a", 1.0)], [("a", 1.01)])
    assert not same_rows([("a", 1.0)], [("b", 1.0)])
    assert not same_rows([("a", 1.0)], [("a", 1.0), ("a", 1.0)])


def test_trace_patches_imported_names_and_restores_them():
    import repro.common.hashing as hashing

    original = hashing.sha1_key
    trace = LayerTrace().install()
    try:
        assert hashing.sha1_key is not original
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro."):
                assert getattr(module, "sha1_key", None) is not original
        before = trace.calls["common.hash"]
        assert hashing.sha1_key("x") == original("x")
        assert trace.calls["common.hash"] == before + 1
    finally:
        trace.uninstall()
    assert hashing.sha1_key is original


def test_self_time_excludes_child_spans():
    trace = LayerTrace()

    def child():
        return sum(range(20000))

    spanned_child = trace.span("child", child)

    def parent():
        return spanned_child() + spanned_child()

    assert trace.span("parent", parent)() == 2 * child()
    assert trace.calls == {"child": 2, "parent": 1}
    assert trace.covered_s == pytest.approx(
        trace.self_s["parent"] + trace.self_s["child"], rel=1e-9)
    assert trace.self_s["parent"] < trace.covered_s


def test_iterator_steps_are_charged_to_the_boundary_once_counted():
    trace = LayerTrace()
    scan = trace.iterator_span("scan", lambda n: (i * i for i in range(n)))
    iterator = scan(4)
    assert trace.calls == {"scan": 1}
    assert list(iterator) == [0, 1, 4, 9]
    assert trace.calls == {"scan": 1}
    assert trace.self_s["scan"] == pytest.approx(trace.covered_s, rel=1e-9)
