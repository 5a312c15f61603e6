"""Tests of the benchmark's own code: metrics, span arithmetic and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
from workloads import WORKLOADS, McReference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_declared_metric(name, trace, tmp_path):
    result = run.measure(name, seed=3, seconds=0.0, trace=bool(trace), out_dir=str(tmp_path),
                         tiny=True, setup_runs=1, min_passes=1)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == set(declared)
    for key, (value, unit) in result["metrics"].items():
        assert math.isfinite(value), key
        assert unit == declared[key], key
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["messages"]


def test_analytic_workload_never_calls_mc(tmp_path):
    result = run.measure("analytic-presets", seed=3, seconds=0.0, trace=True,
                         out_dir=str(tmp_path), tiny=True, setup_runs=1, min_passes=1)
    for key in ("accel.inter_sums.calls", "accel.radial_sums.calls", "mc.calls"):
        assert result["metrics"][key][0] == 0
    assert result["metrics"]["coverage.exact.integrand_evals"][0] > 0


def test_self_times_on_synthetic_tree():
    #  root [0, 10]: children a [1, 4] and b [3, 6] overlap; c [9, 12]
    #  runs past its parent; g [1.5, 3.5] is a's child, not root's.
    start = [0.0, 1.0, 1.5, 3.0, 9.0]
    end = [10.0, 4.0, 3.5, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    root, a, g, b, c = spans.self_times(start, end, parent)
    assert root == pytest.approx(10.0 - 5.0 - 1.0)  # covered: [1, 6] and [9, 10]
    assert a == pytest.approx(3.0 - 2.0)
    assert (g, b, c) == pytest.approx((2.0, 3.0, 3.0))


def test_summarise_counts_integrand_evals_under_exact_points_only():
    tracer = spans.Tracer()
    for outer in (spans.COVERAGE_EXACT, spans.COVERAGE_GC):
        top = tracer.begin(outer)
        for _ in range(3):
            tracer.finish(tracer.begin(spans.LAPLACE_COEXIST))
        tracer.finish(top)
    summary = spans.summarise(tracer)
    assert summary["laplace.coexist.calls"] == 6
    assert summary["coverage.exact.integrand_evals"] == 3
    assert summary["coverage.gc.calls"] == 1
    assert summary["coverage.gc.self_s"] <= summary["coverage.gc.s"]


def test_instrument_restores_the_package():
    from clustercov import cli, mc

    before = (mc.inter_sums, mc.estimate_coverage, cli.coverage, cli.run_sweep)
    with spans.instrument(spans.Tracer()):
        assert mc.inter_sums is not before[0]
    assert (mc.inter_sums, mc.estimate_coverage, cli.coverage, cli.run_sweep) == before


def test_mc_bound_check_rejects_a_value_past_five_sigma():
    q, n = 0.3, 4096
    sigma = math.sqrt(q * (1 - q) / n)
    assert checks.check_mc_bound(q + 3 * sigma, q, n, fixed_size=True) == []
    assert checks.check_mc_bound(q + 5 * sigma, q, n, fixed_size=True)
    assert checks.check_mc_bound(q + 5 * sigma, q, n, fixed_size=False) == []
    assert checks.check_mc_bound(q - 5 * sigma, q, n, fixed_size=False)
    # rare events: one covered trial at n q = 0.027 is no evidence, three are
    assert checks.check_mc_bound(1 / n, 6.64e-6, n, fixed_size=True) == []
    assert checks.check_mc_bound(3 / n, 6.64e-6, n, fixed_size=True)


def test_monotonicity_check_rejects_a_rising_curve():
    assert checks.check_monotone([0.9, 0.5, 0.5, 0.1]) == []
    assert checks.check_monotone([0.9, 0.5, 0.6, 0.1])


def test_gc_exact_check_keeps_its_tolerance():
    assert checks.check_gc_exact(0.5, 0.5 + 9.6e-4) == []
    assert checks.check_gc_exact(0.5, 0.5 + 1.5e-3)
    assert checks.check_gc_exact(math.nan, 0.5)


def _row(scenario, method, bound_side, value, axis="1.0"):
    return {"axis_value": axis, "scenario": scenario, "method": method,
            "bound_side": bound_side, "coverage": repr(value), "stderr": ""}


def test_row_checks_reject_range_and_bound_side():
    good = _row("unordered/fixed-n6", "gc", "upper-bound", 0.4)
    assert checks.check_row(good) == []
    assert checks.check_row(dict(good, coverage="1.2"))
    assert checks.check_row(dict(good, bound_side="lower-bound"))
    assert checks.check_row(_row("unordered/poisson-nbar6@a100m", "gc", "upper-bound", 0.4))
    assert checks.check_row(_row("unordered/poisson-nbar6", "mc", "lower-bound", 0.4))


def test_sweep_check_charges_each_failure_to_its_row():
    q, n = 0.3, 1024
    sigma = math.sqrt(q * (1 - q) / n)
    rows = [
        _row("unordered/fixed-n6", "gc", "upper-bound", q),
        _row("unordered/fixed-n6", "mc", "estimate", q + 5 * sigma),
        _row("unordered/fixed-n6", "exact", "upper-bound", q + 2e-3),
        _row("unordered/fixed-n6", "mc", "estimate", 0.1, axis="2.0"),
    ]
    failures = checks.check_sweep(rows, n)
    assert sorted(failures) == [0, 1, 3]  # GC-vs-exact gap, bound side, no GC partner


def test_mc_reference_counts_a_perturbed_estimate_as_failed(tmp_path):
    workload = McReference(seed=3, out_dir=str(tmp_path), tiny=True)
    results = [op() for _, op in workload.ops]
    seconds = [1.0] * len(results)
    assert workload.collect(results, seconds).failed == 0
    est = results[0]  # unordered/fixed-n6: GC is an upper bound
    q = workload.gc[0][0]
    pushed = q + 5 * math.sqrt(q * (1 - q) / est[0].trials)
    results[0] = [dataclasses.replace(est[0], mean=pushed)] + est[1:]
    result = workload.collect(results, seconds)
    assert result.failed == 1
    assert "upper bound" in result.messages[0]


def test_exits_nonzero_without_printing_a_result_when_the_package_is_absent(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
