"""Tests of the benchmark itself: BENCHMARK.json, the output schema of every
workload in smoke mode, the traced run's accounting and the gates.

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, WORKLOAD_NAMES, end_to_end  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT, extra=()):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert 0 < m.get("bound", 0.25) <= 0.25
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_end_to_end(workload):
    result = last_json(run_bench(workload, 0, extra=("--smoke",)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    for value in (v["value"] for v in result["metrics"].values()):
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_traced_accounts_for_the_pass(workload):
    result = last_json(run_bench(workload, 1, extra=("--smoke",)))
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spans.UNITS
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.outside_s"] == pytest.approx(
        metrics["trace.wall_s_traced"], rel=1e-6)
    assert metrics["trace.overhead_s"] == pytest.approx(
        metrics["trace.wall_s_traced"] - metrics["trace.wall_s_untraced"])
    expected_layers = {
        "stationary": "stationary.solve_consistent.calls",
        "evolve": "cli.run.calls",
        "check": "checks.run_all.calls",
    }
    assert metrics[expected_layers[workload]] >= 1


def test_exact_counts_repeat_between_runs():
    first, second = (last_json(run_bench("evolve", 1, extra=("--smoke",)))
                     for _ in range(2))
    for key in spans.EXACT_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_wall_s_sums_each_calls_fastest_clean_run():
    runner = SimpleNamespace(attempted=6, failed=1, samples=[
        [(0.30, 1, True), (0.10, 0, False), (0.20, 1, True)],  # the failed run is faster
        [(0.50, 10, True), (0.40, 10, True), (0.45, 10, True)],
    ])
    metrics = end_to_end(runner, [0.3, 0.1, 0.2])
    assert metrics["wall_s"] == pytest.approx(0.60)
    assert metrics["ops_per_s"] == pytest.approx(11 / 0.60)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["pass_frac"] == pytest.approx(5 / 6)


def test_pass_result_merge_adds_counts_and_keeps_maxima():
    total = workloads.PassResult(attempted=0)
    for err, files in ((1e-6, 3), (4e-6, 2)):
        total.merge(workloads.PassResult(attempted=1, work=1, counts={
            "stationary.nu_rel_err_max": err, "cli.files": files}))
    assert (total.attempted, total.work) == (2, 2)
    assert total.counts == {"stationary.nu_rel_err_max": 4e-6, "cli.files": 5}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("stationary", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_stationary_gate_rejects_a_wrong_answer(tmp_path):
    call = workloads.stationary(0, smoke=True)[0]
    result = call.run(tmp_path)
    assert call.verify(result, tmp_path).failed == 0
    call.analytic = SimpleNamespace(nu=call.analytic.nu * 1.01, sigma_sq=call.analytic.sigma_sq)
    res = call.verify(result, tmp_path)
    assert res.failed == 1 and "W error" in res.problems[0]


def test_evolve_gates_reject_failures_and_drift(tmp_path):
    wl = workloads.evolve(0, smoke=True)[2]
    good = wl.run(tmp_path)
    assert wl.verify(good, tmp_path).failed == 0
    failed = SimpleNamespace(times=good.times[:3], norms=good.norms[:3],
                             failure="step 2: excluded regime")
    assert wl.verify(failed, tmp_path).failed == 1
    drifting = SimpleNamespace(times=good.times, norms=good.norms + np.linspace(0, 1e-9, len(good.norms)),
                               failure=None)
    assert wl.verify(drifting, tmp_path).failed == 1


def test_check_gate_counts_failed_and_missing_checks(tmp_path):
    wl = workloads.check(0, smoke=True)[0]
    reports = [{"name": f"c{i}", "passed": i != 0} for i in range(wl.operations - 1)]
    (tmp_path / "check_report.json").write_text(json.dumps(reports))
    res = wl.verify(1, tmp_path)
    assert res.attempted == wl.operations and res.failed == 2


def test_tracer_self_time_and_bindings():
    import gupnlse.evolution
    import gupnlse.fields

    original = gupnlse.fields.field_stats
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gupnlse.evolution.field_stats is gupnlse.fields.field_stats is not original
        tracer.begin_pass()
        grid = gupnlse.fields.Grid.centered(8.0, 64)
        gupnlse.fields.field_stats(gupnlse.fields.gaussian_state(grid, 1.0))
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert gupnlse.evolution.field_stats is original
    metrics, unsteady = tracer.layer_metrics([1.0])
    assert metrics["fields.field_stats.calls"] == 1
    # field_stats calls fisher_per_dim through its own module's binding
    assert metrics["fields.fisher_per_dim.calls"] == 1
    assert metrics["evolution.evolve.calls"] == 0 and unsteady == []
