"""Self-tests of the benchmark, run at tiny sizes:

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package's own test run: they check the
benchmark against the package as it is at this commit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reconstab import attack, harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep-rf": dict(model="rf", k=60, d_x=5, d_y=5, activation="h1+h2",
                     n_grid=[30], trials=1, gamma_trials=3, test_size=20),
    "sweep-ntk": dict(model="ntk", k=8, d_x=4, d_y=4, activation="h0+h1",
                      n_grid=[30], trials=1, gamma_trials=2, test_size=20),
    "covariance-rf": dict(kind="rf", activation="h1+h2", k=60, n=20, d_x=5, d_y=5, trials=10),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, params in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name,
                            dataclasses.replace(workloads.WORKLOADS[name], params=params))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def tiny_job(name: str):
    return workloads.WORKLOADS[name].job(TINY[name], seed=1)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    layer_better = {m.name: m.better for m in tracing.LAYER_METRICS}
    layer_better.update({name: better for name, _, better in tracing.HARNESS_METRICS})
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == layer_better
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    known = set(run.WORKLOAD_NAMES) | {""}
    for metric in tracing.LAYER_METRICS:
        assert set(metric.shows_on.split(",")) <= known
        assert set(metric.quiet_on.split(",")) <= known
        assert set(metric.moves.split(",")) <= set(bounds) | {""}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_emits_every_metric(tiny, name):
    untraced = run.run_one(name, seed=1, seconds=0, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == want
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    traced = run.run_one(name, seed=1, seconds=0, trace=True)
    # one untraced and one traced rep, each with the same checks
    assert traced["correct"] and traced["attempted"] == 2 * untraced["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in traced["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_add_up_to_the_traced_wall(name):
    job = tiny_job(name)
    tracer = tracing.Tracer()
    with tracer.installed():
        job.run()
    trace = tracer.trace
    assert trace.calls("linops.factor") >= 1
    assert all(s.self_time >= 0 for s in trace.spans)
    assert sum(s.self_time for s in trace.spans) == pytest.approx(trace.wall(), rel=1e-9)


def test_tracer_restores_the_package():
    before = harness.run_sweep, attack.fit_min_norm, vars(attack.AlignmentSolver)["__init__"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert harness.run_sweep is not before[0]
        tiny_job("sweep-rf").run()
    assert (harness.run_sweep, attack.fit_min_norm,
            vars(attack.AlignmentSolver)["__init__"]) == before


def test_absent_entry_point_leaves_its_metrics_out(monkeypatch):
    entries = [e for e in tracing.ENTRY_POINTS if e[0] != "hermite.coefficients"]
    entries.append(("hermite.coefficients", "hermite", "no_such_function"))
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tuple(entries))
    job = tiny_job("covariance-rf")
    result = workloads.measure(job, seconds=0, trace=True)
    summary = tracing.summarize(result.traces, result.walls)
    assert "hermite.coefficients_s" not in summary and "hermite.nodes" not in summary
    assert "linops.factor_s" in summary and result.tally.failed == 0


def test_corrupted_row_raises_fail_ratio(monkeypatch):
    job = tiny_job("sweep-rf")
    clean = workloads.measure(job, seconds=0, trace=False).tally
    assert clean.failed == 0

    real = harness.run_sweep

    def corrupted(config, workers=1):
        rows = real(config, workers=workers)
        return [dataclasses.replace(rows[0], error="SingularKernel: corrupted")] + rows[1:]

    monkeypatch.setattr(harness, "run_sweep", corrupted)
    tally = workloads.measure(job, seconds=0, trace=False).tally
    assert tally.failed / tally.attempted > clean.failed / clean.attempted


def test_corrupted_outputs_fail_their_checks():
    tally = workloads.Tally()
    workloads.check_fits([(1e-3, 1.0)], tally)
    assert tally.failed == 1

    result = tiny_job("covariance-rf").run()
    workloads.check_covariance(result, tally)
    assert tally.failed == 1
    workloads.check_covariance(dataclasses.replace(result, gamma_mean=math.nan), tally)
    workloads.check_covariance(
        dataclasses.replace(result, first_equality_gap=10 * result.combined_se), tally)
    assert tally.failed == 3


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-rf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
