"""Tests of the benchmark harness itself (run: python -m pytest perfbench/tests)."""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def _cheap(workload, kind, **changes):
    task = next(t for t in workloads.make_inputs(workload, 3) if t["kind"] == kind)
    task.update(changes)
    return task


@pytest.mark.parametrize("task", [
    _cheap("pathways", "mehler", degrees=[0, 3, 7], thetas=[0.5, 2.0]),
    _cheap("series", "counterexample", kmax=256, check_degrees=[0, 5, 256]),
    _cheap("transform", "sweep", alpha=-0.5, beta=-0.5, tau_max=20.0),
    _cheap("bounds", "identity", kmax=5),
    _cheap("bounds", "bound_profile", kmax=20, check_degrees=[0, 7, 20]),
], ids=lambda t: t["kind"])
def test_perturbed_result_is_counted_as_failed(task):
    import fourierjacobi as fj
    out = workloads.run_task(fj, task)
    assert workloads.check_task(task, out)[0]
    bad = {key: value * (1.0 + 1e-6) + 1e-6 for key, value in out.items()}
    assert not workloads.check_task(task, bad)[0]


def test_failures_count_raises_oracle_misses_and_changed_outputs():
    first = {"ids": ["w/00/a", "w/01/b", "w/02/c"], "digests": ["x", "y", "z"],
             "oracle_failures": ["w/01/b: max err 1e-3"]}
    later = {"ids": first["ids"], "digests": [None, "y", "changed"]}
    failed = run.failures([first, later])
    assert failed == ["round 0: w/01/b missed its oracle", "round 1: w/00/a raised",
                      "round 1: w/01/b missed its oracle",
                      "round 1: w/02/c output differs from round 0"]


@pytest.mark.parametrize("name", ["wall s", "wall/s", "", "_wall", "wäll", "x" * 65])
def test_bad_metric_names_are_rejected(name):
    with pytest.raises(ValueError):
        run.metric(name, 1.0, "s")


def test_good_metric_names_are_accepted():
    assert run.metric("specfun.hyp2f1_s", 1.5, "s") == (
        "specfun.hyp2f1_s", {"value": 1.5, "unit": "s"})


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_reports_missing_names_as_absent():
    package = types.SimpleNamespace(mehler=types.SimpleNamespace())
    tracer = tracing.Tracer(package)
    assert "mehler._hyp2f1_array" in tracer.absent
    assert "jtransform._cosine_data" in tracer.absent
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.LAYER_METRICS) - {"trace.overhead_ratio"}
    assert metrics["specfun.hyp2f1_calls"] == 0


def test_tracer_counts_rule_cache_and_restores_names():
    import fourierjacobi as fj
    original = fj.series._integrate_pieces
    fj.quadrature._gauss_jacobi_cached.cache_clear()
    tracer = tracing.Tracer(fj)
    try:
        step = fj.series.StepFunction((1.0, 2.0), (0.0, 1.0, 0.0))
        fj.series.coefficient_series(step, 16, fj.specfun.JacobiParams(0.0, 0.0))
        metrics = tracer.metrics()
        spans = tracer.spans()
    finally:
        tracer.restore()
    assert fj.series._integrate_pieces is original
    assert metrics["series.passes"] >= 2
    assert metrics["series.passes_per_series"] == metrics["series.passes"]
    assert metrics["quadrature.rules_built"] >= 2
    # Self times split the inclusive pass time between the layers.
    inclusive = spans["series.integrate"]["s"]
    assert metrics["series.integrate_s"] + metrics["specfun.table_s"] <= inclusive
    assert metrics["series.integrate_s"] < inclusive


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bounds",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_are_plain_json():
    for workload in workloads.WORKLOADS:
        tasks = workloads.make_inputs(workload, 5)
        assert json.loads(json.dumps(tasks)) == tasks
        assert len({t["id"] for t in tasks}) == len(tasks)
        assert all(np.isfinite(v) for t in tasks for v in t.values()
                   if isinstance(v, float))
