"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import inclusive_times, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, load_record


@pytest.fixture(scope="module")
def traced():
    """One traced tiny operation pair per workload."""
    return {
        name: run.run_workload(w, DEFAULT_SEED, 0, True, tiny=True)
        for name, w in WORKLOADS.items()
    }


def _tree(path):
    return sorted((str(p), p.stat().st_mtime_ns) for p in path.rglob("*"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke(name):
    before = _tree(run.SRC)
    result = run.run_workload(WORKLOADS[name], DEFAULT_SEED, 0, False, tiny=True, setup_repeats=1)
    assert _tree(run.SRC) == before  # bytecode goes to the run's own cache
    assert result["attempted"] == 1
    assert result["failed"] == 0
    assert result["reference"]["exit_code"] == 0
    assert set(result["metrics"]) == {m["name"] for m in run.load_benchmark()["end_to_end"]}
    assert all(value > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_predicted_layer_metrics_are_nonzero(traced, name):
    metrics = traced[name]["metrics"]
    assert traced[name]["failed"] == 0
    assert [m for m in WORKLOADS[name].predictions if not metrics.get(m, 0.0) > 0] == []
    assert metrics["trace.overhead_s"] == metrics["trace.run_s"] - metrics["trace.untraced_run_s"]


def test_every_per_layer_metric_is_produced(traced):
    produced = set().union(*(r["metrics"] for r in traced.values()))
    names = {m["name"] for m in run.load_benchmark()["per_layer"]}
    assert names <= produced
    assert set().union(*(w.predictions for w in WORKLOADS.values())) <= names


def test_corrupted_reference_counts_in_fail_share():
    workload = WORKLOADS["functionals-2d"]
    good = run.run_workload(workload, DEFAULT_SEED, 0, False, tiny=True, setup_repeats=1)
    reference = copy.deepcopy(good["reference"])
    reference["values"]["wgr"]["witness"]["center"] += 1
    bad = run.run_workload(
        workload, DEFAULT_SEED, 0, False, tiny=True, setup_repeats=1, reference=reference
    )
    assert bad["failed"] == bad["attempted"] == 1
    assert bad["fail_share"] == 1.0


def test_record_matches_the_generators():
    record = load_record()
    assert record["default_seed"] == DEFAULT_SEED
    for name, workload in WORKLOADS.items():
        entry = record["workloads"][name]
        assert entry["config"] == workload.config(DEFAULT_SEED)
        assert entry["predictions"] == workload.predictions
        assert entry["reference"]["exit_code"] == 0
        assert set(entry["shares_of_run_s"]) == {"start-up", "setup_s", *workload.share_layers}


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.load_benchmark()["workloads"]] == list(WORKLOADS)


def test_configs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert json.dumps(workload.config(3)) == json.dumps(workload.config(3))
        assert workload.config(3) != workload.config(4)


def test_self_time_subtracts_children():
    spans = [
        ["a.root", 0.0, 10.0, -1, None],
        ["a.child", 1.0, 4.0, 0, None],
        ["a.leaf", 2.0, 3.0, 1, None],
        ["a.child", 5.0, 6.0, 0, None],
    ]
    metrics = layer_metrics(spans)
    assert metrics["a.root.s"] == 6.0
    assert metrics["a.child.s"] == 3.0
    assert metrics["a.child.calls"] == 2


def test_inclusive_times_count_outermost_spans():
    spans = [
        ["a.f", 0.0, 10.0, -1, None],
        ["a.f", 1.0, 4.0, 0, None],
        ["b.g", 5.0, 7.0, 0, None],
        ["a.h", 5.5, 6.0, 2, None],
        ["a.h", 11.0, 12.0, -1, None],
    ]
    assert inclusive_times(spans) == {"a.f": 10.0, "a": 11.0, "b.g": 2.0, "b": 2.0, "a.h": 1.5}


def test_tracer_only_wraps_the_named_functions_and_modules():
    snippet = (
        "import sys, tracer\n"
        "sys.path.insert(0, str(tracer.SRC))\n"
        "tracer.Tracer().install({'cli.main', 'czdecomp', 'space.dist_row'})\n"
        "from wgrkit import cli, czdecomp, space, weights\n"
        "print(sorted(n for m in (cli, czdecomp, weights, space.FiniteMetricMeasureSpace)\n"
        "             for n, v in vars(m).items() if hasattr(v, '__wrapped__')\n"
        "             and n in ('main', 'run_check', 'cz_nested', 'dist_row', 'ball_members',\n"
        "                       'wgr_epsilon')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(run.HERE), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["cz_nested", "dist_row", "main"])


def test_tracer_rebinds_every_imported_name():
    snippet = (
        "import inspect, sys, tracer\n"
        "sys.path.insert(0, str(tracer.SRC))\n"
        "t = tracer.Tracer(); t.install()\n"
        "bad = [f'{m}.{a}' for m, mod in list(sys.modules.items()) if m.startswith('wgrkit')\n"
        "       for a, v in vars(mod).items() if inspect.isfunction(v)\n"
        "       and v.__module__.startswith('wgrkit') and not v.__name__.startswith('_')\n"
        "       and not hasattr(v, '__wrapped__')]\n"
        "print(bad)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(run.HERE), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", snippet], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tail_and_verdict():
    assert run.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)
    parent = [1.0 + 0.001 * i for i in range(10)]
    assert run.verdict(parent, [0.8 + 0.001 * i for i in range(10)], "lower", 0.1) == "improved"
    assert run.verdict(parent, [1.02 + 0.001 * i for i in range(10)], "lower", 0.1) == "no worse"
    assert run.verdict(parent, [1.5] * 10, "lower", 0.1) == "worse"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.9, 1.6, 0.6, 1.2, 1.0, 1.4]
    assert run.verdict(parent, noisy, "lower", 0.1) == "unresolved"


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cz-nested-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
