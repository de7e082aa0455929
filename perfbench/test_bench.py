"""Tests of the repo benchmark at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
from repro.service import KeyedStore

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def tiny(workload, seed=5, trace=False):
    return bench.run_workload(
        workload, seed, 0.0, trace=trace, size="tiny", setups=1
    )


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    res = tiny(workload)
    units = dict(bench.END_TO_END_UNITS)
    del units["setup_s"]  # added by run.py, which times fresh imports
    assert {k: u for k, (_, u) in res.metrics.items()} == units
    assert all(v > 0 for v, _ in res.metrics.values())
    assert res.attempted > 0 and res.failed == 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    res = tiny(workload, trace=True)
    assert {k: u for k, (_, u) in res.metrics.items()} == bench.PER_LAYER_UNITS
    assert res.metrics["trace.overhead_ratio"][0] > 0
    assert res.failed == 0


@pytest.mark.parametrize(
    "workload, names",
    [
        ("tables", ["kernels.balls_placed"]),
        ("queueing", ["kernels.supermarket.events"]),
        ("service-write", ["kernels.keymap.rehashes", "kernels.keymap.rehash_slots"]),
    ],
)
def test_exact_counts_repeat_for_one_seed(workload, names):
    first = tiny(workload, seed=9, trace=True).metrics
    second = tiny(workload, seed=9, trace=True).metrics
    for name in names:
        assert first[name][0] > 0
        assert first[name] == second[name]


def test_throughput_counts_slow_requests():
    fast = [bench.Request(0.001, 100, True, "step") for _ in range(9)]
    slow = fast[:8] + [bench.Request(0.101, 100, True, "step")]
    even = bench.end_to_end([fast])
    skewed = bench.end_to_end([slow])
    assert even["throughput_per_s"][0] == pytest.approx(100 / 0.001)
    assert skewed["throughput_per_s"][0] == pytest.approx(900 / 0.109)
    assert skewed["latency_p50_ms"] == even["latency_p50_ms"]


@pytest.mark.parametrize("workload", ["tables", "queueing"])
def test_timed_setup_leaves_out_fluid_references(monkeypatch, workload):
    refs = bench.references(workload, "tiny")

    def no_solver(*args, **kwargs):
        raise AssertionError("fluid solver called inside the timed set-up")

    monkeypatch.setattr(bench, "solve_balls_bins", no_solver)
    monkeypatch.setattr(bench, "solve_supermarket", no_solver)
    assert bench.build(workload, 3, "tiny", False, refs).cells


def _plant_tables(monkeypatch):
    real = bench.run_experiment

    def one_ball_too_many(scheme, spec):
        res = real(scheme, spec)
        counts = res.distribution.counts.copy()
        counts[1] -= 1
        counts[2] += 1
        dist = dataclasses.replace(res.distribution, counts=counts)
        return dataclasses.replace(res, distribution=dist)

    monkeypatch.setattr(bench, "run_experiment", one_ball_too_many)


def _plant_queueing(monkeypatch):
    real = bench.simulate_supermarket

    def lost_departures(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, n_departures=res.n_departures // 2)

    monkeypatch.setattr(bench, "simulate_supermarket", lost_departures)


def _plant_service(monkeypatch):
    real = KeyedStore.insert_many

    def wrong_bin(self, keys):
        bins = real(self, keys)
        # Shift every key off its candidates: with d = 2 the candidates
        # are f and f + stride (odd), so f + 2 * stride is never one.
        cand = self.keyed.choices_planar(np.asarray(keys))
        return (2 * cand[1] - cand[0]) % self.n_bins + 0 * bins

    monkeypatch.setattr(KeyedStore, "insert_many", wrong_bin)


@pytest.mark.parametrize(
    "workload, plant",
    [
        ("tables", _plant_tables),
        ("queueing", _plant_queueing),
        ("service-read", _plant_service),
        ("service-write", _plant_service),
    ],
)
def test_planted_wrong_answer_fails_requests(monkeypatch, workload, plant):
    plant(monkeypatch)
    res = tiny(workload)
    assert res.failed > 0
    assert res.failed <= res.attempted


def _cli(args, cwd, env_extra=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_result_last_and_ignores_library_env():
    # An unknown backend name would make every kernel call raise, so a
    # clean run proves the knobs were unset.
    out = _cli(
        ["--workload", "queueing", "--seed", "2", "--seconds", "0",
         "--trace", "0", "--size", "tiny"],
        ROOT, {"REPRO_BACKEND": "bogus", "REPRO_SCHEME": "bogus"},
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    prov = json.loads(lines[-2])["provenance"]
    assert prov["schema"] == 1 and prov["nproc"] >= 1
    assert prov["tiers"]["placement"] in ("numpy", "numba")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    for name, unit in bench.END_TO_END_UNITS.items():
        assert result["metrics"][name]["unit"] == unit


def test_cli_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _cli(
        ["--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
