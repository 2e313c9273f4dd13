"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 1):
    """The workload at a few hundred cycles, two windows and two points."""
    w = WORKLOADS[name](seed)
    campaign = replace(w.campaign, configs=w.campaign.configs[:2],
                       warmup=50, measure=150)
    return replace(w, windows=w.windows[:2], warmup=50, measure=150,
                   campaign=campaign)


def run_tiny(name: str, tmp_path: Path, traced: bool):
    run = bench.Run(tiny(name), ROOT, tmp_path, seconds=0, traced=traced)
    run.execute()
    return run, bench.report(run)


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, build(1).why) for name, build in WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        bench.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        bench.PER_LAYER_UNITS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_emits_exactly_the_declared_metrics(name, traced,
                                                          tmp_path):
    run, result = run_tiny(name, tmp_path, traced)
    key = "per_layer" if traced else "end_to_end"
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if traced:
        path = tmp_path / "trace.json"
        run.recorder.write_chrome(path)
        events = json.loads(path.read_text())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"engine.step", "traffic.step", "fabric.step", "scheme.step",
                "cache.put", "pool.run_points", "service.cold_job"} <= names


def test_perturbed_backend_result_trips_the_gate(tmp_path, monkeypatch):
    real = bench.run_window

    def perturbed(config, warmup, measure, backend, *args):
        run = real(config, warmup, measure, backend, *args)
        if backend == "vector":
            run.result = replace(run.result, messages_delivered=(
                run.result.messages_delivered + 1))
        return run

    monkeypatch.setattr(bench, "run_window", perturbed)
    _, result = run_tiny("dr-light", tmp_path, traced=False)
    assert not result["correct"]
    assert result["failed"] > 0


def test_perturbed_front_end_result_trips_the_gate(tmp_path, monkeypatch):
    real = bench.farm_cold

    def perturbed(spec, cache_dir, recorder=None):
        results, wall = real(spec, cache_dir, recorder)
        return [replace(results[0], mean_latency=-1.0)] + results[1:], wall

    monkeypatch.setattr(bench, "farm_cold", perturbed)
    _, result = run_tiny("campaign-ladder", tmp_path, traced=False)
    assert not result["correct"]
    assert result["failed"] == 1


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()

    class Layer:
        def step(self):
            time.sleep(0.01)

    layer = Layer()
    rec.wrap(layer, "step", "child.step")
    with rec.span("parent"):
        time.sleep(0.01)
        layer.step()
    self_s = rec.self_times()
    (parent_s,) = rec.durations("parent")
    assert self_s["parent"] + self_s["child.step"] == pytest.approx(parent_s)
    assert self_s["child.step"] >= 0.01


def test_exits_nonzero_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dr-light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
