"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py

It checks the output contract (every metric BENCHMARK.json names, with its
unit, and nothing else), that no pass fails, that the seed changes every
workload's clip, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from workloads import WORKLOADS  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_reports_every_metric(workload, trace, section):
    done = run("--workload", workload, "--seed", "2", "--seconds", "0.5",
               "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        assert values["fail_ratio"] == 0
        assert values["harness.self_s"] >= 0
    else:
        assert values["ok_ratio"] == 1
        assert all(values[m["name"]] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_seed_changes_the_clip(workload):
    one, two = (WORKLOADS[workload].frames(seed, tiny=True)
                for seed in (1, 2))
    assert not all(np.array_equal(a, b) for a, b in zip(one, two))
    again = WORKLOADS[workload].frames(1, tiny=True)
    assert all(np.array_equal(a, b) for a, b in zip(one, again))


def test_workloads_match_benchmark_json():
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)


def test_predictions_cite_known_names():
    predictions = json.loads((HERE / "predictions.json").read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for entry in predictions["predictions"] + predictions["known_defects"]:
        assert entry["workload"] in WORKLOAD_NAMES, entry
        assert set(entry["layer_metrics"]) <= metrics, entry
        assert set(entry.get("moves", [])) <= metrics, entry


def test_refuses_to_run_without_sources():
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    done = run("--workload", WORKLOAD_NAMES[0], "--seed", "1",
               "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
