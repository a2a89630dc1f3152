"""Smoke test: every workload at a tiny size emits every named metric.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert completed.returncode == 0, completed.stdout
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, section", [(1, "per_layer"), (0, "end_to_end")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if section == "end_to_end":
        assert all(metric["value"] != 0 for metric in result["metrics"].values())


def test_outside_a_checkout_the_run_fails_without_a_result(tmp_path):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "hard4",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""
