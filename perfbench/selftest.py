"""Self-checks of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/selftest.py``
(about a minute: it runs the benchmark in short subprocesses). The file name
keeps it out of the library's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import inputs
import run
from env import ROOT

WORKLOADS = ("integrals", "modes", "figures")


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_same_seed_same_inputs():
    for make in (inputs.integrals, inputs.modes, inputs.figures):
        assert make(11) == make(11)
    assert inputs.integrals(11) != inputs.integrals(12)
    assert inputs.modes(11) != inputs.modes(12)
    for w in WORKLOADS:
        assert inputs.cold_calls(w, 11) == inputs.cold_calls(w, 11)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_prints_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    doc = result(proc)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert set(doc["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert doc["metrics"][name]["unit"] == unit
        assert doc["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") for line in proc.stdout.splitlines())


def test_traced_counts_repeat_exactly():
    runs = [result(bench("--workload", "modes", "--seed", "5", "--seconds", "1", "--trace", "1"))
            for _ in range(2)]
    for doc in runs:
        assert doc["correct"]
        assert set(doc["metrics"]) == set(run.PER_LAYER)
    counts = [k for k, unit in run.PER_LAYER.items() if unit.startswith("count")]
    first, second = ({k: doc["metrics"][k]["value"] for k in counts} for doc in runs)
    assert first == second


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "integrals", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
