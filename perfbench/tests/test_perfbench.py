"""Tests of the repo benchmark itself (not of the program it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
The end-to-end cases run each workload for one second, plain and traced.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import catalog, cold_solve, paper_tables, serve_mix  # noqa: E402
from perfbench.common import tail  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [name for name, _ in catalog.WORKLOADS]
MODULES = {module.NAME: module for module in (cold_solve, paper_tables, serve_mix)}


def _load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_are_well_formed():
    document = _load_benchmark_json()
    names = [w["name"] for w in document["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in document[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_benchmark_json_is_the_catalogue():
    assert _load_benchmark_json() == catalog.benchmark_json()


def test_benchmark_json_contract():
    document = _load_benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(document["workloads"]) <= 8
    assert set(WORKLOADS) == set(MODULES)
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= document["run_seconds"] <= 60
    runs = 4 + 22 * len(document["workloads"])
    assert runs * (document["run_seconds"] + 12) <= 3420


def test_every_metric_is_documented_and_every_layer_is_in_the_map():
    with open(os.path.join(ROOT, "perfbench", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    for name in catalog.END_TO_END_NAMES + catalog.PER_LAYER_NAMES + tuple(WORKLOADS):
        assert f"`{name}`" in readme, name
    section = readme.split("## Per-layer metrics and what they should move", 1)[1]
    rows = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("| `")]
    for name in catalog.PER_LAYER_NAMES:
        assert any(f"`{name}`" in row.split(" | ")[0] for row in rows), name


def test_tail_reports_the_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1000)])[:2] == (989.0, 0.99)
    value, quantile, count = tail([float(i) for i in range(100)])
    assert (value, quantile, count) == (89.0, 0.9, 100)
    assert tail([1.0, 2.0, 3.0, 10.0]) == (2.5, 0.5, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    module = MODULES[workload]
    first = module.input_signature(module.setup(1, 1.0))
    again = module.input_signature(module.setup(1, 1.0))
    other = module.input_signature(module.setup(2, 1.0))
    assert first == again
    assert first != other


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    document = _load_benchmark_json()
    group = "per_layer" if trace else "end_to_end"
    result = _result(_run(workload, 5, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in document[group]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result


def test_a_different_seed_keeps_the_metric_set():
    first = _result(_run("serve-mix", 1, 0))
    second = _result(_run("serve-mix", 2, 0))
    assert set(first["metrics"]) == set(second["metrics"])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = _run("serve-mix", 1, 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
