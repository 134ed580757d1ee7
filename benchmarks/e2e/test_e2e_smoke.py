"""Smoke test of the end-to-end benchmark at ``--smoke`` scale.

Run explicitly with ``pytest benchmarks/e2e`` — it sits outside the tier-1
``testpaths`` because it starts subprocesses and a server.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from spans import validate_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def test_spec_follows_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(WORKLOADS) <= 8
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_declared_metric(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    printed = {line.split()[0]: line.split() for line in lines[:-1]
               if len(line.split()) == 3}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert printed[metric["name"]][2] == metric["unit"], metric["name"]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        return
    assert "trace_overhead_frac" in result["metrics"]
    assert 0 < result["metrics"]["attributed_frac"]["value"] <= 1
    path = os.path.join(HERE, "out", f"trace.{workload}.jsonl")
    assert validate_trace(path) == []
    assert any(line.startswith("env ") and '"nproc"' in line for line in lines)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = run(WORKLOADS[0], 0, cwd=tmp_path, script=str(target / "run.py"))
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
