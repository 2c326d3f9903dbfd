"""Smoke test of the benchmark harness at reduced sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload of BENCHMARK.json with ``--small``, untraced and
traced, and checks that the last stdout line names exactly the metrics of
BENCHMARK.json with their units and that no operation failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, *extra):
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if not trace:
            assert m["value"] > 0, name
    assert not [p for p in os.listdir(ROOT) if p.startswith(".bench_work_")]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
