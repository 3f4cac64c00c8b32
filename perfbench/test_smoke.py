"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Every metric BENCHMARK.json names must be emitted with its unit, on every
workload, and the result must be correct.  Without the program's sources
next to it the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, timeout=170):
    cmd = SPEC["command"][1:]
    return subprocess.run(
        [sys.executable, *cmd, "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines[-2]
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == 5 and meta["nproc"] >= 1 and meta["backend"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
