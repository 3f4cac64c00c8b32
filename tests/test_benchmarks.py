import importlib
import os
import subprocess
import sys

from conftest import child_env

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_jets_runs_with_one_repeat():
    # the committed benchmark script, once through every row, so that it cannot rot
    script = os.path.join(REPO, "benchmarks", "bench_jets.py")
    out = subprocess.run(
        [sys.executable, script, "--repeat", "1"],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
        timeout=300,
    ).stdout
    assert "jet kernels" in out
    stages = [line for line in out.splitlines() if "RK4 stage" in line]
    assert [line.split()[4] for line in stages] == ["2", "20"]
    assert all(float(line.split()[-2]) > 0.0 for line in stages)


def test_perfbench_targets_exist(monkeypatch):
    # perfbench wraps these public calls by attribute; a deleted one must fail here
    # rather than in a benchmark run
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    layers, tracer = (importlib.import_module(name) for name in ("layers", "tracer"))
    targets = layers.targets(tracer.Tracer("guard"))
    assert targets
    for target in targets:
        assert callable(getattr(target.owner, target.attr, None)), (target.owner, target.attr)
