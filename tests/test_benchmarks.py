import importlib
import json
import os
import subprocess
import sys

import pytest
from conftest import child_env

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


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


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perfbench_probes_run(workload, monkeypatch):
    # the probe kit calls phi_jet, ambient_jet and the pointwise wrappers on each
    # workload's tiny metric; a change to them must fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    layers, tracer, workloads = (importlib.import_module(name) for name in ("layers", "tracer", "workloads"))
    cfg = workloads.WORKLOADS[workload].config(5, "tiny")
    metric = workloads.build_metric(cfg)
    family_cfg = workloads.WORKLOADS[workloads.FAMILY_TEMPLATE].config(5, "tiny")
    own_family = metric if workload == workloads.FAMILY_TEMPLATE else None
    kit = layers.ProbeKit.build(cfg, metric, family_cfg, own_family)
    probes = layers.run_probes(tracer.Tracer("guard"), kit, "guard")
    assert set(probes) == {stat for stat, _ in layers.PER_CALL.values()}
    for stat, probe in probes.items():
        assert probe.stats[stat].calls >= 1, stat
