#!/usr/bin/env python3
"""End-to-end benchmark of ``finslercheck verify`` with per-layer timings.

Run from the repository root:

    python3 perfbench/run.py --workload geodesic_battery --seed 1 --seconds 30 --trace 0

One process generates the load: it writes the workload's configs, one per
sub-seed of ``--seed`` (in ``sampling.seed``), then runs whole verify
passes in-process through the public path ``cli.run_config`` ->
``checks.run_check`` -> ``report.to_json`` until the passes add up to
``--seconds``.  Each untraced pass runs under a ``reference.HostClock``,
which gives its time in wall seconds and in seconds normalised by the
host's speed during the pass.  BLAS threads are pinned to the number of
usable cores.

``--trace 0`` reports the end-to-end metrics (``verify_s``, ``setup_s``,
``peak_rss_mb``, ``check_pass_share``); ``--trace 1`` makes its first
config's second pass traced and reports the per-layer metrics of
``layers.py`` instead, writing the spans to ``perfbench/out/``.  Every run also checks its reports (see
``Gate``) and runs the negative control.  The last line of standard output
is the result as one JSON object; the line before it is the run metadata.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from reference import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up samples taken before the first pass and after each of these shares
# of ``--seconds``, so one run's median spans the run's whole duration, not
# one moment of it.
SETUP_PER_SLOT = {"full": 2, "tiny": 1}
SETUP_CHECKPOINTS = (0.25, 0.5, 0.75)
# Each run verifies this many configs, one per sub-seed of ``--seed``, in
# turn.  A pass's cost depends on where its samples fall (on
# ``family_reconstruction`` one sample costs from 0.06 to 0.4 s), so the
# run's figure must cover many distinct samples, not a few seen repeatedly.
CONFIGS_PER_RUN = 8
PACKAGE = "finslercheck"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# The set-up probe runs with one BLAS thread.  With more, importing numpy
# starts a BLAS thread pool whose start-up runs on another core when the
# host has one free and on the probe's own core when not, so the probe's
# wall time swings by a factor of two with other tenants' load.
SETUP_BLAS_ENV = dict.fromkeys(BLAS_THREAD_VARS, "1")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> str:
    threads = str(usable_cores())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    return threads


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Gate:
    """Correctness items of one run; a miss on any item makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def report(self, report, code: int, expected_lambda: float) -> None:
        """Every record passes; each curvature estimate hits its constant."""
        for rec in report.records:
            self.expect(rec.passed, f"{rec.check}: failed (max residual {rec.max_residual!r})")
            if rec.check == "curvature":
                estimate = rec.detail.get("lambda_estimate")
                self.expect(
                    estimate is not None and abs(estimate - expected_lambda) <= rec.tolerance,
                    f"curvature: lambda {estimate!r} is not {expected_lambda} within {rec.tolerance}",
                )
        self.expect(code == 0, f"verify exit code {code}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def negative_control(gate: Gate) -> None:
    """The anisotropic template must fail ``symmetry`` and exit 1."""
    from finslercheck.cli import run_config
    from workloads import NEGATIVE_CONTROL

    try:
        report, code = run_config(str(NEGATIVE_CONTROL))
    except Exception as err:  # a crash fails the gate instead of ending the run
        report, code = None, f"raised {err!r}"
    symmetry_failed = report is not None and any(
        r.check == "symmetry" and not r.passed for r in report.records
    )
    gate.expect(
        code == 1 and symmetry_failed,
        f"negative control passed vacuously (exit {code}, symmetry failed: {symmetry_failed})",
    )


def measure_setup(cfg_path: Path, repeats: int, discard_first: bool = False) -> list[dict]:
    """Set-up times, each from a fresh interpreter (see ``setup_probe.py``).

    The very first start in a checkout compiles the bytecode caches, so the
    caller discards it.
    """
    times = []
    for _ in range(repeats + discard_first):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path)],
            env=dict(os.environ, **SETUP_BLAS_ENV),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(json.loads(done.stdout.splitlines()[-1]))
    return times[discard_first:]


def verify_pass(cfg_path: Path, tracer=None):
    """(clock, report JSON, report, outcome) of one pass.

    The ``HostClock`` holds the pass's wall and normalised seconds.  The
    JSON is None when the pass made no report; the outcome is then the
    exit code or the exception it raised.
    """
    from finslercheck.cli import run_config
    from finslercheck.report import to_json

    gc.collect()
    # The traced pass is not sampled: its spans would count the chunks.
    clock = HostClock(sampling=tracer is None)
    try:
        with clock, tracer.span("cli.verify") if tracer is not None else nullcontext():
            report, code = run_config(str(cfg_path))
            text = to_json(report) if report is not None else None
    except Exception as err:  # a crash fails the gate instead of ending the run
        return clock, None, None, f"raised {err!r}"
    return clock, text, report, code


def sub_seeds(seed: int) -> list[int]:
    return [seed * CONFIGS_PER_RUN + k for k in range(CONFIGS_PER_RUN)]


@dataclass
class Passes:
    untraced_s: list  # per config, the wall seconds of each of its untraced passes
    norm_s: list  # the same passes in normalised seconds (see reference.HostClock)
    traced_s: float | None = None  # the traced pass, of the first config

    @staticmethod
    def total(per_config: list) -> float:
        """Seconds to verify every config once, each at its median pass."""
        return sum(statistics.median(times) for times in per_config)


def run_passes(args, workload, cfg_paths: list, gate: Gate, setup, tracer=None, targets=()):
    """Verify passes of each config in turn, until they add up to ``--seconds``.

    Every config gets an untraced pass, and the first config a second
    pass, whose report must be byte-identical to its first.  With a tracer
    that second pass is the traced one, with ``targets`` wrapped.
    ``setup()`` runs between passes, once the passes pass each of
    ``SETUP_CHECKPOINTS``.
    """
    checkpoints = [share * args.seconds for share in SETUP_CHECKPOINTS]
    done = Passes([[] for _ in cfg_paths], [[] for _ in cfg_paths])
    first = [None] * len(cfg_paths)
    measured = 0.0
    for i in itertools.count():
        k = i % len(cfg_paths)
        traced_now = tracer is not None and i == len(cfg_paths)
        if traced_now:
            with tracer.active(targets, PACKAGE):
                clock, text, report, outcome = verify_pass(cfg_paths[k], tracer)
            done.traced_s = clock.wall_s
        else:
            clock, text, report, outcome = verify_pass(cfg_paths[k])
            done.untraced_s[k].append(clock.wall_s)
            done.norm_s[k].append(clock.norm_s)
        measured += clock.wall_s
        if text is None:
            gate.expect(False, f"verify pass made no report ({outcome})")
            return done
        if first[k] is None:
            first[k] = text
            gate.report(report, outcome, workload.expected_lambda)
        else:
            where = " (traced pass)" if traced_now else ""
            gate.expect(text == first[k], f"config {k}: report differs from its first pass" + where)
        if i >= len(cfg_paths) and measured >= args.seconds:
            return done
        passed = sum(1 for at in checkpoints if measured >= at)
        if passed:
            del checkpoints[:passed]
            setup()


def main(argv=None) -> int:
    from workloads import FAMILY_TEMPLATE, WORKLOADS, build_metric

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test"
    )
    args = parser.parse_args(argv)

    if not (SRC / "finslercheck" / "__init__.py").is_file():
        print(f"error: no finslercheck sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        cfgs = [workload.config(sub_seed, args.size) for sub_seed in sub_seeds(args.seed)]
        warm_cfg = workload.config(args.seed, "tiny")
    except OSError as err:
        print(f"error: cannot read the workload template: {err}", file=sys.stderr)
        return 2

    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import finslercheck

    if Path(finslercheck.__file__).resolve().parent != SRC / "finslercheck":
        print(f"error: imported finslercheck from {finslercheck.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}"
    cfg_paths = [OUT / f"{stem}-{k}.json" for k in range(len(cfgs))]
    for cfg, cfg_path in zip(cfgs, cfg_paths):
        cfg_path.write_text(json.dumps(cfg, indent=1))
    warm_path = OUT / f"{stem}-warmup.json"
    warm_path.write_text(json.dumps(warm_cfg, indent=1))

    gate = Gate()
    negative_control(gate)
    tracer = kit = None
    targets = []
    per_slot = 0 if args.trace else SETUP_PER_SLOT[args.size]
    setup_times = measure_setup(cfg_paths[0], per_slot, discard_first=not args.trace)
    if args.trace:
        import layers
        from tracer import Tracer

        cfg = cfgs[0]
        metric = build_metric(cfg)
        family_cfg = WORKLOADS[FAMILY_TEMPLATE].config(args.seed, "tiny")
        own_family = metric if args.workload == FAMILY_TEMPLATE else None
        kit = layers.ProbeKit.build(cfg, metric, family_cfg, own_family)
        tracer = Tracer(f"{args.workload}:{args.seed}:verify")
        targets = layers.targets(tracer)

    verify_pass(warm_path)  # fills the jet index tables and other lazy caches
    passes = run_passes(
        args, workload, cfg_paths, gate,
        lambda: setup_times.extend(measure_setup(cfg_paths[0], per_slot)),
        tracer, targets,
    )

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "sub_seeds": sub_seeds(args.seed),
        "size": args.size,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(finslercheck, "backend_name", lambda: "n/a")(),
        "nproc": usable_cores(),
        "blas_threads": blas_threads,
        "verify_wall_s": Passes.total(passes.untraced_s),
        "verify_pass_s": passes.untraced_s,
        "verify_pass_norm_s": passes.norm_s,
        "failures": gate.failures,
    }
    values = {}
    if tracer is not None and passes.traced_s is not None:
        probes = layers.run_probes(tracer, kit, tracer.run_id)
        values = layers.per_layer_metrics(tracer, probes, passes.traced_s, passes.untraced_s[0])
        meta["traced_verify_s"] = passes.traced_s
        meta["probed"] = sorted(probes)
        tracer.write_spans(OUT / f"{stem}.spans.jsonl.gz")
        summaries = {"verify": tracer.summary(), "probes": {k: t.summary() for k, t in probes.items()}}
        (OUT / f"{stem}.trace.json").write_text(json.dumps(summaries, indent=1))
    elif tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        meta["setup_runs_s"] = [t["setup_wall_s"] for t in setup_times]
        meta["setup_runs_norm_s"] = [t["setup_s"] for t in setup_times]
        values = {
            "verify_s": (Passes.total(passes.norm_s), "s"),
            "setup_s": (statistics.median(meta["setup_runs_norm_s"]), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "check_pass_share": (1.0 - gate.failed / gate.attempted, "share"),
        }
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    (OUT / f"{stem}-trace{args.trace}.result.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1)
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
