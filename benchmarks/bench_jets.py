#!/usr/bin/env python3
"""Benchmark the jet kernels and a few per-point workloads.

Times a jet product and a series composition (sqrt) on representative
table sizes, for one-point jets and for 15-point batched jets (one
Gauss-Legendre panel), then a realistic workload (profile jets of the funk
metric, flag curvature evaluations, the family funk profile bundle of
``configs/family_funk_reconstruction.json``, the Bryant n=4 ambient bundle of
200 samples and the tensor Killing scan over it that ``symmetry_tensor`` runs)
and the fixed cost of one geodesic RK4 stage (funk n=2, one batched spray over
2 and over 20 paths), with the parts of a stage.
Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_jets.py [--repeat N]
"""

import argparse
import math
import time

import numpy as np

from finslercheck.jets import Jet, sqrt
from finslercheck._multi_index import coeff_count, product_table

BATCH = 15


def time_fn(fn, repeat):
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn()
        best = min(best, (time.perf_counter() - t0) / repeat)
    return best


def bench_kernels(repeat):
    rows = []
    for nvars, order in [(3, 2), (3, 3), (4, 3), (8, 3)]:
        n = coeff_count(nvars, order)
        rng = np.random.default_rng(12345)
        times = {}
        for label, shape in (("1", (n,)), (str(BATCH), (n, BATCH))):
            a = Jet(nvars, order, rng.uniform(-2, 2, shape))
            b = Jet(nvars, order, rng.uniform(-2, 2, shape))
            a.coeffs[0] = 1.5  # a positive value row for sqrt
            times[f"mul/{label}"] = time_fn(lambda: a * b, repeat)
            times[f"sqrt/{label}"] = time_fn(lambda: sqrt(a), repeat)
        rows.append((nvars, order, len(product_table(nvars, order)[0]), times))
    return rows


def bench_workload():
    from finslercheck.family import ProjectiveFamilySpec, build_projective_metric
    from finslercheck.metrics import AmbientBundle, ProfileBundle, builtin
    from finslercheck.projective import flag_curvature
    from finslercheck.sampling import SampleSpec, sample_domain
    from finslercheck.symmetry import rotation_fields, symmetry_tensor_of

    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=200, seed=7, domain_radius=1.0))

    t0 = time.perf_counter()
    for s in samples:
        funk.phi_jet(s.r, s.u, s.v, 2)
    jet_time = (time.perf_counter() - t0) / len(samples)

    t0 = time.perf_counter()
    for s in samples:
        flag_curvature(funk, s.r, s.u, s.v)
    lam_time = (time.perf_counter() - t0) / len(samples)

    # the family config's metric and its 120 samples: one order-2 profile bundle
    family = build_projective_metric(
        ProjectiveFamilySpec(
            f="1/sqrt(1+t)", g="1/(1-r^2)", h="1/(1-r^2)", baseline="abs_corrected"
        )
    )
    samples_f = sample_domain(SampleSpec.for_metric(n=2, count=120, seed=7, domain_radius=1.0))
    t0 = time.perf_counter()
    ProfileBundle.of(family, samples_f.x, samples_f.y)
    family_time = (time.perf_counter() - t0) / len(samples_f)

    bryant = builtin("bryant", alpha=math.pi / 6)
    # 200 samples, as a verify run has: the bundle is built in chunks of AMBIENT_CHUNK
    samples4 = sample_domain(SampleSpec.for_metric(n=4, count=200, seed=7, domain_radius=math.inf))
    t0 = time.perf_counter()
    b = AmbientBundle.of(bryant, samples4.x, samples4.y)
    bundle_time = (time.perf_counter() - t0) / len(samples4)

    # what check_symmetry_tensor runs: the scan over the rotation fields, with the
    # bundle's g, dg/dx and C, which a bundle forms once (a fresh one each call)
    fields = rotation_fields(4)
    tensor_time = time_fn(lambda: symmetry_tensor_of(AmbientBundle(b.x, b.y, b.f), fields), 5)

    return jet_time, lam_time, family_time, bundle_time, tensor_time


STAGE_PARTS = ("invariant_rows", "phi_jets", "bundle assembly", "spray", "integrator")


def time_interleaved(loops, rounds=5):
    """Best seconds per call of each (fn, count) loop over ``rounds`` rounds, each
    round running every loop once in turn, so that all of them see the host's
    speed of the same few seconds."""
    best = [math.inf] * len(loops)
    for _ in range(rounds):
        for i, (fn, count) in enumerate(loops):
            t0 = time.perf_counter()
            for _ in range(count):
                fn()
            best[i] = min(best[i], (time.perf_counter() - t0) / count)
    return best


def bench_stage(steps=25, repeat=2000):
    """Seconds per RK4 stage of funk n=2 at 2 and at 20 paths: one
    ``integrate_geodesics`` call of ``steps`` steps (4 stages each), best of 5.

    Also the parts of a stage, loops of ``repeat`` calls at the launch states
    interleaved with the stage's (``time_interleaved``): ``invariant_rows``,
    ``phi_jets`` at those invariants, the rest of ``ProfileBundle.of``, ``spray()``
    of the built bundle, and the integrator's own share (the stage less the
    bundle and its spray).  The last two are differences of best times."""
    from finslercheck.geodesics import integrate_geodesics, safe_horizon
    from finslercheck.metrics import ProfileBundle, builtin, invariant_rows
    from finslercheck.sampling import SampleSpec, sample_domain

    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=20, seed=7, domain_radius=1.0))
    times, parts = {}, {}
    for paths in (2, 20):
        x, y = samples.x[:paths], samples.y[:paths]
        horizons = safe_horizon(funk, x, y, 0.5)
        r, u, v = invariant_rows(x, y)
        bundle = ProfileBundle.of(funk, x, y)
        stage, invariants, phi, build, spray = time_interleaved([
            (lambda: integrate_geodesics(funk, x, y, horizons, steps), 1),
            (lambda: invariant_rows(x, y), repeat),
            (lambda: funk.phi_jets(r, u, v), repeat),
            (lambda: ProfileBundle.of(funk, x, y), repeat),
            (bundle.spray, repeat),
        ])
        times[paths] = stage / (4 * steps)
        parts[paths] = dict(
            zip(STAGE_PARTS, (invariants, phi, build - invariants - phi, spray, times[paths] - build - spray))
        )
    return times, parts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20000, help="kernel loop count")
    args = parser.parse_args()

    print("jet kernels (seconds per call; 1 point and a batch of 15):")
    labels = ["mul/1", "sqrt/1", f"mul/{BATCH}", f"sqrt/{BATCH}"]
    print(f"{'m':>2} {'order':>5} {'pairs':>6}" + "".join(f" {l:>11}" for l in labels))
    for nvars, order, pairs, times in bench_kernels(args.repeat):
        print(f"{nvars:>2} {order:>5} {pairs:>6}" + "".join(f" {times[l]:>11.3e}" for l in labels))

    jet_time, lam_time, family_time, bundle_time, tensor_time = bench_workload()
    print("\nworkload:")
    print(f"  funk profile jet (order 2)              {jet_time * 1e6:9.1f} us/point")
    print(f"  flag curvature evaluation               {lam_time * 1e6:9.1f} us/point")
    print(f"  family funk profile bundle, 120 samples {family_time * 1e6:9.1f} us/sample")
    print(f"  bryant n=4 ambient bundle               {bundle_time * 1e6:9.1f} us/point")
    print(f"  bryant n=4 Killing tensor scan, 200 samples {tensor_time * 1e3:5.2f} ms/scan")
    times, parts = bench_stage(repeat=max(1, args.repeat // 10))
    for paths, stage_time in times.items():
        print(f"  funk n=2 RK4 stage, {paths:2d} paths            {stage_time * 1e6:9.1f} us/stage")
    print("\nparts of a funk n=2 stage (us per call):")
    print(f"  {'part':<16}" + "".join(f" {f'{paths} paths':>10}" for paths in parts))
    for part in STAGE_PARTS:
        print(f"  {part:<16}" + "".join(f" {p[part] * 1e6:10.1f}" for p in parts.values()))


if __name__ == "__main__":
    main()
