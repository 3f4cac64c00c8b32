#!/usr/bin/env python3
"""Benchmark the jet kernels and a few per-point workloads.

Times a jet product and a series composition (sqrt) on representative
table sizes, for one-point jets and for 15-point batched jets (one
Gauss-Legendre panel), then a realistic workload (profile jets of the funk
metric, flag curvature evaluations, the Bryant n=4 ambient bundle and its
Killing tensor scan).
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
    from finslercheck.metrics import AmbientBundle, builtin
    from finslercheck.projective import flag_curvature
    from finslercheck.sampling import SampleSpec, sample_domain
    from finslercheck.symmetry import killing_tensor_max_residual

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

    bryant = builtin("bryant", alpha=math.pi / 6)
    samples4 = sample_domain(SampleSpec.for_metric(n=4, count=20, seed=7, domain_radius=math.inf))
    t0 = time.perf_counter()
    AmbientBundle.of(bryant, samples4)
    bundle_time = (time.perf_counter() - t0) / len(samples4)

    t0 = time.perf_counter()
    for s in samples4:
        killing_tensor_max_residual(bryant, s.x, s.y)
    tensor_time = (time.perf_counter() - t0) / len(samples4)

    return jet_time, lam_time, bundle_time, tensor_time


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=20000, help="kernel loop count")
    args = parser.parse_args()

    print("jet kernels (seconds per call; 1 point and a batch of 15):")
    labels = ["mul/1", "sqrt/1", f"mul/{BATCH}", f"sqrt/{BATCH}"]
    print(f"{'m':>2} {'order':>5} {'pairs':>6}" + "".join(f" {l:>11}" for l in labels))
    for nvars, order, pairs, times in bench_kernels(args.repeat):
        print(f"{nvars:>2} {order:>5} {pairs:>6}" + "".join(f" {times[l]:>11.3e}" for l in labels))

    jet_time, lam_time, bundle_time, tensor_time = bench_workload()
    print("\nworkload:")
    print(f"  funk profile jet (order 2)      {jet_time * 1e6:9.1f} us/point")
    print(f"  flag curvature evaluation       {lam_time * 1e6:9.1f} us/point")
    print(f"  bryant n=4 ambient bundle       {bundle_time * 1e6:9.1f} us/point")
    print(f"  bryant n=4 Killing tensor scan  {tensor_time * 1e3:9.2f} ms/point")


if __name__ == "__main__":
    main()
