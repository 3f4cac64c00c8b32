"""Deterministic domain sampling.

The generator is SplitMix64, fixed bit-for-bit so reports reproduce across
machines and implementations:

    state += 0x9E3779B97F4A7C15
    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

uniforms are (z >> 11) * 2^-53 in [0, 1).

Each sample consumes draws in this order: the x radius (one uniform), the
x direction (n uniforms per rejection attempt on the cube [-1,1]^n,
repeated until 0 < |w|^2 <= 1), the y radius, then the y direction the
same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MetricSample, invariant_rows

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _MASK
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        return z

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def default_r_range(domain_radius: float) -> tuple[float, float]:
    return (0.05, min(0.95 * domain_radius, 2.0))


DEFAULT_U_RANGE = (0.1, 2.0)


@dataclass(frozen=True)
class SampleSpec:
    """A deterministic sampling plan over point-direction pairs."""

    n: int
    count: int
    seed: int
    r_range: tuple[float, float] = (0.05, 2.0)
    u_range: tuple[float, float] = DEFAULT_U_RANGE

    def validate(self) -> None:
        if not 2 <= self.n <= 4:
            raise ValueError(f"dimension must be 2..4, got {self.n}")
        if self.count < 1:
            raise ValueError(f"sample count must be >= 1, got {self.count}")
        if not 0 <= self.seed <= _MASK:
            raise ValueError("seed must fit in 64 unsigned bits")
        lo, hi = self.r_range
        if not (0.05 <= lo <= hi <= 2.0):
            raise ValueError(f"r_range must lie within [0.05, 2], got {self.r_range}")
        lo, hi = self.u_range
        if not (0.1 <= lo <= hi <= 2.0):
            raise ValueError(f"u_range must lie within [0.1, 2], got {self.u_range}")

    @classmethod
    def for_metric(cls, n: int, count: int, seed: int, domain_radius: float = math.inf,
                   r_range=None, u_range=None) -> "SampleSpec":
        spec = cls(
            n=n,
            count=count,
            seed=seed,
            r_range=tuple(r_range) if r_range else default_r_range(domain_radius),
            u_range=tuple(u_range) if u_range else DEFAULT_U_RANGE,
        )
        spec.validate()
        return spec


def _unit_vector(rng: SplitMix64, n: int) -> np.ndarray:
    while True:
        w = np.array([2.0 * rng.uniform() - 1.0 for _ in range(n)])
        ss = float(np.dot(w, w))
        if 0.0 < ss <= 1.0:
            return w / math.sqrt(ss)


def sample_domain(spec: SampleSpec) -> list[MetricSample]:
    """The sample list determined by the spec (identical for equal specs), with
    the invariants of all samples from one ``invariant_rows``."""
    spec.validate()
    rng = SplitMix64(spec.seed)
    r_lo, r_hi = spec.r_range
    u_lo, u_hi = spec.u_range
    xs, ys = [], []
    for _ in range(spec.count):
        radius = r_lo + (r_hi - r_lo) * rng.uniform()
        xs.append(radius * _unit_vector(rng, spec.n))
        speed = u_lo + (u_hi - u_lo) * rng.uniform()
        ys.append(speed * _unit_vector(rng, spec.n))
    invariants = zip(*(w.tolist() for w in invariant_rows(np.array(xs), np.array(ys))))
    return [MetricSample(x, y, *rv) for x, y, rv in zip(xs, ys, invariants)]
