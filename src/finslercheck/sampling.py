"""Deterministic domain sampling.

The generator is SplitMix64, fixed bit-for-bit so reports reproduce across
machines and implementations:

    state += 0x9E3779B97F4A7C15
    z = state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

uniforms are (z >> 11) * 2^-53 in [0, 1).  The state after k steps is
seed + k * 0x9E3779B97F4A7C15 mod 2^64, so word k is the mix of that sum
alone, and ``splitmix64_words`` draws a whole block of words as one uint64
array expression.

Each sample consumes draws in this order: the x radius (one uniform), the
x direction (n uniforms per rejection attempt on the cube [-1,1]^n,
repeated until 0 < |w|^2 <= 1), the y radius, then the y direction the
same way.  ``sample_domain`` scores every window of n consecutive draws of
a block at once, walks the windows in that order to find each sample's
draws, and gathers all samples in one expression: one ``MetricSample`` of
(N, n) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MIN_RADIUS, MetricSample

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words start+1 .. start+count of the stream of ``seed``, as uint64 (which wraps)."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """The uniforms of ``splitmix64_words``; z >> 11 < 2^53 converts exactly."""
    return (splitmix64_words(seed, start, count) >> np.uint64(11)) * 2.0**-53


def default_r_range(domain_radius: float) -> tuple[float, float]:
    return (MIN_RADIUS, min(0.95 * domain_radius, 2.0))


DEFAULT_U_RANGE = (0.1, 2.0)
DIMENSIONS = range(2, 5)


@dataclass(frozen=True)
class SampleSpec:
    """A deterministic sampling plan over point-direction pairs."""

    n: int
    count: int
    seed: int
    r_range: tuple[float, float] = (MIN_RADIUS, 2.0)
    u_range: tuple[float, float] = DEFAULT_U_RANGE

    def validate(self) -> None:
        if self.n not in DIMENSIONS:
            raise ValueError(f"dimension must be 2..4, got {self.n}")
        if self.count < 1:
            raise ValueError(f"sample count must be >= 1, got {self.count}")
        if not 0 <= self.seed <= _MASK:
            raise ValueError("seed must fit in 64 unsigned bits")
        lo, hi = self.r_range
        if not (MIN_RADIUS <= lo <= hi <= 2.0):
            raise ValueError(f"r_range must lie within [{MIN_RADIUS}, 2], got {self.r_range}")
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
        if spec.r_range[1] >= domain_radius:  # such points lie outside the metric's domain
            raise ValueError(f"r_range {list(spec.r_range)} must end below the domain radius {domain_radius}")
        return spec


def _accepted(t: np.ndarray, n: int) -> bytes:
    """Is 0 < |w|^2 <= 1, for each window w_i = t[i:i+n] of t?  One byte per window,
    1 or 0; |w|^2 is the BLAS dot of one attempt's np.dot(w, w), bit for bit."""
    w = np.lib.stride_tricks.sliding_window_view(t, n)
    ss = np.vecdot(w, w)
    return ((0.0 < ss) & (ss <= 1.0)).tobytes()


def sample_domain(spec: SampleSpec) -> MetricSample:
    """The samples determined by the spec (identical for equal specs): the rows
    of one ``MetricSample``, with their invariants from one ``invariant_rows``.

    The draws come in blocks sized by the expected count, 2 + 2n 2^n/vol(B^n)
    a sample; a walk that runs past the drawn words appends the next block and
    scores only its windows, with the n - 1 that straddle the seam."""
    spec.validate()
    n = spec.n
    attempts = 2**n * math.gamma(n / 2 + 1) / math.pi ** (n / 2)
    block = math.ceil(spec.count * (2 + 2 * n * attempts))
    u, accepted = np.empty(0), bytearray()
    scalars, starts = [], []  # radius then speed of each sample; their directions
    pos = 0
    for _ in range(2 * spec.count):
        scalars.append(pos)
        pos += 1
        while True:
            if pos >= len(accepted):  # score the windows of t = 2u - 1 that end in a new block
                new = uniforms(spec.seed, len(u), block)
                accepted += _accepted(2.0 * np.concatenate([u[len(accepted) :], new]) - 1.0, n)
                u = np.concatenate([u, new])
            if accepted[pos]:
                break
            pos += n
        starts.append(pos)
        pos += n
    lo, hi = np.array([spec.r_range, spec.u_range]).T  # radius and speed columns
    scale = lo + (hi - lo) * u[scalars].reshape(-1, 2)
    w = 2.0 * u[np.add.outer(starts, np.arange(n))] - 1.0
    points = scale.reshape(-1, 1) * (w / np.sqrt(np.vecdot(w, w))[:, None])
    x, y = points.reshape(-1, 2, n).swapaxes(0, 1).copy()  # each a contiguous (N, n) array
    return MetricSample.of(x, y)
