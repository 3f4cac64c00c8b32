"""Multi-index bookkeeping for truncated Taylor coefficients.

A jet in m variables of order k stores one slot per sorted multi-index,
ordered by total degree and then lexicographically:

    (), (0,), ..., (m-1,), (0,0), (0,1), ..., (m-1,m-1), (0,0,0), ...

Slot p holds the Taylor coefficient D^a f / a!  for a = index_tuples(m, k)[p],
where a! is the product of the factorials of the variable multiplicities.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def index_tuples(nvars: int, order: int) -> tuple:
    out = []
    for degree in range(order + 1):
        out.extend(combinations_with_replacement(range(nvars), degree))
    return tuple(out)


@lru_cache(maxsize=None)
def position_map(nvars: int, order: int) -> dict:
    return {t: p for p, t in enumerate(index_tuples(nvars, order))}


def coeff_count(nvars: int, order: int) -> int:
    return len(index_tuples(nvars, order))


@lru_cache(maxsize=None)
def derivative_factors(nvars: int, order: int) -> np.ndarray:
    """a! per slot: a stored coefficient times this is the actual derivative."""
    factors = []
    for t in index_tuples(nvars, order):
        f = 1
        for v in set(t):
            f *= factorial(t.count(v))
        factors.append(float(f))
    return np.array(factors)


@lru_cache(maxsize=None)
def dense_scatter(nvars: int, order: int, degree: int):
    """(slots, flat positions) scattering the unique degree-coefficients
    into a dense symmetric rank-`degree` tensor of shape (nvars,)*degree."""
    slots, flats = [], []
    for p, t in enumerate(index_tuples(nvars, order)):
        if len(t) != degree:
            continue
        for perm in set(permutations(t)):
            flat = 0
            for v in perm:
                flat = flat * nvars + v
            slots.append(p)
            flats.append(flat)
    return np.array(slots, dtype=np.intp), np.array(flats, dtype=np.intp)


@lru_cache(maxsize=None)
def product_table(nvars: int, order: int):
    """Accumulation triples (left, right, target) with target = left merged right.

    Enumerated left-major; products accumulate each target slot in this
    order, which pins their rounding.
    """
    tuples = index_tuples(nvars, order)
    pos = position_map(nvars, order)
    left, right, target = [], [], []
    for p, a in enumerate(tuples):
        for q, b in enumerate(tuples):
            if len(a) + len(b) <= order:
                left.append(p)
                right.append(q)
                target.append(pos[tuple(sorted(a + b))])
    return (
        np.array(left, dtype=np.int32),
        np.array(right, dtype=np.int32),
        np.array(target, dtype=np.int32),
    )
