"""Forward-mode truncated Taylor arithmetic in several variables, order <= 3.

A :class:`Jet` carries the value and all partial derivatives of a scalar up
to ``order`` in ``nvars`` variables, stored as Taylor coefficients
D^a f / a! with one slot per sorted multi-index (see ``_multi_index``).
Sums and products propagate derivatives exactly for polynomials of degree
<= order; transcendental functions are pushed through with a truncated
series in the zero-value part of their argument.

A jet holds one point (``coeffs`` of shape ``(ncoeff,)``) or N points
(shape ``(ncoeff, N)``, one column per point): Taylor-mode propagation
vectorised over evaluation points.  Every operation takes either shape
through the same code, a one-point jet (a constant, say) broadcasts
against an N-point one, and each column of a result is the one-point
result at that column's point.  Products accumulate every slot in the
fixed order of ``product_table``, so results are deterministic.

All operations are pure: jets are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._multi_index import (
    coeff_count,
    dense_scatter,
    derivative_factors,
    index_tuples,
    position_map,
    product_table,
)

MAX_ORDER = 3

# Divisors smaller than this signal a domain error instead of overflowing.
DIVISION_GUARD = 1e-300


class JetDomainError(ValueError):
    """A jet operation left the domain of the function being applied."""

    def __init__(self, message: str, value: float | None = None):
        super().__init__(message if value is None else f"{message} (value {value!r})")
        self.value = value


def _reject(message: str, values, bad) -> None:
    """Raise JetDomainError at the first point where ``bad`` holds, if any."""
    if bad.any():
        raise JetDomainError(message, float(np.ravel(values)[np.ravel(bad).argmax()]))


def _point(x):
    """A float for a one-point quantity; N points stay an array."""
    return float(x) if np.ndim(x) == 0 else x


class Jet:
    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars: int, order: int, coeffs: np.ndarray):
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value: float, nvars: int, order: int) -> "Jet":
        c = np.zeros(coeff_count(nvars, order))
        c[0] = value
        return cls(nvars, order, c)

    @classmethod
    def variable(cls, index: int, value: float, nvars: int, order: int) -> "Jet":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be 0..{MAX_ORDER}, got {order}")
        c = np.zeros(coeff_count(nvars, order))
        c[0] = value
        if order >= 1:
            c[1 + index] = 1.0
        return cls(nvars, order, c)

    # -- accessors ---------------------------------------------------------

    @property
    def value(self):
        return _point(self.coeffs[0])

    def partial(self, *variables: int):
        """Derivative with respect to the given variables, e.g. partial(0, 2)."""
        try:
            pos = position_map(self.nvars, self.order)[tuple(sorted(variables))]
        except KeyError:
            raise ValueError(
                f"jet of order {self.order} in {self.nvars} variables has no "
                f"derivative {variables}"
            ) from None
        return _point(self.coeffs[pos] * derivative_factors(self.nvars, self.order)[pos])

    def gradient(self) -> np.ndarray:
        return self.coeffs[1 : 1 + self.nvars].copy()

    def _dense(self, degree: int) -> np.ndarray:
        m = self.nvars
        derivs = (self.coeffs.T * derivative_factors(m, self.order)).T
        slots, flats = dense_scatter(m, self.order, degree)
        out = np.zeros((m**degree,) + derivs.shape[1:])
        out[flats] = derivs[slots]
        return out.reshape((m,) * degree + derivs.shape[1:])

    def hessian(self) -> np.ndarray:
        return self._dense(2)

    def third_tensor(self) -> np.ndarray:
        return self._dense(3)

    def __repr__(self) -> str:
        return f"Jet(m={self.nvars}, order={self.order}, value={self.value!r})"

    # -- arithmetic --------------------------------------------------------

    def _like(self, coeffs: np.ndarray) -> "Jet":
        return Jet(self.nvars, self.order, coeffs)

    def _operands(self, other: "Jet"):
        """Both coefficient arrays, a one-point jet widened against an N-point one."""
        if self.nvars != other.nvars or self.order != other.order:
            raise ValueError(
                f"jet shape mismatch: ({self.nvars},{self.order}) vs "
                f"({other.nvars},{other.order})"
            )
        a, b = self.coeffs, other.coeffs
        if a.ndim < b.ndim:
            a = a[:, None]
        elif b.ndim < a.ndim:
            b = b[:, None]
        return a, b

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._operands(other)
            return self._like(a + b)
        c = self.coeffs.copy()
        c[0] += other
        return self._like(c)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = self._operands(other)
            return self._like(a - b)
        c = self.coeffs.copy()
        c[0] -= other
        return self._like(c)

    def __rsub__(self, other):
        c = -self.coeffs
        c[0] += other
        return self._like(c)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._operands(other)
            return self._like(_product(a, b, self.nvars, self.order))
        return self._like(self.coeffs * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            out = self * _reciprocal(other)
            # the value slot rounds once, not through the reciprocal
            out.coeffs[0] = self.coeffs[0] / other.coeffs[0]
            return out
        if abs(other) < DIVISION_GUARD:
            raise JetDomainError("division by (near-)zero scalar", other)
        return self._like(self.coeffs / other)

    def __rtruediv__(self, other):
        out = _reciprocal(self) * other
        out.coeffs[0] = other / self.coeffs[0]
        return out

    def __pow__(self, exponent):
        return powc(self, exponent)


def lift_var(index: int, value: float, nvars: int, order: int) -> Jet:
    """Seed jet for one input variable: unit gradient slot, zero above."""
    return Jet.variable(index, value, nvars, order)


@lru_cache(maxsize=64)
def _scatter(nvars: int, order: int, width: int) -> np.ndarray:
    """Flat output slot of each product term when every slot holds ``width`` points."""
    target = product_table(nvars, order)[2].astype(np.intp)
    return (target[:, None] * width + np.arange(width)).ravel()


def _product(a: np.ndarray, b: np.ndarray, nvars: int, order: int) -> np.ndarray:
    """Coefficients of the truncated product of two aligned coefficient arrays.

    ``np.bincount`` adds the terms into their slots one by one in table
    order, starting from zero, so every slot is the same ordered sum for
    one point or many.
    """
    left, right, _ = product_table(nvars, order)
    terms = a[left] * b[right]
    width = terms[0].size
    out = np.bincount(_scatter(nvars, order, width), terms.ravel(), len(a) * width)
    return out.reshape((len(a),) + terms.shape[1:])


def _compose(a: Jet, derivatives) -> Jet:
    """Truncated series h(a), where ``derivatives(w)`` returns h and its first
    three derivatives at the value row w:

        h(a) = h + h' d + (h''/2) d^2 + (h'''/6) d^3,   d = a minus its value.
    """
    w = a.coeffs[0]
    with np.errstate(all="ignore"):
        h0, h1, h2, h3 = derivatives(w)
        d = a.coeffs.copy()
        d[0] = 0.0
        out = h1 * d
        out[0] += h0
        if a.order >= 2:
            p2 = _product(d, d, a.nvars, a.order)
            out += (h2 / 2.0) * p2
            if a.order >= 3:
                out += (h3 / 6.0) * _product(p2, d, a.nvars, a.order)
    if not np.isfinite(out).all():
        _reject("non-finite jet coefficients after composition", w, ~np.isfinite(out).all(axis=0))
    return Jet(a.nvars, a.order, out)


def _reciprocal(b: Jet) -> Jet:
    _reject("division by (near-)zero jet", b.coeffs[0], abs(b.coeffs[0]) < DIVISION_GUARD)

    def derivatives(w):
        w2 = w * w
        return 1.0 / w, -1.0 / w2, 2.0 / (w2 * w), -6.0 / (w2 * w2)

    return _compose(b, derivatives)


def sqrt(a):
    if not isinstance(a, Jet):
        if a <= 0.0:
            raise JetDomainError("sqrt requires a positive argument", a)
        return math.sqrt(a)
    _reject("sqrt requires a positive argument", a.coeffs[0], a.coeffs[0] <= 0.0)

    def derivatives(w):
        s = np.sqrt(w)
        return s, 0.5 / s, -0.25 / (s * w), 0.375 / (s * w * w)

    return _compose(a, derivatives)


def log(a):
    if not isinstance(a, Jet):
        if a <= 0.0:
            raise JetDomainError("log requires a positive argument", a)
        return math.log(a)
    _reject("log requires a positive argument", a.coeffs[0], a.coeffs[0] <= 0.0)
    return _compose(a, lambda w: (np.log(w), 1.0 / w, -1.0 / (w * w), 2.0 / (w * w * w)))


def exp(a):
    if not isinstance(a, Jet):
        return math.exp(a)

    def derivatives(w):
        e = np.exp(w)
        return e, e, e, e

    return _compose(a, derivatives)


def sin(a):
    if not isinstance(a, Jet):
        return math.sin(a)
    return _compose(a, lambda w: (np.sin(w), np.cos(w), -np.sin(w), -np.cos(w)))


def cos(a):
    if not isinstance(a, Jet):
        return math.cos(a)
    return _compose(a, lambda w: (np.cos(w), -np.sin(w), -np.cos(w), np.sin(w)))


def absval(a):
    """|a| away from zero; refuses the kink rather than guessing a subgradient."""
    if not isinstance(a, Jet):
        if a == 0.0:
            raise JetDomainError("abs is not differentiable at 0", a)
        return abs(a)
    _reject("abs is not differentiable at 0", a.coeffs[0], a.coeffs[0] == 0.0)
    return a * np.copysign(1.0, a.coeffs[0])


def powc(a, exponent: float):
    """a raised to a constant exponent.

    Integer exponents are computed by repeated multiplication (exact for
    polynomials, valid for any base value); fractional exponents require a
    positive base.
    """
    if not isinstance(a, Jet):
        return float(a) ** exponent
    e = float(exponent)
    if e == int(e):
        n = int(e)
        if n == 0:
            return Jet.constant(1.0, a.nvars, a.order)
        inv = n < 0
        n = abs(n)
        result = None
        base = a
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return _reciprocal(result) if inv else result
    _reject("fractional power requires a positive base", a.coeffs[0], a.coeffs[0] <= 0.0)

    def derivatives(w):
        return (
            w**e,
            e * w ** (e - 1.0),
            e * (e - 1.0) * w ** (e - 2.0),
            e * (e - 1.0) * (e - 2.0) * w ** (e - 3.0),
        )

    return _compose(a, derivatives)


def compose_multivariate(outer: Jet, inners: list[Jet]) -> Jet:
    """Chain rule: the jet of f(g_1(x), ..., g_p(x)) from the jet of f.

    ``outer`` must be expanded exactly at the point (inners[0].value, ...);
    all inner jets share variables and order with each other.
    """
    if len(inners) != outer.nvars:
        raise ValueError(f"need {outer.nvars} inner jets, got {len(inners)}")
    first = inners[0]
    for g in inners[1:]:
        first._operands(g)
    order = first.order
    if order != outer.order:
        raise ValueError("outer and inner jets must share the same order")
    deltas = [g - g.value for g in inners]
    result = Jet.constant(outer.coeffs[0], first.nvars, order)
    pair_cache: dict[tuple, Jet] = {}

    def pair(i: int, j: int) -> Jet:
        key = (i, j)
        if key not in pair_cache:
            pair_cache[key] = deltas[i] * deltas[j]
        return pair_cache[key]

    for pos, idx in enumerate(index_tuples(outer.nvars, outer.order)):
        if not idx:
            continue
        c = float(outer.coeffs[pos])
        if c == 0.0:
            continue
        if len(idx) == 1:
            term = deltas[idx[0]]
        elif len(idx) == 2:
            term = pair(idx[0], idx[1])
        else:
            term = pair(idx[0], idx[1]) * deltas[idx[2]]
        result = result + term * c
    return result
