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
result at that column's point.  Products gather with ``take`` over the
``intp`` tables of ``product_table`` and sum every slot in their order, so
results are deterministic.  A series composition forms h''' at order 3 only,
and its powers of the argument's zero-value part multiply only the slots
that can be nonzero (degree >= 1, and >= 2 for the square's slots in the
cube), bit for bit the full products wherever they are finite.
The chain rule through several inner jets (``compose_multivariate``) runs in
Horner form, one gathered product per degree.

All operations are pure: jets are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._multi_index import (
    block_slots,
    coeff_count,
    derivative_factors,
    index_tuples,
    position_map,
    product_table,
)

MAX_ORDER = 3

# Divisors smaller than this signal a domain error instead of overflowing.
DIVISION_GUARD = 1e-300


class EvaluationError(ValueError):
    """An evaluation failed at some of the columns (points) of a batched operation.

    ``index`` is the first failing column of the operation that raised (``refuse``), 0
    for an error that fails every column.  Every column before it passed that operation,
    so that column's own one-point evaluation raises the same error there, and
    ``first_failure`` resolves a build of several operations to its lowest failing row.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class JetDomainError(EvaluationError):
    """A jet operation left the domain of the function being applied."""

    def __init__(self, message: str, value: float | None = None, index: int = 0):
        super().__init__(message if value is None else f"{message} (value {value!r})", index)
        self.value = value


def refuse(bad, error) -> None:
    """Raise ``error(i)`` at the first row i where ``bad`` holds: the row a one-row loop refuses first."""
    if np.count_nonzero(bad):  # cheaper than bad.any() at a few points
        raise error(int(np.ravel(bad).argmax()))


def first_failure(build, *rows: np.ndarray, start: int = 0):
    """build(*rows) at the rows of equal-length arrays, such as the (N, n) x and y, its
    ``EvaluationError`` re-raised as the lowest failing row's own, ``index`` counted from
    ``start``: a build failing at row j (one operation's first failing column) built rows
    [0, j) only that far, so they are built again as one batch, down to a prefix that passes."""
    try:
        return build(*rows)
    except EvaluationError as err:
        failure = err
    count = len(rows[0])
    while 0 < failure.index < count:
        count = failure.index
        try:
            build(*(a[:count] for a in rows))
            break
        except EvaluationError as err:
            failure = err
    failure.index += start
    raise failure


def _reject(message: str, values, bad) -> None:
    """Raise JetDomainError at the first point where ``bad`` holds, if any."""
    if np.count_nonzero(bad):  # several per RK4 stage: no closure or call on a pass
        refuse(bad, lambda i: JetDomainError(message, float(np.ravel(values)[i]), i))


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
    def variable(cls, index: int, value, nvars: int, order: int) -> "Jet":
        """Seed jet of one variable at a point, or at N points for a length-N ``value``."""
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be 0..{MAX_ORDER}, got {order}")
        c = np.zeros((coeff_count(nvars, order),) + getattr(value, "shape", ()))
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

    def partials(self, *ranges: range) -> np.ndarray:
        """The dense block of partials D_{a_1..a_k} f, each a_i in ranges[i], of shape
        (len(ranges[0]), ...) with the point axis last (as in ``coeffs``): one
        ``take`` of their slots along the coefficient axis times the slots' a!
        (``derivative_factors``), so no partial outside the block is formed."""
        try:
            slots = block_slots(self.nvars, self.order, ranges)
        except KeyError:
            raise ValueError(f"jet of order {self.order} has no partials of degree {len(ranges)}") from None
        factors = derivative_factors(self.nvars, self.order)[slots]
        block = self.coeffs.take(slots, 0) * factors.reshape(factors.shape + (1,) * (self.coeffs.ndim - 1))
        return block.reshape(tuple(map(len, ranges)) + self.coeffs.shape[1:])

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
        if a.ndim == b.ndim:
            return a, b
        if a.ndim < b.ndim:
            return a[:, None], b
        return a, b[:, None]

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


lift_var = Jet.variable  # seed jet of one input variable (N points for a length-N value)


# Batches up to this many points keep their product plan in a cache (a
# geodesic stage makes about ten products at width 2); a wider batch builds
# its own, since the widths of a bisection that drops finished samples are
# many and one cached scatter per width would outlive the run.
_CACHED_WIDTH = 64


def _scatter(target: np.ndarray, width: int) -> np.ndarray:
    """Flat output slot of each product term when every slot holds ``width`` points."""
    return (target[:, None] * width + np.arange(width)).ravel()


@lru_cache(maxsize=None)
def _live_table(nvars: int, order: int, low: int) -> tuple:
    """The ``product_table`` terms whose left factor has degree >= low and whose
    right factor has degree >= min(low, 1); low = 0 is the whole table."""
    left, right, target = product_table(nvars, order)
    if low == 0:
        return left, right, target
    keep = (left >= coeff_count(nvars, low - 1)) & (right >= 1)
    return left[keep], right[keep], target[keep]


def _plan(nvars: int, order: int, low: int, width: int) -> tuple:
    """(left, right, scatter): the terms of ``_live_table(nvars, order, low)`` and
    their flat output slots when every slot holds ``width`` points."""
    left, right, target = _live_table(nvars, order, low)
    return left, right, _scatter(target, width)


_cached_plan = lru_cache(maxsize=64)(_plan)


def _product(a: np.ndarray, b: np.ndarray, nvars: int, order: int, low: int = 0) -> np.ndarray:
    """Coefficients of the truncated product of two aligned coefficient arrays,
    from the terms of ``_live_table(nvars, order, low)``: all of them, or, when
    a's slots of degree < low and b's value slot are zero (or are not to be
    read), those that can be nonzero.

    ``np.bincount`` adds the terms into their slots one by one in table
    order, starting from zero, so every slot is the same ordered sum for
    one point or many.  A dropped term is zero times a finite coefficient,
    which leaves such a sum as it is: a sum from +0.0 is never -0.0.
    """
    width = 1 if a.ndim == 1 else max(a.shape[1], b.shape[1])
    if width <= _CACHED_WIDTH:
        left, right, scatter = _cached_plan(nvars, order, low, width)
    else:
        left, right, scatter = _plan(nvars, order, low, width)
    terms = a.take(left, 0) * b.take(right, 0)  # gathered along the slot axis
    out = np.bincount(scatter, terms.ravel(), len(a) * width)
    return out if a.ndim == 1 else out.reshape(len(a), width)


def _compose(a: Jet, derivatives) -> Jet:
    """Truncated series h(a), where ``derivatives(w)`` returns h, h' and h'' at
    the value row w and a function giving h''' there (called at order 3 only):

        h(a) = h + h' d + (h''/2) d^2 + (h'''/6) d^3,   d = a minus its value.

    d is a's coefficients with the value slot read as zero, and is not copied:
    the value slot of the result is written h' * 0.0 + h, and d^2 takes only
    the product terms of two factors of degree >= 1, d^3 those of d^2's slots
    of degree >= 2 and d's of degree >= 1 (``_live_table``), so neither reads
    it.  Where d is finite that is the full product bit for bit; a column that
    is not finite is rejected either way.
    """
    d = a.coeffs
    w = d[0]
    with np.errstate(all="ignore"):
        h0, h1, h2, h3 = derivatives(w)
        out = h1 * d
        out[0] = h1 * 0.0 + h0
        if a.order >= 2:
            p2 = _product(d, d, a.nvars, a.order, 1)
            out += (h2 / 2.0) * p2
            if a.order >= 3:
                out += (h3() / 6.0) * _product(p2, d, a.nvars, a.order, 2)
    if np.count_nonzero(np.isfinite(out)) < out.size:
        _reject("non-finite jet coefficients after composition", w, ~np.isfinite(out).all(axis=0))
    return Jet(a.nvars, a.order, out)


def _reciprocal_derivatives(w):
    w2 = w * w
    return 1.0 / w, -1.0 / w2, 2.0 / (w2 * w), lambda: -6.0 / (w2 * w2)


def _reciprocal(b: Jet) -> Jet:
    _reject("division by (near-)zero jet", b.coeffs[0], abs(b.coeffs[0]) < DIVISION_GUARD)
    return _compose(b, _reciprocal_derivatives)


def _sqrt_derivatives(w):
    s = np.sqrt(w)
    return s, 0.5 / s, -0.25 / (s * w), lambda: 0.375 / (s * w * w)


def sqrt(a: Jet) -> Jet:
    _reject("sqrt requires a positive argument", a.coeffs[0], a.coeffs[0] <= 0.0)
    return _compose(a, _sqrt_derivatives)


def log(a: Jet) -> Jet:
    _reject("log requires a positive argument", a.coeffs[0], a.coeffs[0] <= 0.0)
    return _compose(a, lambda w: (np.log(w), 1.0 / w, -1.0 / (w * w), lambda: 2.0 / (w * w * w)))


def exp(a: Jet) -> Jet:
    def derivatives(w):
        e = np.exp(w)
        return e, e, e, lambda: e

    return _compose(a, derivatives)


def sin(a: Jet) -> Jet:
    return _compose(a, lambda w: (np.sin(w), np.cos(w), -np.sin(w), lambda: -np.cos(w)))


def cos(a: Jet) -> Jet:
    return _compose(a, lambda w: (np.cos(w), -np.sin(w), -np.cos(w), lambda: np.sin(w)))


def absval(a: Jet) -> Jet:
    """|a| away from zero; refuses the kink rather than guessing a subgradient."""
    _reject("abs is not differentiable at 0", a.coeffs[0], a.coeffs[0] == 0.0)
    return a * np.copysign(1.0, a.coeffs[0])


def powc(a: Jet, exponent: float) -> Jet:
    """a raised to a constant exponent.

    Integer exponents are computed by repeated multiplication (exact for
    polynomials, valid for any base value); fractional exponents require a
    positive base.
    """
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
            lambda: e * (e - 1.0) * (e - 2.0) * w ** (e - 3.0),
        )

    return _compose(a, derivatives)


@lru_cache(maxsize=64)
def _horner_plan(nvars: int, outer_nvars: int, order: int, nonzero: bytes):
    """The products of ``compose_multivariate``'s Horner form, one table per degree
    (``nonzero`` marks, per inner jet, the slots that are not zero at every point).

    A bracket of degree k belongs to a sorted multi-index P of length
    order - k: its value slot is P's outer coefficient, and the rest is the
    sum over j >= P's last index of d_j times the bracket of P + (j,),
    truncated at degree k.  Returns the outer slots of the brackets of degree
    0 (the longest multi-indices), then per degree k = 1 .. order: the terms of
    all of its brackets' products as one table -- rows of the stacked d_j
    (nonzero slots only), rows of the stacked brackets of degree k - 1, rows of
    the stacked brackets of degree k -- their count, and the row and outer slot
    of each bracket's value.
    """
    pos = position_map(outer_nvars, order)
    prefixes = [[t for t in index_tuples(outer_nvars, order) if len(t) == m] for m in range(order + 1)]
    size = coeff_count(nvars, order)
    read = np.frombuffer(nonzero, dtype=bool).reshape(outer_nvars, size).copy()
    read[:, 0] = False  # the value slot of d_j is zero
    degrees = []
    for k in range(1, order + 1):
        left, right, target = product_table(nvars, k)
        below, upper = coeff_count(nvars, k - 1), coeff_count(nvars, k)
        row = {p: i for i, p in enumerate(prefixes[order - k])}
        table = [[], [], []]
        for i, q in enumerate(prefixes[order - k + 1]):  # each bracket of degree k - 1
            keep = read[q[-1], left]
            table[0].append(q[-1] * size + left[keep])
            table[1].append(i * below + right[keep])
            table[2].append(row[q[:-1]] * upper + target[keep])
        values = np.arange(len(row)) * upper, np.array([pos[p] for p in row], dtype=np.intp)
        degrees.append((*(np.concatenate(t) for t in table), len(row) * upper, *values))
    return np.array([pos[p] for p in prefixes[order]], dtype=np.intp), tuple(degrees)


@lru_cache(maxsize=64)
def _horner_scatters(nvars: int, outer_nvars: int, order: int, nonzero: bytes, width: int) -> list:
    return [_scatter(d[2], width) for d in _horner_plan(nvars, outer_nvars, order, nonzero)[1]]


def compose_multivariate(outer: Jet, inners: list[Jet]) -> Jet:
    """Chain rule: the jet of f(g_1(x), ..., g_p(x)) from the jet of f, at one
    point or at N points (any of the jets may hold N columns).

    ``outer`` must be expanded exactly at the point (inners[0].value, ...);
    the inners' value slots are not read.  With d_i = g_i minus its value and
    c the Taylor coefficients of f, the sum over f's sorted multi-indices runs
    in Horner form, innermost brackets first,

        f = c + sum_i d_i (c_i + sum_{j>=i} d_j (c_ij + sum_{k>=j} c_ijk d_k)).

    A bracket multiplied by d_j is needed only to one degree less, and all
    brackets of one degree come from one gathered product (``_horner_plan``)
    over the slots where each d_j is not zero at every point.  Each column is
    the one-point result at that column's point, bit for bit: every slot is an
    ordered sum from 0.0, which a skipped term (zero times a finite
    coefficient) does not change.
    """
    if len(inners) != outer.nvars:
        raise ValueError(f"need {outer.nvars} inner jets, got {len(inners)}")
    first = inners[0]
    for g in inners[1:]:
        first._operands(g)
    nvars, order = first.nvars, first.order
    if order != outer.order:
        raise ValueError("outer and inner jets must share the same order")
    one_point = outer.coeffs.ndim == first.coeffs.ndim == 1
    width = max(outer.coeffs[0].size, first.coeffs[0].size)

    def columns(a):
        if a.ndim == 2 and a.shape[1] == width:
            return a
        return np.broadcast_to(a.reshape(len(a), -1), (len(a), width))

    c = columns(outer.coeffs)
    stacked = np.concatenate([columns(g.coeffs) for g in inners])  # the d_j; value slots unread
    key = (nvars, outer.nvars, order, stacked.any(axis=1).tobytes())
    leaves, degrees = _horner_plan(*key)
    if width <= _CACHED_WIDTH:
        scatters = _horner_scatters(*key, width)
    else:
        scatters = [_scatter(target, width) for _, _, target, *_ in degrees]
    level = c[leaves]  # the brackets of degree 0, stacked
    for (left, right, _, rows, value_rows, value_slots), scatter in zip(degrees, scatters):
        level = _gather_sum(stacked, level, left, right, scatter, rows)
        level[value_rows] = c[value_slots]
    return Jet(nvars, order, level[:, 0] if one_point else level)


def _gather_sum(a: np.ndarray, b: np.ndarray, left, right, scatter, rows: int) -> np.ndarray:
    """The terms a[left] * b[right] of (ncoeff, width) arrays, each added into
    its ``scatter`` slot in table order, starting from 0.0: (rows, width)."""
    terms = a.take(left, 0) * b.take(right, 0)
    return np.bincount(scatter, terms.ravel(), rows * a.shape[1]).reshape(rows, a.shape[1])
