"""Metric representations and the two derivative bundles the checks read.

A spherically symmetric metric is carried by its profile phi(r, u, v) with
r = |x|, u = |y|, v = <x,y>; F(x,y) = phi(|x|, |y|, <x,y>).  phi must be
positive and positively 1-homogeneous in (u, v).  Profile jets use the
variable order r=0, u=1, v=2 throughout, and ``SphericalMetric.phi_jets`` is
the one evaluator of a profile (``phi_jet`` its one-row case).  A
``MetricSample`` holds one point-direction pair, or the rows of two (N, n)
arrays x and y, with their invariants r, u and v (scalars, or length-N arrays).

General metrics carry F(x, y) directly and are differentiated with jets in
the 2n ambient variables (x^1..x^n, y^1..y^n).  A spherical metric's jets in
those variables come from the chain rule, the same for every profile: its
3-variable jet, re-expanded in (|x|^2, |y|^2, <x,y>) and composed with their
exact quadratic jets (``SphericalMetric.ambient_jet``), so a profile is only
ever evaluated on jets in (r, u, v).

Derivatives of F come from a bundle of the N rows of two (N, n) arrays x
and y: a ``ProfileBundle`` (phi and its partials from one batched
``phi_jets`` call, every profile formula an array expression over them; a
family profile runs one lockstep quadrature over the N rows) or an
``AmbientBundle`` (one ambient jet of F per chunk of ``AMBIENT_CHUNK`` = 50
rows, g, dg/dx and C by the product rule from the blocks of its partials
they read).  A profile bundle keeps the coefficients it read as
``columns``: at order 3 a spherical metric's ambient bundle composes each
chunk from their slice, so one ``phi_jets`` call serves both bundles.
Both provide F, F_x, F_y, F_xy, g, the one Rapcsak residual and the spray G
(closed-form on span{x, y} for a profile, with strong convexity from the
profile lemma; a stacked Cholesky solve of g G = bracket / 4 otherwise);
``bundle_of`` alone picks a bundle by metric kind.  A bundle knows rows, not
samples: a failed build raises its lowest failing row's own error with that
row as its ``index`` (``jets.first_failure``), and the caller that holds the
samples names the sample (``checks.Run``).  ``fundamental_tensor`` is a
library entry point over a one-row bundle.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from ._multi_index import coeff_count, derivative_factors, position_map
from .jets import MAX_ORDER, EvaluationError, Jet, JetDomainError, compose_multivariate, lift_var, sqrt
from .jets import first_failure, refuse  # the failing-row rule

R, U, V = 0, 1, 2

# Slack absorbing rounding at the boundary case phi_vv = 0 (Euclidean).
PHI_VV_SLACK = -1e-12
MIN_RADIUS = 0.05  # the profile-space formulas carry 1/r (``ProfileBundle.require_radius``)
# Samples per N-point ambient jet: a Bryant n = 4 bundle of 200 samples peaks at 6.2 MB
# (tracemalloc) as one chunk, 1.30 MB in chunks of 50 and 0.98 MB in chunks of 25, and
# with its g, dg/dx, C and the Killing scan over it at 1.47 MB for either chunk size.
AMBIENT_CHUNK = 50


class MetricDomainError(EvaluationError):
    """Evaluation outside the metric's admissible domain."""


class NotStronglyConvexError(EvaluationError):
    """The metric is not strongly convex at a row: F <= 0 or g is not positive definite."""


def invariant_rows(x, y):
    """Rotation invariants (r, u, v) of each row of the (N, n) arrays x and y,
    as three length-N arrays (three scalars when x and y are n-vectors).

    v is clamped into [-ru, ru]: Cauchy-Schwarz holds exactly, and rounding
    must not push sqrt(r^2 u^2 - v^2) terms negative.
    """
    u = np.sqrt(np.vecdot(y, y))
    if np.count_nonzero(u) < u.size:  # a NaN is nonzero; the mask is formed only to name a row
        refuse(u == 0.0, lambda i: MetricDomainError("y must be nonzero", i))
    r = np.sqrt(np.vecdot(x, x))
    bound = r * u
    return r, u, np.minimum(np.maximum(np.vecdot(x, y), -bound), bound)


@dataclass(frozen=True)
class MetricSample:
    """One pair or N rows, with their ``invariant_rows``.  ``len`` counts the rows,
    ``samples[i]`` is row i's one pair and ``samples[a:b]`` the rows a to b."""

    x: np.ndarray
    y: np.ndarray
    r: float | np.ndarray
    u: float | np.ndarray
    v: float | np.ndarray

    @classmethod
    def of(cls, x, y) -> "MetricSample":
        """One pair, or the rows of two (N, n) arrays, as ``invariant_rows`` takes them."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return cls(x, y, *invariant_rows(x, y))

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, rows) -> "MetricSample":
        return MetricSample(self.x[rows], self.y[rows], self.r[rows], self.u[rows], self.v[rows])


def _ambient_variables(x, y, order: int) -> list[Jet]:
    """Seed jets of the 2n ambient variables x^1..x^n, y^1..y^n, in that order."""
    point = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    return [lift_var(i, c, len(point), order) for i, c in enumerate(point)]


# -- profile evaluators --------------------------------------------------------


class ClosedFormProfile:
    """phi given as a python function of three jets (r, u, v)."""

    def __init__(self, fn):
        self.fn = fn

    def jet(self, r, u, v, order: int) -> Jet:
        """The jet at one point, or at N points when r, u and v are length-N arrays:
        ``fn`` of the seed jets of r, u and v (``Jet.variable``), cut from one array."""
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be 0..{MAX_ORDER}, got {order}")
        c = np.zeros((3, coeff_count(3, order)) + np.shape(r))
        c[R, 0] = r
        c[U, 0] = u
        c[V, 0] = v
        if order >= 1:
            c[R, 1 + R] = c[U, 1 + U] = c[V, 1 + V] = 1.0
        return self.fn(Jet(3, order, c[R]), Jet(3, order, c[U]), Jet(3, order, c[V]))


class ExpressionProfile(ClosedFormProfile):
    """phi parsed from a formula in the variables r, u, v."""

    def __init__(self, source: str):
        self.source = source
        ast = expr_mod.parse(source, {"r", "u", "v"}, "phi")
        super().__init__(lambda r, u, v: expr_mod.evaluate(ast, {"r": r, "u": u, "v": v}))


@dataclass
class SphericalMetric:
    """F(x,y) = phi(|x|, |y|, <x,y>) on the ball |x| < domain_radius."""

    name: str
    profile: object
    domain_radius: float = math.inf
    expected_curvature: float | None = None
    params: dict = field(default_factory=dict)

    def phi_jet(self, r: float, u: float, v: float, order: int = 2) -> Jet:
        """The profile's jet at one triple: the one-row case of ``phi_jets``."""
        triple = (np.array([w], dtype=float) for w in (r, u, v))
        return Jet(3, order, self.phi_jets(*triple, order)[:, 0])

    def phi_jets(self, r, u, v, order: int = 2) -> np.ndarray:
        """The profile's jet at N invariant triples (length-N arrays), as (ncoeff, N)
        coefficients: the profile's ``jet`` takes all N in one call (a closed-form
        profile lifts them as N-point variables, a family profile runs one lockstep
        quadrature over them), and column i is bit for bit the jet at triple i alone.
        The first triple with u <= 0 or r >= domain_radius is refused before any evaluation."""

        def outside(i):
            where = f"|x| = {float(r[i])} outside domain of {self.name} (radius {self.domain_radius})"
            return MetricDomainError("u must be positive" if u[i] <= 0.0 else where, i)

        refuse((u <= 0.0) | (r >= self.domain_radius), outside)
        return _columns(self.profile.jet(r, u, v, order).coeffs, len(r))

    def ambient_jet(self, x, y, order: int, columns=None) -> Jet:
        """Jet of F in the 2n variables (x^1..x^n, y^1..y^n), at N points when x
        and y are (n, N) arrays, by the chain rule for every profile: the profile's
        jet in (r, u, v) from one ``phi_jets`` call (or its (ncoeff, N) ``columns``,
        when the caller has evaluated it at these points), re-expanded in
        (rho, mu, v) = (|x|^2, |y|^2, <x,y>) through r = sqrt(rho) and u = sqrt(mu),
        then composed with the exact quadratic jets of rho, mu and v
        (``compose_multivariate`` twice; Griewank & Walther, Evaluating Derivatives,
        2008, ch. 13).  Each column is the one-point jet bit for bit.  x = 0, where
        |x| has no derivative, is refused."""
        one_point = np.ndim(x) == 1
        x, y = (np.asarray(w, dtype=float).reshape(len(w), -1) for w in (x, y))  # (n, N)
        r, u, v = ambient_invariants(x.T, y.T)
        outer = Jet(3, order, self.phi_jets(r, u, v, order) if columns is None else columns)
        profile = compose_multivariate(outer, _root_jets(r, u, v, order))
        f = compose_multivariate(profile, _quadratic_jets(x, y, r, u, v, order)).coeffs
        return Jet(2 * len(x), order, f[:, 0] if one_point else f)


def ambient_invariants(x, y):
    """``invariant_rows`` of the (N, n) arrays x and y, refusing x = 0, where |x|
    has no derivative."""
    r, u, v = invariant_rows(x, y)
    refuse(r == 0.0, lambda i: JetDomainError("|x| is not differentiable at x = 0", index=i))
    return r, u, v


def _root_jets(r, u, v, order: int) -> list[Jet]:
    """Jets of r = sqrt(rho), u = sqrt(mu) and v in the variables (rho, mu, v)
    at rho = r^2, mu = u^2: sqrt(w^2 + h) = w + h/(2w) - h^2/(8w^3) + h^3/(16w^5)."""
    pos = position_map(3, order)
    out = []
    for var, w in ((R, r), (U, u)):
        c = np.zeros((len(pos), len(w)))
        c[0] = w
        w3 = w * w * w
        series = (0.5 / w, -0.125 / w3, 0.0625 / (w3 * w * w))
        for k in range(order):
            c[pos[(var,) * (k + 1)]] = series[k]
        out.append(Jet(3, order, c))
    return out + [lift_var(V, v, 3, order)]


def _quadratic_jets(x, y, r, u, v, order: int) -> list[Jet]:
    """The exact jets of |x|^2, |y|^2 and <x,y> in (x^1..x^n, y^1..y^n) at the
    columns of the (n, N) arrays x and y, whose invariants are r, u and v."""
    n = len(x)
    c = np.zeros((3, coeff_count(2 * n, order), x.shape[1]))
    c[:, 0] = r * r, u * u, v
    if order >= 1:
        c[0, 1 : 1 + n] = 2.0 * x
        c[1, 1 + n : 1 + 2 * n] = 2.0 * y
        c[2, 1 : 1 + n], c[2, 1 + n : 1 + 2 * n] = y, x
    if order >= 2:
        xx, yy, xy = _quadratic_slots(n, order)
        c[0, xx] = c[1, yy] = c[2, xy] = 1.0
    return [Jet(2 * n, order, w) for w in c]


@functools.lru_cache(maxsize=None)
def _quadratic_slots(n: int, order: int):
    """Slots of dx_i^2, dy_i^2 and dx_i dy_i among the 2n ambient variables."""
    pos = position_map(2 * n, order)
    return tuple(
        np.array([pos[(a + i, b + i)] for i in range(n)], dtype=np.intp) for a, b in ((0, 0), (n, n), (0, n))
    )


@dataclass
class GeneralMetric:
    """F(x,y) given directly, as a callable over ambient jets or a formula."""

    name: str
    n: int
    fn: object
    domain_radius: float = math.inf

    @classmethod
    def from_expression(cls, source: str, n: int, name: str = "general", domain_radius: float = math.inf):
        names = [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
        ast = expr_mod.parse(source, set(names), "F")

        def fn(xs, ys):
            return expr_mod.evaluate(ast, dict(zip(names, list(xs) + list(ys))))

        return cls(name, n, fn, domain_radius)

    def ambient_jet(self, x, y, order: int) -> Jet:
        """Jet of F in (x^1..x^n, y^1..y^n), at N points when x and y are (n, N) arrays."""
        if len(x) != self.n:
            raise MetricDomainError(f"{self.name} is {self.n}-dimensional")
        v = _ambient_variables(x, y, order)
        return self.fn(v[: self.n], v[self.n :])


# -- scale-free residual helpers -----------------------------------------------


def quotient(num, den):
    """num / den elementwise, and 0 where den is 0 (num must be finite there).

    A NaN den still gives NaN, so a broken residual is not read as zero.
    """
    out = num / np.where(den == 0.0, np.inf, den)
    return float(out) if np.ndim(out) == 0 else out


def relative_residual(*terms):
    """|sum of terms| divided by the sum of their magnitudes (0 when all vanish).

    Terms may be arrays; the sums run over the terms in order, elementwise.
    """
    return quotient(abs(sum(terms)), sum(abs(t) for t in terms))


def worst_residual(values) -> tuple[float, int, int]:
    """(largest residual, index of the worst entry, count of non-finite entries).

    An ordered reduction over the flattened values: ties go to the first
    entry.  A non-finite residual is worse than any number, so the first
    one is the worst entry; the largest residual is taken over the finite
    entries (0.0 if there are none), so reports stay valid JSON.
    """
    values = np.ravel(np.asarray(values, dtype=float))
    bad = ~np.isfinite(values)
    finite = values[~bad]
    worst = float(finite.max()) if finite.size else 0.0
    return worst, int(bad.argmax() if bad.any() else values.argmax()), int(bad.sum())


def _chunks(count: int, size: int) -> list[slice]:
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def _columns(coeffs: np.ndarray, count: int) -> np.ndarray:
    """(ncoeff, count) coefficients of a jet at count points: a one-point jet
    (of a formula free of its variables) is the same column at every point."""
    return coeffs if coeffs.ndim == 2 else np.broadcast_to(coeffs[:, None], (len(coeffs), count))


# -- the formulas both bundles share, and the profile bundle ------------------------


class _Surface:
    """The formulas both bundles share, over their x, y, ``first_derivatives()`` and
    ``f_xy()``: one definition each, so a metric reads the same from either bundle."""

    @property
    def n(self) -> int:
        return self.x.shape[1]

    def rapcsak_residuals(self) -> np.ndarray:
        """Component-wise scale-free residual of Rapcsak's F_{x^k y^l} y^k - F_{x^l}, (N, n):
        per component l, over the n terms F_{x^k y^l} y^k and -F_{x^l}."""
        f_xy, fx = self.f_xy(), self.first_derivatives()[1]
        return relative_residual(*(f_xy[:, k] * self.y[:, k, None] for k in range(self.n)), -fx)


# a! of the slots (), r, u, v, rr, ru, rv, uu, uv, vv, as a column
_PARTIAL_FACTORS = derivative_factors(3, 2)[:, None]


@dataclass(eq=False)
class ProfileBundle(_Surface):
    """phi and its nine first and second partials at N samples, as length-N arrays.

    Filled by one batched ``phi_jets`` call, whose (ncoeff, N) coefficients it
    keeps as ``columns`` (at order 3 an ``AmbientBundle`` is composed from
    them too); every profile formula (here and in ``projective``) is an array
    expression over a bundle.  x and y are (N, n) arrays; a bundle built from
    the invariants alone (``projective.flag_curvature``) has n = 0.  Nothing
    assigns to a bundle after it is built (it is not frozen only because a
    geodesic stage builds one per RK4 stage, and a frozen dataclass sets each
    field through ``object.__setattr__``).
    """

    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    phi_r: np.ndarray
    phi_u: np.ndarray
    phi_v: np.ndarray
    phi_rr: np.ndarray
    phi_ru: np.ndarray
    phi_rv: np.ndarray
    phi_uu: np.ndarray
    phi_uv: np.ndarray
    phi_vv: np.ndarray
    columns: np.ndarray

    @classmethod
    def of(cls, metric: SphericalMetric, x: np.ndarray, y: np.ndarray, order: int = 2) -> "ProfileBundle":
        """The bundle at the rows of the (N, n) arrays x and y, from one batched
        ``phi_jets`` call at ``order`` >= 2; an error names its lowest failing row
        (``jets.first_failure``)."""

        def build(x, y):
            invariants = invariant_rows(x, y)
            return cls._of_columns(x, y, invariants, metric.phi_jets(*invariants, order))

        return first_failure(build, x, y)

    @classmethod
    def _of_columns(cls, x, y, invariants, columns) -> "ProfileBundle":
        # slots (), r, u, v, rr, ru, rv, uu, uv, vv; times a! they are the partials
        return cls(x, y, *invariants, *(columns[:10] * _PARTIAL_FACTORS), columns)

    @property
    def F(self) -> np.ndarray:
        return self.phi

    def first_derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, F_x, F_y) as (N,), (N, n), (N, n), by the chain rule:

            F_x = phi_r x/r + phi_v y,  F_y = phi_u y/u + phi_v x

        (for r = 0 the phi_r term vanishes with x).
        """
        fx = self.phi_r[:, None] * quotient(self.x, self.r[:, None]) + self.phi_v[:, None] * self.y
        return self.phi, fx, (self.phi_u / self.u)[:, None] * self.y + self.phi_v[:, None] * self.x

    def g(self) -> np.ndarray:
        """The fundamental tensor in closed form, (N, n, n):

            g_ij = (phi phi_u / u) delta_ij
                 + (phi_v^2 + phi phi_vv) x_i x_j
                 + ((phi_u^2 + phi phi_uu)/u^2 - phi phi_u/u^3) y_i y_j
                 + ((phi_u phi_v + phi phi_uv)/u) (x_i y_j + x_j y_i).
        """
        phi, phi_u, phi_v, u = self.phi, self.phi_u, self.phi_v, self.u
        c_delta, c_xx, c_yy, c_xy = (
            c[:, None, None]
            for c in (
                phi * phi_u / u,
                phi_v * phi_v + phi * self.phi_vv,
                (phi_u * phi_u + phi * self.phi_uu) / (u * u) - phi * phi_u / (u * u * u),
                (phi_u * phi_v + phi * self.phi_uv) / u,
            )
        )
        x, xt = self.x[:, :, None], self.x[:, None, :]
        y, yt = self.y[:, :, None], self.y[:, None, :]
        g = c_delta * np.eye(self.n) + c_xx * (x * xt)
        return g + c_yy * (y * yt) + c_xy * (x * yt + y * xt)

    def require_radius(self) -> None:
        """Refuse samples with r < MIN_RADIUS, where the 1/r profile formulas lose accuracy.
        An r short of it by rounding alone (up to 4 ulps) passes: ``sample_domain`` draws a
        radius of at least the ``r_range`` start, but the r = |x| read back from the scaled
        point can fall an ulp under it, so an ``r_range`` starting at MIN_RADIUS is valid."""
        low = self.r < MIN_RADIUS - 4 * np.spacing(MIN_RADIUS)
        refuse(low, lambda i: ValueError(f"profile-space operators need r >= {MIN_RADIUS}, got {self.r[i]}"))

    def f_xy(self) -> np.ndarray:
        """F_{x^k y^l} = (x^k/r)(phi_ru y^l/u + phi_rv x^l) + y^k (phi_uv y^l/u + phi_vv x^l)
        + phi_v delta_kl, (N, k, l), from F_x = phi_r x/r + phi_v y; refuses r < MIN_RADIUS."""
        self.require_radius()
        x, y, u = self.x, self.y, self.u[:, None]
        d_phi_r = self.phi_ru[:, None] * y / u + self.phi_rv[:, None] * x  # d phi_r / dy^l
        d_phi_v = self.phi_uv[:, None] * y / u + self.phi_vv[:, None] * x  # d phi_v / dy^l
        f_xy = (x / self.r[:, None])[:, :, None] * d_phi_r[:, None, :] + y[:, :, None] * d_phi_v[:, None, :]
        return f_xy + self.phi_v[:, None, None] * np.eye(self.n)

    def spray(self) -> np.ndarray:
        """The spray G = p x + s y, (N, n), in closed form (Huang & Mo, J. Geom. Phys. 62,
        2012): with t = r^2 u^2 - v^2, B = phi_u + t phi_vv / u (the bracket of ``det_g``),
        Q = F_{x^k} y^k = v phi_r / r + u^2 phi_v and 1/r -> 0 at r = 0,

            p = u ((v phi_rv - phi_r) / r + u^2 phi_vv) / (2 B),
            s = (Q - 2 p (v phi + t phi_v) / u^2) / (2 phi).

        g is positive definite iff phi > 0, B > 0 and (n >= 3) phi_u > 0: Shen's lemma for
        F = u Phi(r, v/u) (Chern & Shen, Riemann-Finsler Geometry, 2005, sec. 1.1).  The first
        row that fails it raises ``NotStronglyConvexError``."""
        phi, phi_u, phi_v, r, u, v = self.phi, self.phi_u, self.phi_v, self.r, self.u, self.v
        t = r * r * u * u - v * v
        bracket = phi_u + t * self.phi_vv / u
        convex = (phi > 0.0) & (bracket > 0.0)  # NaN fails
        if self.n >= 3:
            convex &= phi_u > 0.0
        if np.count_nonzero(convex) < len(convex):  # inverted only to name a row
            refuse(~convex, lambda i: _not_convex(self, i))
        # 1/r -> 0 at r = 0
        over_r = r if np.count_nonzero(r) == len(r) else np.where(r == 0.0, np.inf, r)
        uu = u * u
        p = u * ((v * self.phi_rv - self.phi_r) / over_r + uu * self.phi_vv) / (2.0 * bracket)
        s = (v * self.phi_r / over_r + uu * phi_v - 2.0 * p * (v * phi + t * phi_v) / uu) / (2.0 * phi)
        return p[:, None] * self.x + s[:, None] * self.y

    def det_g(self) -> np.ndarray:
        """det(g) = (phi/u)^(n+1) phi_u^(n-2) [phi_u + (r^2 u^2 - v^2) phi_vv / u]."""
        n, r, u, v = self.n, self.r, self.u, self.v
        bracket = self.phi_u + (r * r * u * u - v * v) * self.phi_vv / u
        return (self.phi / u) ** (n + 1) * self.phi_u ** (n - 2) * bracket

    def convexity_lemma(self) -> np.ndarray:
        """The sufficient condition phi_u > 0 and phi_vv >= 0 (up to PHI_VV_SLACK)."""
        return (self.phi_u > 0.0) & (self.phi_vv >= PHI_VV_SLACK)

    def homogeneity_residual(self) -> np.ndarray:
        """Largest violation of the degree-1 Euler relations of the profile (NaN where phi = 0).

        Checks u phi_u + v phi_v = phi (scaled by phi) and the three
        second-order identities u phi_uu + v phi_uv = 0, u phi_uv + v phi_vv = 0
        and phi_uu = (v/u)^2 phi_vv.  Each second-order identity arises from a
        first-order quantity cancelling out of a derivative of Euler's relation,
        so that quantity joins the scale: near v = 0 the identity terms shrink
        like v^2 while their rounding noise does not, and the bare term sum
        would report noise ratios.
        """
        u, v, phi_u, phi_v = self.u, self.v, self.phi_u, self.phi_v
        phi_uu, phi_uv, phi_vv = self.phi_uu, self.phi_uv, self.phi_vv

        def scaled(a, b, anchor):
            return quotient(abs(a + b), abs(a) + abs(b) + abs(anchor))

        first = abs(u * phi_u + v * phi_v - self.phi) / np.where(self.phi == 0.0, np.nan, abs(self.phi))
        return np.maximum.reduce([
            first,
            scaled(u * phi_uu, v * phi_uv, phi_u),
            scaled(u * phi_uv, v * phi_vv, phi_v),
            scaled(phi_uu, -((v / u) ** 2) * phi_vv, phi_u / u),
        ])


# -- the ambient bundle -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AmbientBundle(_Surface):
    """F with its partials in the 2n ambient variables, at N samples.

    One ``metric.ambient_jet`` on N-point variables per chunk of
    ``AMBIENT_CHUNK`` samples, the chunks concatenated as the columns of one
    jet, so each column is that sample's one-point jet bit for bit.  The only
    code that knows the layout (x^1..x^n, y^1..y^n).  g, dg/dx, C and the
    spray's bracket are the y-blocks of E = F^2, each formed once per bundle by
    the product rule (Griewank & Walther, Evaluating Derivatives, 2008, ch. 13)
    from the blocks F_xy, F_yy, F_xyy and F_yyy of F's partials (``Jet.partials``),
    the only ones they read; E itself is never a jet.  Arrays have the sample axis first.
    """

    x: np.ndarray
    y: np.ndarray
    f: Jet

    @classmethod
    def of(cls, metric, x: np.ndarray, y: np.ndarray, order: int = 3, columns=None) -> "AmbientBundle":
        """The bundle at the rows of the (N, n) arrays x and y, chunk by chunk: each
        chunk's ``metric.ambient_jet`` evaluates its own rows, or a spherical metric's
        reads them from ``columns``, an order-``order`` ``ProfileBundle``'s of the same
        rows, sliced to the rows it builds.  An error names its lowest failing row of x
        (``jets.first_failure`` of its chunk)."""

        def lift(c):
            if columns is None:
                return lambda xc, yc: metric.ambient_jet(xc.T, yc.T, order)
            return lambda xc, yc: metric.ambient_jet(xc.T, yc.T, order, columns[:, c.start : c.start + len(xc)])

        f = [
            _columns(first_failure(lift(c), x[c], y[c], start=c.start).coeffs, c.stop - c.start)
            for c in _chunks(len(x), AMBIENT_CHUNK)
        ]
        return cls(x, y, Jet(2 * x.shape[1], order, np.concatenate(f, axis=1)))

    @property
    def F(self) -> np.ndarray:
        return self.f.coeffs[0]

    def first_derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, F_x, F_y) as (N,), (N, n), (N, n)."""
        n = self.n
        return self.F, self.f.coeffs[1 : 1 + n].T, self.f.coeffs[1 + n : 1 + 2 * n].T

    def _partials(self, blocks: str) -> np.ndarray:
        """F's partials over the x or y variables that ``blocks`` names in turn, such
        as "xyy" for F_{x^p y^i y^j}, as (N, p, i, j) (``Jet.partials``)."""
        ranges = {"x": range(self.n), "y": range(self.n, 2 * self.n)}
        return np.moveaxis(self.f.partials(*(ranges[b] for b in blocks)), -1, 0)

    @functools.cached_property
    def _f_xy(self) -> np.ndarray:
        return self._partials("xy")

    @functools.cached_property
    def _f_yy(self) -> np.ndarray:
        return self._partials("yy")

    def f_xy(self) -> np.ndarray:
        """F_{x^k y^l} as (N, k, l)."""
        return self._f_xy

    def g(self) -> np.ndarray:
        """The fundamental tensor g = (F^2)_yy / 2 = F F_yy + F_y F_y^T, (N, n, n)."""
        return self._g

    @functools.cached_property
    def _g(self) -> np.ndarray:
        F, _, fy = self.first_derivatives()
        return F[:, None, None] * self._f_yy + fy[:, :, None] * fy[:, None, :]

    def dg_dx(self) -> np.ndarray:
        """dg_ij/dx^p = F_{x^p} F_{y^i y^j} + F F_{x^p y^i y^j} + F_{x^p y^i} F_{y^j}
        + F_{y^i} F_{x^p y^j}, as (N, p, i, j)."""
        return self._dg_dx

    @functools.cached_property
    def _dg_dx(self) -> np.ndarray:
        (F, fx, fy), f_xy = self.first_derivatives(), self.f_xy()
        flow = fx[:, :, None, None] * self._f_yy[:, None] + F[:, None, None, None] * self._partials("xyy")
        return flow + f_xy[:, :, :, None] * fy[:, None, None, :] + fy[:, None, :, None] * f_xy[:, :, None, :]

    def cartan(self) -> np.ndarray:
        """C_ijp = (1/2) dg_ij/dy^p = (F F_{y^i y^j y^p} + F_{y^i y^j} F_{y^p}
        + F_{y^i y^p} F_{y^j} + F_{y^j y^p} F_{y^i}) / 2, (N, n, n, n)."""
        return self._cartan

    @functools.cached_property
    def _cartan(self) -> np.ndarray:
        (F, _, fy), f_yy = self.first_derivatives(), self._f_yy
        c = F[:, None, None, None] * self._partials("yyy") + f_yy[:, :, :, None] * fy[:, None, None, :]
        return 0.5 * (c + f_yy[:, :, None, :] * fy[:, None, :, None] + f_yy[:, None, :, :] * fy[:, :, None, None])

    def homogeneity_residual(self) -> np.ndarray:
        """The Euler residual |F_{y^k} y^k - F| / |F| (0 where F = 0), zero for a
        1-homogeneous F; the n columns are added in order."""
        F, _, fy = self.first_derivatives()
        euler = sum(fy[:, k] * self.y[:, k] for k in range(self.n))
        return quotient(abs(euler - F), abs(F))

    def spray(self) -> np.ndarray:
        """The spray G, (N, n): g G = (E_{x^k y^l} y^k - E_{x^l}) / 4 with E = F^2, so
        E_x = 2 F F_x and E_xy = 2 (F F_xy + F_x F_y^T), through one stacked Cholesky
        factorisation and two stacked solves.  The first row whose g does not
        factorise raises ``NotStronglyConvexError``."""
        F, fx, fy = self.first_derivatives()
        e_xy = F[:, None, None] * self.f_xy() + fx[:, :, None] * fy[:, None, :]  # E_xy / 2
        rhs = np.einsum("nkl,nk->nl", e_xy, self.y) - F[:, None] * fx
        chol, failed = cholesky_rows(self.g())
        refuse(failed, lambda i: _not_convex(self, i))
        return 0.5 * np.linalg.solve(chol.mT, np.linalg.solve(chol, rhs[:, :, None]))[:, :, 0]


def _not_convex(b, i: int) -> NotStronglyConvexError:
    return NotStronglyConvexError(f"metric is not strongly convex at x={b.x[i]}, y={b.y[i]}", i)


def bundle_of(metric, x: np.ndarray, y: np.ndarray):
    """The derivative bundle at the rows of the (N, n) arrays x and y: a
    ``ProfileBundle`` for a profile metric, an order-2 ``AmbientBundle``
    otherwise.  Either provides F, ``first_derivatives()``, ``f_xy()``, ``g()``,
    ``rapcsak_residuals()``, ``homogeneity_residual()`` and ``spray()``."""
    if isinstance(metric, SphericalMetric):
        return ProfileBundle.of(metric, x, y)
    return AmbientBundle.of(metric, x, y, 2)


# -- the fundamental tensor at a point, and residuals over samples ----------------


def fundamental_tensor(metric, x, y) -> np.ndarray:
    """g_ij = (1/2) d^2 F^2 / dy^i dy^j, read from ``bundle_of`` the point: the closed
    form (``ProfileBundle.g``) for a profile metric, F F_yy + F_y F_y^T from the ambient
    jet of F otherwise."""
    return bundle_of(metric, np.array([x], dtype=float), np.array([y], dtype=float)).g()[0]


def positive_definite(g: np.ndarray) -> bool:
    """Does g factorize as L L^T?  Failure reports False rather than raising."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


def cholesky_rows(g: np.ndarray):
    """(L, failed) for the (N, n, n) stack g: one stacked Cholesky factor L and no
    failed row, or, when some row does not factorise, None and the mask of those
    rows (``positive_definite`` row by row)."""
    try:
        return np.linalg.cholesky(g), np.zeros(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        return None, np.array([not positive_definite(gi) for gi in g])


def mirrored_phi_jets(metric: SphericalMetric, r, u, w, order: int):
    """(plus, minus): the profile's jets at each row's (r, u, w) and (r, u, -w), as two
    (ncoeff, N) arrays from one ``phi_jets`` call; an error's ``index`` names its row."""
    try:
        both = metric.phi_jets(np.repeat(r, 2), np.repeat(u, 2), np.stack([w, -w], axis=1).ravel(), order)
    except EvaluationError as err:
        err.index //= 2  # triple -> row
        raise
    return both[:, 0::2], both[:, 1::2]


def reversibility_residuals(metric: SphericalMetric, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|phi(r,u,-v) - phi(r,u,v)| / phi(r,u,v) at the rows of x and y, zero iff
    F(x,-y) = F(x,y) and NaN where phi = 0: one order-0 ``mirrored_phi_jets``.  An error
    names its lowest failing row (``jets.first_failure``)."""

    def build(x, y):
        r, u, v = invariant_rows(x, y)
        [plus], [minus] = mirrored_phi_jets(metric, r, u, v, 0)
        return abs(minus - plus) / np.where(plus == 0.0, np.nan, plus)

    return first_failure(build, x, y)


# -- builtin zoo ----------------------------------------------------------------


def _phi_euclidean(r, u, v):
    return u + 0.0


def _phi_klein(r, u, v):
    one_minus = 1.0 - r * r
    return sqrt(u * u * one_minus + v * v) / one_minus


def _phi_funk(r, u, v):
    one_minus = 1.0 - r * r
    return (sqrt(u * u * one_minus + v * v) + v) / one_minus


def _phi_berwald(r, u, v):
    one_minus = 1.0 - r * r
    w = sqrt(u * u * one_minus + v * v)
    s = w + v
    return s * s / (one_minus * one_minus * w)


def _phi_spherical(r, u, v):
    return sqrt(u * u * (1.0 + r * r) - v * v) / (1.0 + r * r)


def _make_phi_bryant(alpha: float):
    cos2a = math.cos(2.0 * alpha)
    sin2a = math.sin(2.0 * alpha)

    def phi(r, u, v):
        uu = u * u
        rr = r * r
        t = rr * uu - v * v
        b = cos2a * uu + t
        su = sin2a * uu
        a = b * b + su * su
        c = sin2a * v
        d = rr * rr + 2.0 * cos2a * rr + 1.0
        cd = c / d
        return sqrt((sqrt(a) + b) / (2.0 * d) + cd * cd) + cd

    return phi


def _build_bryant(alpha=0.0):
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real) or not 0.0 <= alpha < math.pi / 2.0:
        raise ValueError(f"bryant parameter alpha must be a number in [0, pi/2), got {alpha!r}")
    alpha = float(alpha)
    return SphericalMetric(
        "bryant",
        ClosedFormProfile(_make_phi_bryant(alpha)),
        math.inf,
        1.0,
        params={"alpha": alpha},
    )


# name -> factory; a factory's keyword arguments are the metric's parameters
_BUILTINS = {
    "euclidean": lambda: SphericalMetric("euclidean", ClosedFormProfile(_phi_euclidean), math.inf, 0.0),
    "klein": lambda: SphericalMetric("klein", ClosedFormProfile(_phi_klein), 1.0, -1.0),
    "funk": lambda: SphericalMetric("funk", ClosedFormProfile(_phi_funk), 1.0, -0.25),
    "berwald": lambda: SphericalMetric("berwald", ClosedFormProfile(_phi_berwald), 1.0, 0.0),
    "spherical": lambda: SphericalMetric("spherical", ClosedFormProfile(_phi_spherical), math.inf, 1.0),
    "bryant": _build_bryant,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_params(name: str) -> dict:
    """The parameters the builtin metric ``name`` takes, each with its default."""
    return {p.name: p.default for p in inspect.signature(_BUILTINS[name]).parameters.values()}


def builtin(name: str, **params) -> SphericalMetric:
    """Construct a builtin metric by name (parameters: bryant takes alpha, a number
    in [0, pi/2)); an unknown parameter name is a ``TypeError``."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin metric '{name}'") from None
    return factory(**params)
