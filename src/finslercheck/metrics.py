"""Metric representations, the profile bundle, and the pointwise checks built on them.

A spherically symmetric metric is carried by its profile phi(r, u, v) with
r = |x|, u = |y|, v = <x,y>; F(x,y) = phi(|x|, |y|, <x,y>).  phi must be
positive and positively 1-homogeneous in (u, v).  Profile jets use the
variable order r=0, u=1, v=2 throughout.

General metrics carry F(x, y) directly and are differentiated with jets in
the 2n ambient variables (x^1..x^n, y^1..y^n).  Spherical metrics support
both routes; the ambient route for a profile that cannot be evaluated on
arbitrary jets (the quadrature-built family) goes through multivariate
composition of its 3-variable jet.

Profile formulas (F_x, F_y, g, det g, homogeneity) are written once, as
array expressions over a ``ProfileBundle`` of N samples; derivatives in
(x, y) are read off an ``AmbientBundle`` of one ambient jet per sample.
The pointwise functions evaluate either on a one-sample bundle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expr_mod
from ._multi_index import derivative_factors
from .jets import Jet, compose_multivariate, lift_var, sqrt

R, U, V = 0, 1, 2

# Slack absorbing rounding at the boundary case phi_vv = 0 (Euclidean).
PHI_VV_SLACK = -1e-12


class MetricDomainError(ValueError):
    """Evaluation outside the metric's admissible domain."""


def invariants_of(x, y):
    """Rotation invariants (r, u, v) of a point-direction pair.

    v is clamped into [-ru, ru]: Cauchy-Schwarz holds exactly, and rounding
    must not push sqrt(r^2 u^2 - v^2) terms negative.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = float(np.linalg.norm(y))
    if u == 0.0:
        raise MetricDomainError("y must be nonzero")
    r = float(np.linalg.norm(x))
    v = float(np.dot(x, y))
    bound = r * u
    v = min(max(v, -bound), bound)
    return r, u, v


@dataclass(frozen=True)
class MetricSample:
    """A point-direction pair with cached rotation invariants."""

    x: np.ndarray
    y: np.ndarray
    r: float
    u: float
    v: float

    @classmethod
    def of(cls, x, y) -> "MetricSample":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r, u, v = invariants_of(x, y)
        return cls(x, y, r, u, v)


def _ambient_variables(x, y, order: int) -> list[Jet]:
    """Seed jets of the 2n ambient variables x^1..x^n, y^1..y^n, in that order."""
    point = np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    return [lift_var(i, c, len(point), order) for i, c in enumerate(point)]


# -- profile evaluators --------------------------------------------------------


class ClosedFormProfile:
    """phi given as a python function of three jets (r, u, v)."""

    supports_general_jets = True

    def __init__(self, fn):
        self.fn = fn

    def jet(self, r: float, u: float, v: float, order: int) -> Jet:
        return self.fn(
            lift_var(R, r, 3, order), lift_var(U, u, 3, order), lift_var(V, v, 3, order)
        )

    def apply(self, rj: Jet, uj: Jet, vj: Jet) -> Jet:
        return self.fn(rj, uj, vj)


class ExpressionProfile:
    """phi parsed from a formula in the variables r, u, v."""

    supports_general_jets = True

    def __init__(self, source: str):
        self.source = source
        self.ast = expr_mod.parse(source, {"r", "u", "v"})

    def jet(self, r: float, u: float, v: float, order: int) -> Jet:
        return self.apply(
            lift_var(R, r, 3, order), lift_var(U, u, 3, order), lift_var(V, v, 3, order)
        )

    def apply(self, rj: Jet, uj: Jet, vj: Jet) -> Jet:
        return expr_mod.evaluate(self.ast, {"r": rj, "u": uj, "v": vj})


@dataclass
class SphericalMetric:
    """F(x,y) = phi(|x|, |y|, <x,y>) on the ball |x| < domain_radius."""

    name: str
    profile: object
    domain_radius: float = math.inf
    expected_curvature: float | None = None
    params: dict = field(default_factory=dict)

    def phi_jet(self, r: float, u: float, v: float, order: int = 2) -> Jet:
        if u <= 0.0:
            raise MetricDomainError("u must be positive")
        if r >= self.domain_radius:
            raise MetricDomainError(
                f"|x| = {r} outside domain of {self.name} (radius {self.domain_radius})"
            )
        return self.profile.jet(r, u, v, order)

    def phi_value(self, r: float, u: float, v: float) -> float:
        return self.phi_jet(r, u, v, order=0).value

    def evaluate(self, x, y) -> float:
        r, u, v = invariants_of(x, y)
        value = self.phi_value(r, u, v)
        if not value > 0.0:
            raise MetricDomainError(
                f"{self.name} is not positive at r={r}, u={u}, v={v}: phi={value}"
            )
        return value

    def ambient_jet(self, x, y, order: int) -> Jet:
        """Jet of F in the 2n variables (x^1..x^n, y^1..y^n)."""
        v = _ambient_variables(x, y, order)
        xs, ys = v[: len(v) // 2], v[len(v) // 2 :]
        rj = sqrt(sum(c * c for c in xs))
        uj = sqrt(sum(c * c for c in ys))
        vj = sum(a * b for a, b in zip(xs, ys))
        if getattr(self.profile, "supports_general_jets", False):
            return self.profile.apply(rj, uj, vj)
        outer = self.phi_jet(rj.value, uj.value, vj.value, order)
        return compose_multivariate(outer, [rj, uj, vj])


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
        ast = expr_mod.parse(source, set(names))

        def fn(xs, ys):
            return expr_mod.evaluate(ast, dict(zip(names, list(xs) + list(ys))))

        return cls(name, n, fn, domain_radius)

    def ambient_jet(self, x, y, order: int) -> Jet:
        if len(x) != self.n:
            raise MetricDomainError(f"{self.name} is {self.n}-dimensional")
        v = _ambient_variables(x, y, order)
        return self.fn(v[: self.n], v[self.n :])

    def evaluate(self, x, y) -> float:
        value = self.ambient_jet(x, y, 0).value
        if not value > 0.0:
            raise MetricDomainError(f"{self.name} is not positive at x={x}, y={y}")
        return value


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


# -- the profile bundle ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ProfileBundle:
    """phi and its nine first and second partials at N samples, as length-N arrays.

    Filled by one order-2 ``phi_jet`` per sample; every profile formula
    (here and in ``projective`` and ``geodesics``) is an array expression
    over a bundle.  x and y are (N, n) arrays; a bundle built from the
    invariants alone (``at_invariants``) has n = 0.
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

    @classmethod
    def of(cls, metric: SphericalMetric, samples) -> "ProfileBundle":
        coeffs = np.array([metric.phi_jet(s.r, s.u, s.v, 2).coeffs for s in samples])
        # slots (), r, u, v, rr, ru, rv, uu, uv, vv; times a! they are the partials
        partials = (coeffs * derivative_factors(3, 2)).T
        invariants = np.array([(s.r, s.u, s.v) for s in samples]).T
        x = np.array([s.x for s in samples])
        return cls(x, np.array([s.y for s in samples]), *invariants, *partials)

    @classmethod
    def at(cls, metric: SphericalMetric, x, y) -> "ProfileBundle":
        return cls.of(metric, [MetricSample.of(x, y)])

    @classmethod
    def at_invariants(cls, metric: SphericalMetric, r: float, u: float, v: float) -> "ProfileBundle":
        return cls.of(metric, [MetricSample(np.zeros(0), np.zeros(0), r, u, v)])

    @property
    def F(self) -> np.ndarray:
        return self.phi

    def first_derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, F_x, F_y) as (N,), (N, n), (N, n), by the chain rule:

            F_x = phi_r x/r + phi_v y,  F_y = phi_u y/u + phi_v x

        (for r = 0 the phi_r term vanishes with x).
        """
        phi_v = self.phi_v[:, None]
        fx = self.phi_r[:, None] * quotient(self.x, self.r[:, None]) + phi_v * self.y
        fy = (self.phi_u / self.u)[:, None] * self.y + phi_v * self.x
        return self.phi, fx, fy

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
        g = c_delta * np.eye(self.x.shape[1]) + c_xx * (x * xt)
        return g + c_yy * (y * yt) + c_xy * (x * yt + y * xt)

    def det_g(self) -> np.ndarray:
        """det(g) = (phi/u)^(n+1) phi_u^(n-2) [phi_u + (r^2 u^2 - v^2) phi_vv / u]."""
        n = self.x.shape[1]
        r, u, v = self.r, self.u, self.v
        bracket = self.phi_u + (r * r * u * u - v * v) * self.phi_vv / u
        return (self.phi / u) ** (n + 1) * self.phi_u ** (n - 2) * bracket

    def convexity_lemma(self) -> np.ndarray:
        """The sufficient condition phi_u > 0 and phi_vv >= 0 (up to PHI_VV_SLACK)."""
        return (self.phi_u > 0.0) & (self.phi_vv >= PHI_VV_SLACK)

    def homogeneity_residual(self) -> np.ndarray:
        """Largest violation of the degree-1 Euler relations of the profile.

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

        first = abs(u * phi_u + v * phi_v - self.phi) / abs(self.phi)
        return np.maximum.reduce([
            first,
            scaled(u * phi_uu, v * phi_uv, phi_u),
            scaled(u * phi_uv, v * phi_vv, phi_v),
            scaled(phi_uu, -((v / u) ** 2) * phi_vv, phi_u / u),
        ])


# -- the ambient bundle -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AmbientBundle:
    """F and E = F^2 with their partials in the 2n ambient variables, at N samples.

    One ``metric.ambient_jet`` per sample, stacked as the columns of an N-point
    jet, so each column is that sample's jet bit for bit.  The only code that
    knows the layout (x^1..x^n, y^1..y^n) and the block scalings g = E_yy / 2,
    dg/dx = E_xyy / 2, C = E_yyy / 4.  Arrays have the sample axis first.
    """

    x: np.ndarray
    y: np.ndarray
    f: Jet
    e: Jet

    @classmethod
    def of(cls, metric, samples, order: int = 3) -> "AmbientBundle":
        jets = [metric.ambient_jet(s.x, s.y, order) for s in samples]
        f = Jet(jets[0].nvars, order, np.stack([j.coeffs for j in jets], axis=1))
        # E sample by sample: one N-point product would hold all N samples' product terms at once
        e = Jet(jets[0].nvars, order, np.stack([(j * j).coeffs for j in jets], axis=1))
        return cls(np.array([s.x for s in samples]), np.array([s.y for s in samples]), f, e)

    @classmethod
    def at(cls, metric, x, y, order: int = 3) -> "AmbientBundle":
        return cls.of(metric, [MetricSample.of(x, y)], order)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def F(self) -> np.ndarray:
        return self.f.coeffs[0]

    def first_derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, F_x, F_y) as (N,), (N, n), (N, n)."""
        n = self.n
        return self.F, self.f.coeffs[1 : 1 + n].T, self.f.coeffs[1 + n : 1 + 2 * n].T

    @functools.cached_property
    def _e3(self) -> np.ndarray:
        return np.moveaxis(self.e.third_tensor(), -1, 0)

    def f_xy(self) -> np.ndarray:
        """F_{x^k y^l} as (N, k, l)."""
        return np.moveaxis(self.f.hessian(), -1, 0)[:, : self.n, self.n :]

    def g(self) -> np.ndarray:
        """The fundamental tensor g_ij = E_{y^i y^j} / 2, (N, n, n)."""
        return np.moveaxis(self.e.hessian(), -1, 0)[:, self.n :, self.n :] / 2.0

    def dg_dx(self) -> np.ndarray:
        """dg_ij/dx^p = E_{x^p y^i y^j} / 2 as (N, p, i, j)."""
        return self._e3[:, : self.n, self.n :, self.n :] / 2.0

    def cartan(self) -> np.ndarray:
        """C_ijp = (1/2) dg_ij/dy^p = E_{y^i y^j y^p} / 4, (N, n, n, n)."""
        return self._e3[:, self.n :, self.n :, self.n :] / 4.0

    def spray_bracket(self) -> np.ndarray:
        """E_{x^k y^l} y^k - E_{x^l}, (N, n): 4 g G, G the spray."""
        e_xy = np.moveaxis(self.e.hessian(), -1, 0)[:, : self.n, self.n :]
        return np.einsum("nkl,nk->nl", e_xy, self.y) - self.e.coeffs[1 : 1 + self.n].T


# -- pointwise wrappers -------------------------------------------------------------


def first_derivatives(metric, samples, bundle=None):
    """(F, F_x, F_y) at the samples as (N,), (N, n) and (N, n) arrays, read from
    ``bundle`` (a profile or ambient bundle of the samples) or a new one."""
    if bundle is None and isinstance(metric, SphericalMetric):
        bundle = ProfileBundle.of(metric, samples)
    return (bundle or AmbientBundle.of(metric, samples, 1)).first_derivatives()


def fundamental_tensor(metric, x, y) -> np.ndarray:
    """g_ij = (1/2) d^2 F^2 / dy^i dy^j.

    Closed form (``ProfileBundle.g``) for a profile metric, the ambient jet
    of F^2 for a general metric.
    """
    if isinstance(metric, SphericalMetric):
        return ProfileBundle.at(metric, x, y).g()[0]
    return fundamental_tensor_ad(metric, x, y)


def fundamental_tensor_ad(metric, x, y) -> np.ndarray:
    """g via the ambient jet of F^2; the cross-check route for profiles."""
    return AmbientBundle.at(metric, x, y, 2).g()[0]


def det_g_closed_form(metric: SphericalMetric, x, y) -> float:
    """det(g) from the profile (``ProfileBundle.det_g``)."""
    return float(ProfileBundle.at(metric, x, y).det_g()[0])


def positive_definite(g: np.ndarray) -> bool:
    """Does g factorize as L L^T?  Failure reports False rather than raising."""
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class ConvexityReport:
    lemma_ok: bool
    direct_pd: bool


def convexity_report(metric: SphericalMetric, x, y) -> ConvexityReport:
    """Strong-convexity check two ways.

    lemma_ok is the sufficient profile condition phi_u > 0 and phi_vv >= 0
    (up to PHI_VV_SLACK); direct_pd factorizes g.  lemma_ok implies
    direct_pd.
    """
    b = ProfileBundle.at(metric, x, y)
    return ConvexityReport(bool(b.convexity_lemma()[0]), positive_definite(b.g()[0]))


def homogeneity_residual(metric: SphericalMetric, r: float, u: float, v: float) -> float:
    """Euler-relation residual at one point (``ProfileBundle.homogeneity_residual``)."""
    return float(ProfileBundle.at_invariants(metric, r, u, v).homogeneity_residual()[0])


def reversibility_residual(metric: SphericalMetric, r: float, u: float, v: float) -> float:
    """|phi(r,u,-v) - phi(r,u,v)| / phi(r,u,v); zero iff F(x,-y) = F(x,y)."""
    forward = metric.phi_value(r, u, v)
    backward = metric.phi_value(r, u, -v)
    return abs(backward - forward) / forward


@dataclass(frozen=True)
class RiemannianProbe:
    g_deviation: float
    cartan_max: float


def riemannian_probe_of(b: AmbientBundle, directions: int) -> tuple[np.ndarray, np.ndarray]:
    """How y-dependent is g?  Per base point (``directions`` pairs each, point-major):
    the largest difference of g between two directions and the largest Cartan
    entry, both relative to the largest g entry; zero for a Riemannian metric."""
    n = b.n
    g = b.g().reshape(-1, directions, n, n)
    scale = np.abs(g).max(axis=(1, 2, 3))
    deviation = np.abs(g[:, :, None] - g[:, None, :]).max(axis=(1, 2, 3, 4))
    cartan = np.abs(b.cartan().reshape(len(scale), -1)).max(axis=1)
    return quotient(deviation, scale), quotient(cartan, scale)


def riemannian_probe(metric, x, ys) -> RiemannianProbe:
    """``riemannian_probe_of`` at x over the directions ys."""
    b = AmbientBundle.of(metric, [MetricSample.of(x, y) for y in ys])
    return RiemannianProbe(*(float(a[0]) for a in riemannian_probe_of(b, len(ys))))


# -- builtin zoo ----------------------------------------------------------------


def _phi_euclidean(r, u, v):
    return u + 0.0


def _phi_klein(r, u, v):
    w = sqrt(u * u * (1.0 - r * r) + v * v)
    return w / (1.0 - r * r)


def _phi_funk(r, u, v):
    w = sqrt(u * u * (1.0 - r * r) + v * v)
    return (w + v) / (1.0 - r * r)


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


def _build_euclidean(params):
    return SphericalMetric("euclidean", ClosedFormProfile(_phi_euclidean), math.inf, 0.0)


def _build_klein(params):
    return SphericalMetric("klein", ClosedFormProfile(_phi_klein), 1.0, -1.0)


def _build_funk(params):
    return SphericalMetric("funk", ClosedFormProfile(_phi_funk), 1.0, -0.25)


def _build_berwald(params):
    return SphericalMetric("berwald", ClosedFormProfile(_phi_berwald), 1.0, 0.0)


def _build_spherical(params):
    return SphericalMetric("spherical", ClosedFormProfile(_phi_spherical), math.inf, 1.0)


def _build_bryant(params):
    alpha = float(params.get("alpha", 0.0))
    if not 0.0 <= alpha < math.pi / 2.0:
        raise ValueError(f"bryant parameter alpha must be in [0, pi/2), got {alpha}")
    return SphericalMetric(
        "bryant",
        ClosedFormProfile(_make_phi_bryant(alpha)),
        math.inf,
        1.0,
        params={"alpha": alpha},
    )


_BUILTINS = {
    "euclidean": _build_euclidean,
    "klein": _build_klein,
    "funk": _build_funk,
    "berwald": _build_berwald,
    "spherical": _build_spherical,
    "bryant": _build_bryant,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str, **params) -> SphericalMetric:
    """Construct a builtin metric by name (parameters: bryant takes alpha)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown builtin metric '{name}'") from None
    return factory(params)
