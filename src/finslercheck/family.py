"""The projective integral family of profile metrics.

Every projective spherically symmetric metric has a profile of the form

    phi(r, u, v) = integral_0^u f(v^2/t^2 - r^2) dt + c(r, v),

where f > 0 and c is 1-homogeneous in v.  This module builds such metrics
from expression strings for f and the baseline term:

    plain           c = g(r) v
    abs_corrected   c = g(r) v + h(r) |v|

The |v| correction exists because the antiderivative that reproduces some
classical metrics differs from g(r) v by an h(r)|v| term; it is evaluated
only at v != 0.

Derivatives in u never touch the quadrature: phi_u = f(v^2/u^2 - r^2)
exactly (fundamental theorem of calculus), and every mixed derivative with
a u goes through that closed form.  Only the u-free derivatives are
integrated, with a jet-valued integrand in (r, v) and adaptive
Gauss-Legendre bisection; differentiating an adaptive mesh would not be
smooth in the parameters, the split avoids it entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from ._multi_index import index_tuples, position_map
from .jets import Jet, absval, lift_var
from .metrics import R, SphericalMetric, U, V


class FamilyError(ValueError):
    """A family construction or evaluation failure."""


class QuadratureError(FamilyError):
    """Adaptive integration failed to converge within the depth budget."""


# Gauss-Legendre nodes never touch the endpoints, so the integrable
# singularity of the integrand argument at t -> 0 is never evaluated.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

# Growth exponent of f at +infinity must stay below 1/2 for the integral
# to converge at t -> 0; reject slightly earlier to keep clear of the edge.
_DECAY_SLOPE_LIMIT = 0.45
_PROBE_GRID = np.logspace(-3.0, 6.0, 50)

# A panel cannot be resolved below rounding of its absolute integral; the
# bisection tolerance stops shrinking there instead of recursing forever
# (derivative integrands peak like 1/v^2 near t = |v|).
_ROUNDOFF_FLOOR = 1e-14


@dataclass(frozen=True)
class ProjectiveFamilySpec:
    """Recipe for one family metric.

    f is a formula in t, g and h formulas in r (all in the expression
    grammar).  abs_tol bounds the quadrature error per coefficient.
    """

    f: str
    g: str = "0"
    baseline: str = "plain"
    h: str | None = None
    abs_tol: float = 1e-12
    max_depth: int = 40
    domain_radius: float = 1.0

    def validate(self) -> None:
        if self.baseline not in ("plain", "abs_corrected"):
            raise FamilyError(f"unknown baseline '{self.baseline}'")
        if self.baseline == "abs_corrected" and self.h is None:
            raise FamilyError("abs_corrected baseline needs an h formula")
        if self.abs_tol <= 0.0:
            raise FamilyError("quadrature abs_tol must be positive")
        if self.max_depth < 1:
            raise FamilyError("max_depth must be at least 1")


class _CompiledFamily:
    def __init__(self, spec: ProjectiveFamilySpec):
        spec.validate()
        self.spec = spec
        self.f_ast = expr_mod.parse(spec.f, {"t"})
        self.g_ast = expr_mod.parse(spec.g, {"r"})
        self.h_ast = expr_mod.parse(spec.h, {"r"}) if spec.h is not None else None

    def f_scalar(self, t: float) -> float:
        return expr_mod.evaluate(self.f_ast, {"t": Jet.constant(t, 1, 0)}).value

    def precheck(self) -> None:
        """Positivity of f on the probe grid, and integrable growth at +inf."""
        values = []
        for s in _PROBE_GRID:
            val = self.f_scalar(float(s))
            if not val > 0.0:
                raise FamilyError(f"f must be positive: f({s:g}) = {val:g}")
            values.append(val)
        tail = _PROBE_GRID >= 1e2
        logs = np.log(np.array(values)[tail])
        logt = np.log(_PROBE_GRID[tail])
        slope = float(np.polyfit(logt, logs, 1)[0])
        if slope >= _DECAY_SLOPE_LIMIT:
            raise FamilyError(
                f"f grows like s^{slope:.2f} at infinity; the profile integral "
                f"needs growth below s^0.5 to converge"
            )


def _integrand_coeffs(fam: _CompiledFamily, t: np.ndarray, r: float, v: float, order: int) -> np.ndarray:
    """Taylor coefficients in (r, v) of f(v^2/t^2 - r^2), one column per node in t."""
    rj = lift_var(0, r, 2, order)
    vj = lift_var(1, v, 2, order)
    s = (vj * vj).coeffs[:, None] * (1.0 / (t * t)) - (rj * rj).coeffs[:, None]
    c = expr_mod.evaluate(fam.f_ast, {"t": Jet(2, order, s)}).coeffs
    # an f free of t evaluates to a one-point jet: the same column at every node
    return np.broadcast_to(c if c.ndim == 2 else c[:, None], s.shape)


def _gauss_panel(fam, a: float, b: float, r: float, v: float, order: int):
    """(panel integral, integral of |coefficients|) over [a, b].

    All 15 nodes go through one batched integrand jet; the weighted columns
    are summed in node order (a running sum, not a pairwise reduction).
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    c = _integrand_coeffs(fam, mid + half * _GL_NODES, r, v, order)
    acc = np.cumsum(_GL_WEIGHTS * c, axis=1)[:, -1]
    acc_abs = np.cumsum(_GL_WEIGHTS * np.abs(c), axis=1)[:, -1]
    return half * acc, half * acc_abs


def _adaptive(fam, a, b, estimate, r, v, order, tol, depth, max_depth) -> np.ndarray:
    mid = 0.5 * (a + b)
    left, left_abs = _gauss_panel(fam, a, mid, r, v, order)
    right, right_abs = _gauss_panel(fam, mid, b, r, v, order)
    refined = left + right
    floor = _ROUNDOFF_FLOOR * float((left_abs + right_abs).max())
    if float(np.abs(refined - estimate).max()) <= max(tol, floor):
        return refined
    if depth >= max_depth:
        raise QuadratureError(
            f"profile integral did not converge on [{a:g}, {b:g}] "
            f"after {max_depth} bisection levels"
        )
    return _adaptive(fam, a, mid, left, r, v, order, 0.5 * tol, depth + 1, max_depth) + _adaptive(
        fam, mid, b, right, r, v, order, 0.5 * tol, depth + 1, max_depth
    )


def _quadrature_jet(fam: _CompiledFamily, r: float, u: float, v: float, order: int) -> np.ndarray:
    estimate, _ = _gauss_panel(fam, 0.0, u, r, v, order)
    return _adaptive(fam, 0.0, u, estimate, r, v, order, fam.spec.abs_tol, 0, fam.spec.max_depth)


_RV_TO_2VAR = {R: 0, V: 1}


def _assemble(fam: _CompiledFamily, r: float, u: float, v: float, order: int) -> Jet:
    quad = _quadrature_jet(fam, r, u, v, order)
    pos2 = position_map(2, order)
    coeffs = np.zeros(len(index_tuples(3, order)))
    if order >= 1:
        s3 = _argument_jet(r, u, v, order - 1)
        ftc = expr_mod.evaluate(fam.f_ast, {"t": s3}).coeffs
        pos_ftc = position_map(3, order - 1)
    for slot, idx in enumerate(index_tuples(3, order)):
        u_count = idx.count(U)
        if u_count == 0:
            squeezed = tuple(_RV_TO_2VAR[i] for i in idx)
            coeffs[slot] = quad[pos2[squeezed]]
        else:
            reduced = list(idx)
            reduced.remove(U)
            coeffs[slot] = ftc[pos_ftc[tuple(reduced)]] / u_count
    return Jet(3, order, coeffs)


def _argument_jet(r: float, u: float, v: float, order: int) -> Jet:
    rj = lift_var(R, r, 3, order)
    uj = lift_var(U, u, 3, order)
    vj = lift_var(V, v, 3, order)
    return vj * vj / (uj * uj) - rj * rj


def integral_jet(spec: ProjectiveFamilySpec, r: float, u: float, v: float, order: int) -> Jet:
    """Jet of integral_0^u f(v^2/t^2 - r^2) dt in the profile variables.

    u-derivatives come from the closed form f(v^2/u^2 - r^2); only u-free
    derivatives are integrated.
    """
    if u <= 0.0:
        raise FamilyError("u must be positive")
    fam = _CompiledFamily(spec)
    fam.precheck()
    return _assemble(fam, r, u, v, order)


class FamilyProfile:
    """Profile evaluator for a built family metric (3-variable jets only)."""

    def __init__(self, fam: _CompiledFamily):
        self.fam = fam

    def jet(self, r: float, u: float, v: float, order: int) -> Jet:
        phi = _assemble(self.fam, r, u, v, order)
        rj = lift_var(R, r, 3, order)
        vj = lift_var(V, v, 3, order)
        phi = phi + expr_mod.evaluate(self.fam.g_ast, {"r": rj}) * vj
        if self.fam.h_ast is not None:
            phi = phi + expr_mod.evaluate(self.fam.h_ast, {"r": rj}) * absval(vj)
        return phi


def build_projective_metric(spec: ProjectiveFamilySpec, name: str | None = None) -> SphericalMetric:
    """Construct the family metric and spot-check its positivity.

    The result is projective by construction; homogeneity and the
    projectivity PDEs hold to quadrature accuracy, which the test suite
    verifies.
    """
    fam = _CompiledFamily(spec)
    fam.precheck()
    profile = FamilyProfile(fam)
    if name is None:
        name = f"family(f={spec.f}, g={spec.g}" + (
            f", h={spec.h})" if spec.h is not None else ")"
        )
    metric = SphericalMetric(name, profile, spec.domain_radius)
    r_hi = 0.9 * min(spec.domain_radius, 2.0)
    for r, u, v in [
        (0.06, 1.0, 0.03),
        (0.5 * r_hi, 0.5, -0.2 * r_hi),
        (r_hi, 2.0, 0.9 * r_hi * 2.0),
        (r_hi, 0.1, -0.05 * r_hi),
    ]:
        value = metric.phi_value(r, u, v)
        if not value > 0.0:
            raise FamilyError(
                f"built profile is not positive at r={r:g}, u={u:g}, v={v:g}: phi={value:g}"
            )
    return metric
