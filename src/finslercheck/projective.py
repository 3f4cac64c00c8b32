"""Projectivity and constant flag curvature for profile metrics.

A metric is projective (straight-line geodesics) iff F_{x^k y^l} y^k = F_{x^l}.
In profile coordinates this reduces to the pair of PDEs

    phi_rv v/r + phi_vv u^2 = phi_r / r        (radial component)
    phi_uv u + phi_ru v/(r u) = 0              (tangential component)

which are equivalent for 1-homogeneous phi.  For projective metrics the
spray collapses to G^i = P y^i with projective factor

    P = (v phi_r / r + u^2 phi_v) / (2 phi) = F_{x^k} y^k / (2 F),

and constant flag curvature lambda is characterized by a second pair of
PDEs in Q = v phi_r / r + u^2 phi_v:

    4 lambda r phi^4 phi_u + r phi_u Q^2 - 4 r u phi phi_v Q + 4 u phi^2 phi_r = 0
    4 lambda r phi^4 phi_v + r phi_v Q^2 + 2 phi^2 Q_r - 4 phi phi_r Q = 0.

The pointwise curvature evaluator contracts P_{x^k} = P P_{y^k} - lambda F F_{y^k}
with y^k; Euler's relation P_{y^k} y^k = P turns it into

    lambda = (P^2 - P_{x^k} y^k) / F^2,   P_{x^k} y^k = P_r v/r + P_v u^2,

which needs only second-order profile jets.  All formulas carry 1/r, so
operations here require r >= ``metrics.MIN_RADIUS``.  Both bundles share the
one Rapcsak residual (``rapcsak_residuals``, from F_x and F_xy).  Each formula
gives one value (or one pair) per sample; ``checks.check_curvature`` reduces
them to its records: the median lambda, the projectivity gate and the PDE
pair at the hypothesis.
"""

from __future__ import annotations

import numpy as np

from .metrics import ProfileBundle, SphericalMetric, bundle_of, relative_residual


# -- formulas over a profile bundle ---------------------------------------------


def projective_pde_of(b: ProfileBundle) -> tuple[np.ndarray, np.ndarray]:
    """Scale-free residuals of the projectivity PDE pair (radial, tangential), the
    coefficients of x^l and of y^l in the Rapcsak difference F_{x^k y^l} y^k - F_{x^l}."""
    b.require_radius()
    r, u, v = b.r, b.u, b.v
    radial = relative_residual(b.phi_rv * v / r, b.phi_vv * u * u, -b.phi_r / r)
    return radial, relative_residual(b.phi_ru * v / (r * u), b.phi_uv * u)


def _q_partials(b: ProfileBundle):
    """(Q, Q_r, Q_u, Q_v), Q = F_{x^k} y^k = v phi_r / r + u^2 phi_v."""
    b.require_radius()
    r, u, v = b.r, b.u, b.v
    q_r = -v / (r * r) * b.phi_r + v / r * b.phi_rr + u * u * b.phi_rv
    q_u = v / r * b.phi_ru + 2.0 * u * b.phi_v + u * u * b.phi_uv
    q_v = b.phi_r / r + v / r * b.phi_rv + u * u * b.phi_vv
    return v / r * b.phi_r + u * u * b.phi_v, q_r, q_u, q_v


def p_of(b: ProfileBundle):
    """(P, P_r, P_u, P_v) for the projective factor P = Q / (2 phi)."""
    q, q_r, q_u, q_v = _q_partials(b)
    phi = b.phi
    den = 2.0 * phi * phi
    return (
        q / (2.0 * phi),
        (q_r * phi - q * b.phi_r) / den,
        (q_u * phi - q * b.phi_u) / den,
        (q_v * phi - q * b.phi_v) / den,
    )


def flag_curvature_of(b: ProfileBundle) -> np.ndarray:
    """lambda = (P^2 - P_{x^k} y^k) / F^2 with P_{x^k} y^k = P_r v/r + P_v u^2."""
    p, p_r, _, p_v = p_of(b)
    p_xy = p_r * b.v / b.r + p_v * b.u * b.u
    return (p * p - p_xy) / (b.phi * b.phi)


def curvature_pde_of(b: ProfileBundle, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale-free residuals of the two constant-curvature PDEs at lambda."""
    q, q_r, _, _ = _q_partials(b)
    r, u, phi = b.r, b.u, b.phi
    c_u = relative_residual(
        4.0 * lam * r * phi**4 * b.phi_u,
        r * b.phi_u * q * q,
        -4.0 * r * u * phi * b.phi_v * q,
        4.0 * u * phi * phi * b.phi_r,
    )
    c_v = relative_residual(
        4.0 * lam * r * phi**4 * b.phi_v,
        r * b.phi_v * q * q,
        2.0 * phi * phi * q_r,
        -4.0 * phi * b.phi_r * q,
    )
    return c_u, c_v


# -- pointwise wrappers ------------------------------------------------------------


def rapcsak_residual(metric, x, y) -> np.ndarray:
    """Component-wise scale-free residual of F_{x^k y^l} y^k - F_{x^l} at one
    point-direction pair, an n-vector (``rapcsak_residuals`` of its bundle)."""
    x, y = np.array([x], dtype=float), np.array([y], dtype=float)
    return bundle_of(metric, x, y).rapcsak_residuals()[0]


def flag_curvature(metric: SphericalMetric, r: float, u: float, v: float) -> float:
    """Pointwise flag curvature of a projective profile metric, from the n = 0
    bundle of the invariants alone."""
    empty = np.zeros((1, 0))
    invariants = tuple(np.array([w], dtype=float) for w in (r, u, v))
    b = ProfileBundle._of_columns(empty, empty, invariants, metric.phi_jets(*invariants))
    return float(flag_curvature_of(b)[0])
