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
operations here require r >= MIN_RADIUS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import (
    AmbientBundle,
    MetricSample,
    ProfileBundle,
    SphericalMetric,
    quotient,
    relative_residual,
    worst_residual,
)

MIN_RADIUS = 0.05


def _require_radius(b: ProfileBundle) -> None:
    low = b.r[b.r < MIN_RADIUS]
    if low.size:
        raise ValueError(f"profile-space operators need r >= {MIN_RADIUS}, got {low[0]}")


# -- formulas over a profile bundle ---------------------------------------------


def _rapcsak_coefficients(b: ProfileBundle):
    """(radial, tangential): the terms of the two coefficients in

        F_{x^k y^l} y^k - F_{x^l} = (phi_rv v/r + phi_vv u^2 - phi_r/r) x^l
                                    + (phi_ru v/(ru) + phi_uv u) y^l

    (at r = 0 the 1/r terms vanish with x and v).
    """
    r, u, v = b.r, b.u, b.v
    radial = (quotient(b.phi_rv * v, r), b.phi_vv * u * u, -quotient(b.phi_r, r))
    tangential = (quotient(b.phi_ru * v, r * u), b.phi_uv * u)
    return radial, tangential


def rapcsak_terms(b: ProfileBundle) -> list[np.ndarray]:
    """The five (N, n) terms of F_{x^k y^l} y^k - F_{x^l}."""
    radial, tangential = _rapcsak_coefficients(b)
    return [c[:, None] * b.x for c in radial] + [c[:, None] * b.y for c in tangential]


def projective_pde_of(b: ProfileBundle) -> tuple[np.ndarray, np.ndarray]:
    """Scale-free residuals of the projectivity PDE pair (radial, tangential):
    the two coefficients of the Rapcsak difference."""
    _require_radius(b)
    radial, tangential = _rapcsak_coefficients(b)
    return relative_residual(*radial), relative_residual(*tangential)


def q_of(b: ProfileBundle) -> np.ndarray:
    """Q = v phi_r / r + u^2 phi_v = F_{x^k} y^k (the phi_r term vanishes at r = 0)."""
    return quotient(b.v, b.r) * b.phi_r + b.u * b.u * b.phi_v


def _q_partials(b: ProfileBundle):
    """(Q, Q_r, Q_u, Q_v)."""
    _require_radius(b)
    r, u, v = b.r, b.u, b.v
    q_r = -v / (r * r) * b.phi_r + v / r * b.phi_rr + u * u * b.phi_rv
    q_u = v / r * b.phi_ru + 2.0 * u * b.phi_v + u * u * b.phi_uv
    q_v = b.phi_r / r + v / r * b.phi_rv + u * u * b.phi_vv
    return q_of(b), q_r, q_u, q_v


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


def curvature_components_of(b: ProfileBundle, lam: float) -> np.ndarray:
    """Component-wise residual of P_{x^k} = P P_{y^k} - lambda F F_{y^k}, (N, n)."""
    p, p_r, p_u, p_v = (a[:, None] for a in p_of(b))
    x, y, r, u = b.x, b.y, b.r[:, None], b.u[:, None]
    lam_phi = lam * b.phi[:, None]
    return relative_residual(
        p_r * x / r,
        p_v * y,
        -p * (p_u * y / u),
        -p * (p_v * x),
        lam_phi * (b.phi_u[:, None] * y / u),
        lam_phi * (b.phi_v[:, None] * x),
    )


# -- pointwise wrappers ------------------------------------------------------------


def rapcsak_residuals(metric, samples, bundle=None) -> np.ndarray:
    """Component-wise scale-free residual of F_{x^k y^l} y^k - F_{x^l}, (N, n).

    Profile metrics use ``rapcsak_terms`` over a ``ProfileBundle``; general
    metrics read both sides off an ``AmbientBundle`` (order >= 2).
    """
    if isinstance(metric, SphericalMetric):
        b = bundle if bundle is not None else ProfileBundle.of(metric, samples)
        _require_radius(b)
        return relative_residual(*rapcsak_terms(b))
    b = bundle if bundle is not None else AmbientBundle.of(metric, samples, 2)
    f_xy, fx = b.f_xy(), b.first_derivatives()[1]
    return relative_residual(*(f_xy[:, k] * b.y[:, k, None] for k in range(b.n)), -fx)


def rapcsak_residual(metric, x, y) -> np.ndarray:
    """``rapcsak_residuals`` at one point-direction pair, an n-vector."""
    return rapcsak_residuals(metric, [MetricSample.of(x, y)])[0]


def projective_pde_residuals(metric: SphericalMetric, r: float, u: float, v: float) -> tuple[float, float]:
    """Scale-free residuals of the projectivity PDE pair (radial, tangential)."""
    rho1, rho2 = projective_pde_of(ProfileBundle.at_invariants(metric, r, u, v))
    return float(rho1[0]), float(rho2[0])


def projective_factor(metric: SphericalMetric, r: float, u: float, v: float) -> float:
    """P = (v phi_r / r + u^2 phi_v) / (2 phi); 1-homogeneous in (u, v)."""
    return float(p_of(ProfileBundle.at_invariants(metric, r, u, v))[0][0])


def curvature_pde_residuals(
    metric: SphericalMetric, r: float, u: float, v: float, lam: float
) -> tuple[float, float]:
    """Scale-free residuals of the two constant-curvature PDEs at lambda."""
    c_u, c_v = curvature_pde_of(ProfileBundle.at_invariants(metric, r, u, v), lam)
    return float(c_u[0]), float(c_v[0])


def flag_curvature(metric: SphericalMetric, r: float, u: float, v: float) -> float:
    """Pointwise flag curvature of a projective profile metric."""
    return float(flag_curvature_of(ProfileBundle.at_invariants(metric, r, u, v))[0])


def curvature_component_residuals(metric: SphericalMetric, x, y, lam: float) -> np.ndarray:
    """Cross-check for the contracted evaluator at one point-direction pair."""
    return curvature_components_of(ProfileBundle.at(metric, x, y), lam)[0]


@dataclass(frozen=True)
class CurvatureVerdict:
    """Outcome of a constant-flag-curvature scan over samples."""

    status: str  # "constant" | "non_constant" | "not_projective"
    lambda_estimate: float | None
    max_deviation: float
    pde_residuals: tuple[float, float]
    projectivity_residual: float = 0.0
    worst_sample: MetricSample | None = None
    non_finite: int = 0  # samples whose gate or lambda is not finite
    pde_values: np.ndarray | None = None  # per sample, the larger of the two PDE residuals

    @property
    def passed(self) -> bool:
        return self.status == "constant"


def constant_curvature_verdict(
    metric: SphericalMetric,
    samples: list[MetricSample],
    lambda_hypothesis: float | None = None,
    tolerance: float = 1e-6,
    projectivity_gate: float = 1e-6,
    bundle: ProfileBundle | None = None,
) -> CurvatureVerdict:
    """Estimate lambda over the samples and judge whether it is constant.

    The estimate is the median of the finite pointwise values (robust to a
    few near-singular samples; None if there are none); the deviation is the
    max (strictest).  The constant-curvature PDE residuals are evaluated at
    the hypothesis when given, else at the estimate.  When the projectivity
    residual exceeds the gate the verdict refuses to run: the curvature
    formulas presume a projective metric.  Every reduction goes through
    ``worst_residual``: a non-finite gate or lambda fails the verdict.
    """
    b = bundle if bundle is not None else ProfileBundle.of(metric, samples)
    gate = rapcsak_residuals(metric, samples, b).max(axis=1)
    gate_worst, gate_at, _ = worst_residual(gate)
    if gate_worst > projectivity_gate:
        return CurvatureVerdict(
            "not_projective", None, math.inf, (math.inf, math.inf), gate_worst, samples[gate_at]
        )
    values = flag_curvature_of(b)
    finite = values[np.isfinite(values)]
    estimate = float(np.median(finite)) if finite.size else math.nan
    deviation = worst_residual(np.abs(values - estimate))[0]
    lam = lambda_hypothesis if lambda_hypothesis is not None else estimate
    spread = np.where(np.isfinite(gate), np.abs(values - lam), math.nan)
    _, worst_idx, non_finite = worst_residual(spread)
    c_u, c_v = curvature_pde_of(b, lam)
    constant = non_finite == 0 and deviation <= tolerance
    if lambda_hypothesis is not None:
        constant = constant and abs(estimate - lambda_hypothesis) <= tolerance
    return CurvatureVerdict(
        status="constant" if constant else "non_constant",
        lambda_estimate=estimate if finite.size else None,
        max_deviation=deviation,
        pde_residuals=(worst_residual(c_u)[0], worst_residual(c_v)[0]),
        projectivity_residual=gate_worst,
        worst_sample=samples[worst_idx],
        non_finite=non_finite,
        pde_values=np.maximum(c_u, c_v),
    )
