"""Geodesic sprays and straight-line verification.

The spray of a Finsler metric is

    G^i = (1/4) g^{il} ( [F^2]_{x^k y^l} y^k - [F^2]_{x^l} ),

and geodesics solve x'' = -2 G(x, x').  For a projective metric the spray
collapses to G = P y, so integrated geodesics must be straight; the
deviation from the launch line is the verification quantity.

Integration is fixed-step RK4: the claim being checked is qualitative
straightness, and determinism across implementations matters more than
step-count efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import JetDomainError
from .metrics import (
    AmbientBundle,
    MetricDomainError,
    MetricSample,
    ProfileBundle,
    SphericalMetric,
    first_derivatives,
)
from .projective import q_of, rapcsak_terms


class NotStronglyConvexError(ValueError):
    """g failed its symmetric factorization: the metric is not strongly convex here."""


def spray_general(metric, x, y) -> np.ndarray:
    """G(x, y); 2-homogeneous in y.  Raises if g is not positive definite.

    The bracket [F^2]_{x^k y^l} y^k - [F^2]_{x^l} and g come from one jet:
    for a profile metric its bundle, where the bracket is 2 Q F_y + 2 phi D
    with D = F_{x^k y^l} y^k - F_{x^l} (``rapcsak_terms``); for a general
    metric its order-2 ``AmbientBundle``.
    """
    sample = MetricSample.of(x, y)
    if isinstance(metric, SphericalMetric):
        b = ProfileBundle.of(metric, [sample])
        fy = b.first_derivatives()[2]
        rhs = 2.0 * (q_of(b)[:, None] * fy + b.phi[:, None] * sum(rapcsak_terms(b)))
    else:
        b = AmbientBundle.of(metric, [sample], 2)
        rhs = b.spray_bracket()
    rhs, g = rhs[0], b.g()[0]
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotStronglyConvexError(
            f"{metric.name}: metric is not strongly convex at x={sample.x}, y={sample.y}"
        ) from None
    solved = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return 0.25 * solved


def spray_projectivity_residual(metric, x, y) -> float:
    """Relative size of G - P y, the non-projective part of the spray."""
    sample = MetricSample.of(x, y)
    g_vec = spray_general(metric, x, y)
    f, fx, _ = first_derivatives(metric, [sample])
    p = float(fx[0] @ sample.y) / (2.0 * float(f[0]))  # P = F_{x^k} y^k / (2F)
    py = p * sample.y
    scale = float(np.linalg.norm(g_vec) + np.linalg.norm(py))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(g_vec - py)) / scale


@dataclass(frozen=True)
class GeodesicPath:
    times: np.ndarray
    points: np.ndarray  # (k+1, n)
    velocities: np.ndarray  # (k+1, n)
    exit_time: float | None = None  # set when integration left the domain early


def _inside(metric, x: np.ndarray) -> bool:
    return float(np.linalg.norm(x)) < metric.domain_radius


def integrate_geodesic(metric, x0, y0, horizon: float, steps: int) -> GeodesicPath:
    """Fixed-step RK4 on (x', y') = (y, -2 G(x, y)).

    Halts with the partial path (and records the exit time) if the state
    leaves the metric's domain or an evaluation fails.
    """
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    h = horizon / steps
    times = [0.0]
    points = [x.copy()]
    velocities = [y.copy()]

    def rhs(xc, yc):
        return yc, -2.0 * spray_general(metric, xc, yc)

    for k in range(steps):
        try:
            k1x, k1y = rhs(x, y)
            k2x, k2y = rhs(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
            k3x, k3y = rhs(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
            k4x, k4y = rhs(x + h * k3x, y + h * k3y)
        except (JetDomainError, MetricDomainError, NotStronglyConvexError):
            return GeodesicPath(
                np.array(times), np.array(points), np.array(velocities), exit_time=times[-1]
            )
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not _inside(metric, x):
            return GeodesicPath(
                np.array(times), np.array(points), np.array(velocities), exit_time=times[-1]
            )
        times.append((k + 1) * h)
        points.append(x.copy())
        velocities.append(y.copy())
    return GeodesicPath(np.array(times), np.array(points), np.array(velocities))


def straightness_deviation(path: GeodesicPath, x0, y0) -> float:
    """Largest distance from the path to the launch line, per unit arc length."""
    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(y0, dtype=float)
    direction = direction / np.linalg.norm(direction)
    rel = path.points - x0
    along = rel @ direction
    perp = rel - np.outer(along, direction)
    max_dist = float(np.linalg.norm(perp, axis=1).max())
    arc = float(np.linalg.norm(np.diff(path.points, axis=0), axis=1).sum())
    if arc == 0.0:
        return 0.0
    return max_dist / arc


def safe_horizon(metric, x0, y0, requested: float, radius_cap: float = 0.95) -> float:
    """Shrink the horizon so the straight chord stays at |x| <= cap * domain radius.

    The chord is the Euclidean prediction; projective geodesics follow it,
    so this keeps in-domain integration comfortably away from the boundary.
    """
    if not math.isfinite(metric.domain_radius):
        return requested
    limit = radius_cap * metric.domain_radius
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    a = float(y0 @ y0)
    b = 2.0 * float(x0 @ y0)
    c = float(x0 @ x0) - limit * limit
    if c >= 0.0:
        raise MetricDomainError(f"start point already at |x| >= {limit}")
    s = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    return min(requested, s)


def dump_csv(path: GeodesicPath, stream) -> None:
    """Write t, x1..xn, y1..yn rows with 17 significant digits."""
    n = path.points.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    stream.write(",".join(header) + "\n")
    for t, p, vel in zip(path.times, path.points, path.velocities):
        row = [t, *p, *vel]
        stream.write(",".join(format(val, ".17g") for val in row) + "\n")
