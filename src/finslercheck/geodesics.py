"""Geodesic sprays and straight-line verification.

The spray of a Finsler metric is

    G^i = (1/4) g^{il} ( [F^2]_{x^k y^l} y^k - [F^2]_{x^l} ),

and geodesics solve x'' = -2 G(x, x').  For a projective metric the spray
collapses to G = P y, so integrated geodesics must be straight; the
deviation from the launch line is the verification quantity.

Integration is fixed-step RK4: the claim being checked is qualitative
straightness, and determinism across implementations matters more than
step-count efficiency.  ``integrate_geodesics`` integrates many paths as one
(N, n) state, so each RK4 stage is one batched spray: the ``spray()`` of one
``bundle_of`` the N state rows, closed-form for a profile metric and a stacked
Cholesky solve otherwise.  Each path is bit for bit what it would be if
integrated alone, and ``integrate_geodesic`` and ``spray_general`` are the
one-path cases.  A step that fails names a failing path (the error's
``index``): that path stops, and the others take the step again as one
batch.  The ``geodesics`` check launches all its paths in one
``integrate_geodesics`` call; its params ``count`` and ``steps`` must be
integers >= 1 and ``horizon`` finite and > 0 (``checks.check_geodesics``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import EvaluationError
from .metrics import MetricDomainError, bundle_of


def spray_general(metric, x, y) -> np.ndarray:
    """G(x, y); 2-homogeneous in y.  Raises ``NotStronglyConvexError`` where the metric
    is not strongly convex.  The one-path case of the batched spray: one bundle of the point."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return bundle_of(metric, x[None], y[None]).spray()[0]


@dataclass(frozen=True)
class GeodesicPath:
    times: np.ndarray
    points: np.ndarray  # (k+1, n)
    velocities: np.ndarray  # (k+1, n)
    exit_time: float | None = None  # set when integration left the domain early
    stop_reason: str | None = None  # why it stopped early: an evaluation error's text, or the domain


def _rk4_step(metric, x, y, h):
    """One RK4 step of (x', y') = (y, -2 G(x, y)) for every row; h is (N, 1)."""

    def rhs(xc, yc):
        return yc, -2.0 * bundle_of(metric, xc, yc).spray()

    half, sixth = 0.5 * h, h / 6.0
    k1x, k1y = rhs(x, y)
    k2x, k2y = rhs(x + half * k1x, y + half * k1y)
    k3x, k3y = rhs(x + half * k2x, y + half * k2y)
    k4x, k4y = rhs(x + h * k3x, y + h * k3y)
    x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return x, y


def _step_rows(metric, x, y, h):
    """(x, y, errors) after one RK4 step of every row.  While the step raises, the
    row at the error's ``index`` (one whose own step raises) gets a NaN state and
    the error's text in ``errors`` (row -> text), and the other rows take the step
    again as one batch."""
    try:
        return (*_rk4_step(metric, x, y, h), {})
    except EvaluationError as err:
        errors = {err.index: str(err)}
        rows = np.delete(np.arange(len(x)), err.index)
    nx, ny = np.full_like(x, np.nan), np.full_like(y, np.nan)
    while rows.size:
        try:
            nx[rows], ny[rows] = _rk4_step(metric, x[rows], y[rows], h[rows])
            break
        except EvaluationError as err:
            errors[int(rows[err.index])] = str(err)
            rows = np.delete(rows, err.index)
    return nx, ny, errors


def integrate_geodesics(metric, x0, y0, horizons, steps: int) -> list[GeodesicPath]:
    """Fixed-step RK4 on (x', y') = (y, -2 G(x, y)) from each start, a row of the
    (N, n) arrays x0 and y0, over its own horizon, ``steps`` steps each.

    The paths still running form one (N, n) state, and each RK4 stage is one
    batched spray over them.  A path halts with its partial path (and records
    the exit time) when its state leaves the metric's domain or its evaluation
    fails; a failed step stops the path it names and the others take it again
    as one batch, so every path stops exactly where it would if integrated alone.
    A stopped path's ``stop_reason`` is the text of the error that stopped it, or
    says that it left the domain.
    """
    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    h = np.asarray(horizons, dtype=float) / steps
    points = np.empty((len(x), steps + 1, x.shape[1]))
    velocities = np.empty_like(points)
    points[:, 0], velocities[:, 0] = x, y
    completed = np.full(len(x), steps)
    reasons = [None] * len(x)
    running = np.arange(len(x))
    rows, h_rows = slice(None), h[:, None]  # while every path runs, its rows are all rows
    for k in range(steps):
        if not running.size:
            break
        x, y, errors = _step_rows(metric, x, y, h_rows)
        # |x| < radius, and False for a NaN state: a failed or non-finite step stops its path
        keep = np.sqrt(np.vecdot(x, x)) < metric.domain_radius
        if np.count_nonzero(keep) < len(keep):
            for row in np.flatnonzero(~keep).tolist():
                path = running[row]
                completed[path] = k
                reasons[path] = errors.get(row, f"left the domain (|x| >= {metric.domain_radius})")
            x, y, running = x[keep], y[keep], running[keep]
            rows, h_rows = running, h[running, None]
        points[rows, k + 1], velocities[rows, k + 1] = x, y
    paths = []
    for i, done in enumerate(completed):
        times = np.r_[0.0, np.arange(1, done + 1) * h[i]]
        exit_time = float(times[-1]) if done < steps else None
        kept = slice(0, done + 1)
        paths.append(
            GeodesicPath(times, points[i, kept].copy(), velocities[i, kept].copy(), exit_time, reasons[i])
        )
    return paths


def integrate_geodesic(metric, x0, y0, horizon: float, steps: int) -> GeodesicPath:
    """One path of ``integrate_geodesics``: halts with the partial path (and
    records the exit time) if the state leaves the metric's domain or an
    evaluation fails."""
    return integrate_geodesics(metric, [x0], [y0], [horizon], steps)[0]


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


def safe_horizon(metric, x0, y0, requested: float, radius_cap: float = 0.95):
    """Shrink the horizon so the straight chord stays at |x| <= cap * domain radius.

    The chord is the Euclidean prediction; projective geodesics follow it,
    so this keeps in-domain integration comfortably away from the boundary.
    x0 and y0 are one start (a float horizon) or the rows of two (N, n) arrays
    (N horizons).  ``requested`` must be finite and > 0, and y0 nonzero; an
    error's ``index`` is the lowest failing row.
    """
    if not (math.isfinite(requested) and requested > 0.0):
        raise ValueError(f"requested horizon must be finite and > 0, got {requested!r}")
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    a = np.vecdot(y0, y0)
    limit = radius_cap * metric.domain_radius
    b = 2.0 * np.vecdot(x0, y0)
    c = np.vecdot(x0, x0) - limit * limit  # -inf on an unbounded domain, where s is inf
    failed = (a == 0.0) | (c >= 0.0)
    if np.count_nonzero(failed):
        i = int(np.argmax(failed))
        if np.ravel(a)[i] == 0.0:
            raise MetricDomainError("y must be nonzero", i)
        raise MetricDomainError(f"start point already at |x| >= {limit}", i)
    s = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
    horizons = np.where(s < requested, s, requested)
    return float(horizons) if horizons.ndim == 0 else horizons


def dump_csv(path: GeodesicPath, stream) -> None:
    """Write t, x1..xn, y1..yn rows with 17 significant digits."""
    n = path.points.shape[1]
    header = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{i+1}" for i in range(n)]
    stream.write(",".join(header) + "\n")
    for t, p, vel in zip(path.times, path.points, path.velocities):
        row = [t, *p, *vel]
        stream.write(",".join(format(val, ".17g") for val in row) + "\n")
