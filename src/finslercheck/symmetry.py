"""Killing-field machinery for rotation generators.

A rotation in the (i, j) coordinate plane generates the linear field
X(x) = x^j e_i - x^i e_j with constant antisymmetric Jacobian.  A metric is
invariant under the rotation group iff every such field satisfies the
Finsler Killing equations; the scalar equation is

    F_{x^i} X^i + F_{y^i} (dX^i/dx^j) y^j = 0

and the full tensor equation adds the Cartan correction to the Lie
derivative of g:

    (dg_ij/dx^p) X^p + g_pj dX^p/dx^i + g_ip dX^p/dx^j
        + 2 C_ijp (dX^p/dx^k) y^k = 0.

Both are necessary conditions, so verdicts say "consistent with spherical
symmetry" rather than claiming proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import (
    MetricSample,
    ProfileBundle,
    energy_ambient_jet,
    first_derivatives,
    relative_residual,
    worst_residual,
)


@dataclass(frozen=True)
class RotationField:
    """X(x) = x^j e_i - x^i e_j for distinct 0-based axes i, j."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("rotation plane needs two distinct axes")

    def vector(self, x: np.ndarray) -> np.ndarray:
        """X at x; x may stack points along leading axes."""
        out = np.zeros_like(x)
        out[..., self.i] = x[..., self.j]
        out[..., self.j] = -x[..., self.i]
        return out

    def jacobian(self, n: int) -> np.ndarray:
        a = np.zeros((n, n))
        a[self.i, self.j] = 1.0
        a[self.j, self.i] = -1.0
        return a


def rotation_fields(n: int) -> list[RotationField]:
    """All n(n-1)/2 coordinate-plane generators."""
    return [RotationField(i, j) for i in range(n) for j in range(i + 1, n)]


def _scalar_residuals(fx, fy, field: RotationField, x, y) -> np.ndarray:
    """Scale-free contracted Killing residual per sample, from (N, n) arrays.

    The Jacobian action on y is the field evaluated at y: A x = X(x) pointwise.
    """
    terms = np.concatenate([fx * field.vector(x), fy * field.vector(y)], axis=1)
    return relative_residual(*terms.T)


def killing_scalar_residual(metric, field: RotationField, x, y) -> float:
    """Scale-free residual of the contracted Killing equation at (x, y)."""
    sample = MetricSample.of(x, y)
    _, fx, fy = first_derivatives(metric, [sample])
    return float(_scalar_residuals(fx, fy, field, sample.x[None], sample.y[None])[0])


def _tensor_blocks(metric, x, y):
    """(g, dg/dx, Cartan) read off one ambient order-3 jet of F^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    e = energy_ambient_jet(metric, x, y, 3)
    third = e.third_tensor()
    g = e.hessian()[n:, n:] / 2.0
    dg_dx = third[:n, n:, n:] / 2.0  # index order (p, i, j)
    cartan = third[n:, n:, n:] / 4.0
    return g, dg_dx, cartan


def _killing_tensor_terms(field: RotationField, x, y, blocks):
    g, dg_dx, cartan = blocks
    n = len(x)
    a = field.jacobian(n)
    xv = field.vector(np.asarray(x, dtype=float))
    ay = a @ np.asarray(y, dtype=float)
    t_flow = np.einsum("pij,p->ij", dg_dx, xv)
    t_left = np.einsum("pj,pi->ij", g, a)
    t_right = np.einsum("ip,pj->ij", g, a)
    t_cartan = 2.0 * np.einsum("ijp,p->ij", cartan, ay)
    return t_flow, t_left, t_right, t_cartan


def _tensor_residual_matrix(field, x, y, blocks) -> np.ndarray:
    t_flow, t_left, t_right, t_cartan = _killing_tensor_terms(field, x, y, blocks)
    total = t_flow + t_left + t_right + t_cartan
    scale = float((np.abs(t_flow) + np.abs(t_left) + np.abs(t_right) + np.abs(t_cartan)).max())
    if scale == 0.0:
        return np.zeros_like(total)
    return np.abs(total) / scale


def killing_tensor_residual(metric, field: RotationField, x, y) -> np.ndarray:
    """Scale-free residual matrix of the full Killing equation.

    Entries are scaled by the largest combined term magnitude across the
    whole tensor; entrywise scales would turn pure rounding noise at
    mathematically-zero entries into order-one ratios.
    """
    return _tensor_residual_matrix(field, x, y, _tensor_blocks(metric, x, y))


def killing_tensor_max_residual(metric, x, y, fields=None) -> float:
    """Max tensor residual over rotation fields, one ambient jet per point."""
    if fields is None:
        fields = rotation_fields(len(np.asarray(x)))
    blocks = _tensor_blocks(metric, x, y)
    return max(float(_tensor_residual_matrix(f, x, y, blocks).max()) for f in fields)


def cartan_tensor(metric, x, y) -> np.ndarray:
    """C_ijp = (1/2) dg_ij/dy^p = (1/4) d^3 F^2 / dy^i dy^j dy^p."""
    n = len(np.asarray(x))
    e = energy_ambient_jet(metric, x, y, 3)
    return e.third_tensor()[n:, n:, n:] / 4.0


def cartan_y_contraction_residual(metric, x, y) -> float:
    """Largest entry of C_ijp y^p relative to the size of g.

    Zero because g is 0-homogeneous in y; g sets the scale since a failed
    identity would leave C_ijp y^p at g's magnitude (and a Riemannian
    metric's C is pure rounding noise, so C cannot set its own scale).
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    e = energy_ambient_jet(metric, x, y, 3)
    g = e.hessian()[n:, n:] / 2.0
    c = e.third_tensor()[n:, n:, n:] / 4.0
    contracted = float(np.abs(np.einsum("ijp,p->ij", c, y)).max())
    return contracted / float(np.abs(g).max())


@dataclass(frozen=True)
class SymmetryReport:
    max_residual: float
    tolerance: float
    passed: bool
    worst_field: tuple[int, int]
    worst_sample: MetricSample
    fields_tested: int
    samples_tested: int
    non_finite: int = 0

    @property
    def conclusion(self) -> str:
        if self.passed:
            return "consistent with spherical symmetry"
        if self.non_finite:
            return f"undecided: non-finite residual for field {self.worst_field}"
        return (
            f"not spherically symmetric: field {self.worst_field} "
            f"residual {self.max_residual:.3e}"
        )


def symmetry_verdict(
    metric,
    samples: list[MetricSample],
    tolerance: float = 1e-9,
    bundle: ProfileBundle | None = None,
) -> SymmetryReport:
    """Scalar Killing residual maximized over every sample and generator.

    The worst (sample, field) pair is the first maximum in sample-major
    order; any non-finite residual fails the verdict.
    """
    fields = rotation_fields(len(samples[0].x))
    _, fx, fy = first_derivatives(metric, samples, bundle)
    x = np.array([s.x for s in samples])
    y = np.array([s.y for s in samples])
    resid = np.stack([_scalar_residuals(fx, fy, f, x, y) for f in fields], axis=1)
    worst, index, non_finite = worst_residual(resid)
    at, field = divmod(index, len(fields))
    return SymmetryReport(
        max_residual=worst,
        tolerance=tolerance,
        passed=non_finite == 0 and worst <= tolerance,
        worst_field=(fields[field].i, fields[field].j),
        worst_sample=samples[at],
        fields_tested=len(fields),
        samples_tested=len(samples),
        non_finite=non_finite,
    )
