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
    AmbientBundle,
    MetricSample,
    first_derivatives,
    quotient,
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


def killing_tensor_terms(b: AmbientBundle, field: RotationField):
    """The four terms of the tensor Killing equation, each (N, n, n):
    the flow of g, its two Jacobian terms, and the Cartan correction."""
    a = field.jacobian(b.n)
    g = b.g()
    t_flow = np.einsum("kpij,kp->kij", b.dg_dx(), field.vector(b.x))
    t_left = np.einsum("kpj,pi->kij", g, a)
    t_right = np.einsum("kip,pj->kij", g, a)
    t_cartan = 2.0 * np.einsum("kijp,kp->kij", b.cartan(), field.vector(b.y))
    return t_flow, t_left, t_right, t_cartan


def killing_tensor_residuals(b: AmbientBundle, field: RotationField) -> np.ndarray:
    """Scale-free residual matrices of the full Killing equation, (N, n, n).

    Entries are scaled by the largest combined term magnitude across the
    whole tensor; entrywise scales would turn pure rounding noise at
    mathematically-zero entries into order-one ratios.
    """
    terms = killing_tensor_terms(b, field)
    scale = sum(np.abs(t) for t in terms).max(axis=(1, 2))
    return quotient(np.abs(sum(terms)), scale[:, None, None])


def symmetry_tensor_of(b: AmbientBundle, fields) -> np.ndarray:
    """Largest tensor residual over the fields, per sample."""
    return np.max([killing_tensor_residuals(b, f).max(axis=(1, 2)) for f in fields], axis=0)


def killing_tensor_residual(metric, field: RotationField, x, y) -> np.ndarray:
    """``killing_tensor_residuals`` at one point-direction pair."""
    return killing_tensor_residuals(AmbientBundle.at(metric, x, y), field)[0]


def killing_tensor_max_residual(metric, x, y, fields=None) -> float:
    """Max tensor residual over rotation fields, one ambient jet per point."""
    if fields is None:
        fields = rotation_fields(len(np.asarray(x)))
    return float(symmetry_tensor_of(AmbientBundle.at(metric, x, y), fields)[0])


def cartan_tensor(metric, x, y) -> np.ndarray:
    """C_ijp = (1/2) dg_ij/dy^p = (1/4) d^3 F^2 / dy^i dy^j dy^p."""
    return AmbientBundle.at(metric, x, y).cartan()[0]


def cartan_contraction_of(b: AmbientBundle) -> np.ndarray:
    """Largest entry of C_ijp y^p relative to the size of g, per sample.

    Zero because g is 0-homogeneous in y; g sets the scale since a failed
    identity would leave C_ijp y^p at g's magnitude (and a Riemannian
    metric's C is pure rounding noise, so C cannot set its own scale).
    """
    contracted = np.abs(np.einsum("kijp,kp->kij", b.cartan(), b.y)).max(axis=(1, 2))
    return contracted / np.abs(b.g()).max(axis=(1, 2))


def cartan_y_contraction_residual(metric, x, y) -> float:
    """``cartan_contraction_of`` at one point-direction pair."""
    return float(cartan_contraction_of(AmbientBundle.at(metric, x, y))[0])


@dataclass(frozen=True)
class SymmetryReport:
    max_residual: float
    passed: bool
    worst_field: tuple[int, int]
    worst_sample: MetricSample
    fields_tested: int
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
    bundle=None,
) -> SymmetryReport:
    """Scalar Killing residual maximized over every sample and generator.

    The worst (sample, field) pair is the first maximum in sample-major
    order; any non-finite residual fails the verdict.  F_x and F_y come from
    ``bundle`` when given (see ``first_derivatives``).
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
        passed=non_finite == 0 and worst <= tolerance,
        worst_field=(fields[field].i, fields[field].j),
        worst_sample=samples[at],
        fields_tested=len(fields),
        non_finite=non_finite,
    )
