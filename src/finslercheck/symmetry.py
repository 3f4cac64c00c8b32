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

from .metrics import AmbientBundle, quotient, relative_residual, worst_residual


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


def rotation_fields(n: int) -> list[RotationField]:
    """All n(n-1)/2 coordinate-plane generators."""
    return [RotationField(i, j) for i in range(n) for j in range(i + 1, n)]


def _scalar_residuals(fx, fy, field: RotationField, x, y) -> np.ndarray:
    """Scale-free contracted Killing residual per sample, from (N, n) arrays.

    The Jacobian action on y is the field evaluated at y: A x = X(x) pointwise.
    """
    terms = np.concatenate([fx * field.vector(x), fy * field.vector(y)], axis=1)
    return relative_residual(*terms.T)


def killing_tensor_terms(b: AmbientBundle, fields):
    """The four terms of the tensor Killing equation for each field, each
    (fields, N, n, n): the flow of g, its two Jacobian terms, and the Cartan
    correction.  X = x^j e_i - x^i e_j has two nonzero components, so the flow
    term is (dg/dx^i) x^j - (dg/dx^j) x^i and the Cartan term 2 (C_..i y^j -
    C_..j y^i); X's Jacobian sends row i of g to row j and -(row j) to row i,
    the left Jacobian term, whose transpose is the right one (g is symmetric)."""
    g, dg, c = b.g(), b.dg_dx(), b.cartan()
    x, y = b.x[:, :, None, None], b.y[:, :, None, None]
    t_flow, t_left, t_cartan = (np.zeros((len(fields),) + g.shape) for _ in range(3))
    for m, (i, j) in enumerate((f.i, f.j) for f in fields):
        t_flow[m] = dg[:, i] * x[:, j] + dg[:, j] * -x[:, i]
        t_left[m, :, j], t_left[m, :, i] = g[:, i], -g[:, j]
        t_cartan[m] = 2.0 * (c[..., i] * y[:, j] + c[..., j] * -y[:, i])
    return t_flow, t_left, t_left.swapaxes(2, 3), t_cartan


def killing_tensor_residuals(b: AmbientBundle, fields) -> np.ndarray:
    """Scale-free residual matrices of the full Killing equation, (fields, N, n, n).

    Entries are scaled by the largest combined term magnitude across the
    whole tensor; entrywise scales would turn pure rounding noise at
    mathematically-zero entries into order-one ratios.
    """
    terms = killing_tensor_terms(b, fields)
    scale = sum(np.abs(t) for t in terms).max(axis=(2, 3))
    return quotient(np.abs(sum(terms)), scale[:, :, None, None])


def symmetry_tensor_of(b: AmbientBundle, fields) -> np.ndarray:
    """Largest tensor residual over the fields, per sample."""
    return killing_tensor_residuals(b, fields).max(axis=(2, 3)).max(axis=0)


def killing_tensor_max_residual(metric, x, y) -> float:
    """Max tensor residual over the rotation fields, from the ambient jet of one point."""
    b = AmbientBundle.of(metric, np.array([x], dtype=float), np.array([y], dtype=float))
    return float(symmetry_tensor_of(b, rotation_fields(b.n))[0])


def cartan_contraction_of(b: AmbientBundle) -> np.ndarray:
    """Largest entry of C_ijp y^p relative to the size of g, per sample.

    Zero because g is 0-homogeneous in y; g sets the scale since a failed
    identity would leave C_ijp y^p at g's magnitude (and a Riemannian
    metric's C is pure rounding noise, so C cannot set its own scale).
    """
    contracted = np.abs(np.einsum("kijp,kp->kij", b.cartan(), b.y)).max(axis=(1, 2))
    return contracted / np.abs(b.g()).max(axis=(1, 2))


@dataclass(frozen=True)
class SymmetryReport:
    max_residual: float
    passed: bool
    worst_field: tuple[int, int]
    worst_index: int  # the row of the bundle with the worst residual
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


def symmetry_verdict(b, tolerance: float = 1e-9) -> SymmetryReport:
    """Scalar Killing residual maximized over every row of the derivative
    bundle b (x, y, F_x and F_y) and every generator.

    The worst (row, field) pair is the first maximum in row-major order; any
    non-finite residual fails the verdict.
    """
    fields = rotation_fields(b.x.shape[1])
    _, fx, fy = b.first_derivatives()
    resid = np.stack([_scalar_residuals(fx, fy, f, b.x, b.y) for f in fields], axis=1)
    worst, index, non_finite = worst_residual(resid)
    at, field = divmod(index, len(fields))
    return SymmetryReport(
        max_residual=worst,
        passed=non_finite == 0 and worst <= tolerance,
        worst_field=(fields[field].i, fields[field].j),
        worst_index=at,
        fields_tested=len(fields),
        non_finite=non_finite,
    )
