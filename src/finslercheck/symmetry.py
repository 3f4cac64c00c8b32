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

Both are necessary conditions, so a passing check says "consistent with
spherical symmetry" rather than claiming proof.  The residuals here are
formulas over a derivative bundle, one value per sample (and per field for
``scalar_residuals_of``); ``checks`` reduces them to records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import AmbientBundle, quotient, relative_residual


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


def scalar_residuals_of(b, fields) -> np.ndarray:
    """Scale-free scalar Killing residual per sample and field, (N, fields), from
    the rows of either derivative bundle b (x, y, F_x and F_y).

    The Jacobian action on y is the field evaluated at y: A x = X(x) pointwise.
    """
    _, fx, fy = b.first_derivatives()
    terms = [np.concatenate([fx * f.vector(b.x), fy * f.vector(b.y)], axis=1) for f in fields]
    return np.stack([relative_residual(*t.T) for t in terms], axis=1)


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
