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

The profile is evaluated at N triples at once.  Their bisections run in
pooled depth-first rounds (``_quadrature``): each round takes up to N
pending panels, shared among the unfinished triples and taken from the top
of each triple's own depth-first stack, and integrates both halves of all
of them through one batched integrand jet.  So the rounds follow the depth
of the deepest tree, not its size, and no round is wider than 2 N panels.
Each triple keeps its own mesh, tolerances and summation order, so every
column is bit for bit the one-triple result, and one triple is the case
N = 1 of the same code: the plain recursion.  The integrand's argument
v^2/t^2 - r^2 is written from its exact coefficients, not multiplied out.

A build checks f on its probe grid with one N-point order-0 jet, and the
built profile at its four spot triples with one order-0 ``phi_jets`` call
(one lockstep quadrature).  Either check fails with its lowest failing
point's own error (``jets.first_failure``); an f that cannot be
evaluated there is a ``FamilyError`` naming the grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as expr_mod
from ._multi_index import index_tuples, position_map
from .jets import EvaluationError, Jet, absval, first_failure, lift_var, refuse
from .metrics import R, SphericalMetric, U, V


class FamilyError(EvaluationError):
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
        if self.baseline == "plain" and self.h is not None:  # h(r)|v| is the abs_corrected term
            raise FamilyError("plain baseline takes no h formula (h(r)|v| needs baseline abs_corrected)")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):  # inf converges every panel at once
            raise FamilyError(f"quadrature abs_tol must be finite and positive, got {self.abs_tol!r}")
        if self.max_depth < 1:
            raise FamilyError("max_depth must be at least 1")


class _CompiledFamily:
    def __init__(self, spec: ProjectiveFamilySpec):
        spec.validate()
        self.spec = spec
        self.f_ast = expr_mod.parse(spec.f, {"t"}, "f")
        self.g_ast = expr_mod.parse(spec.g, {"r"}, "g")
        self.h_ast = expr_mod.parse(spec.h, {"r"}, "h") if spec.h is not None else None

    def precheck(self) -> None:
        """Positivity of f on the probe grid, from one N-point jet over the grid,
        and integrable growth at +inf.  A failure is the lowest failing grid
        point's own error (``first_failure``)."""
        values = first_failure(self._positive_f, _PROBE_GRID)
        tail = _PROBE_GRID >= 1e2
        logs = np.log(values[tail])
        logt = np.log(_PROBE_GRID[tail])
        slope = float(np.polyfit(logt, logs, 1)[0])
        if slope >= _DECAY_SLOPE_LIMIT:
            raise FamilyError(
                f"f grows like s^{slope:.2f} at infinity; the profile integral "
                f"needs growth below s^0.5 to converge"
            )

    def _positive_f(self, grid: np.ndarray) -> np.ndarray:
        """f at the points of grid, refusing the first that cannot be evaluated or
        is not positive."""
        try:
            f = expr_mod.evaluate(self.f_ast, {"t": lift_var(0, grid, 1, 0)}).coeffs[0]
        except EvaluationError as err:
            raise FamilyError(f"f cannot be evaluated at t = {grid[err.index]:g}: {err}", err.index) from err
        f = np.broadcast_to(f, grid.shape)  # an f free of t is one point
        refuse(~(f > 0.0), lambda i: FamilyError(f"f must be positive: f({grid[i]:g}) = {f[i]:g}", i))
        return f


def _integrand_coeffs(fam: _CompiledFamily, t, r, v, order: int) -> np.ndarray:
    """Taylor coefficients in (r, v) of f(v^2/t^2 - r^2), one column per node:
    t, r and v are equal-length arrays.

    The argument's jet is written from its exact coefficients: v^2 and r^2 are
    v^2 + 2v dv + dv^2 and r^2 + 2r dr + dr^2, summed from 0.0 as a jet product
    sums them (0.0 + v + v keeps a product's +0.0 at v = -0.0)."""
    pos = position_map(2, order)
    v2, r2 = np.zeros((2, len(pos), len(t)))
    v2[0], r2[0] = v * v, r * r
    if order >= 1:
        v2[pos[(1,)]], r2[pos[(0,)]] = 0.0 + v + v, 0.0 + r + r
    if order >= 2:
        v2[pos[(1, 1)]] = r2[pos[(0, 0)]] = 1.0
    s = v2 * (1.0 / (t * t)) - r2
    c = expr_mod.evaluate(fam.f_ast, {"t": Jet(2, order, s)}).coeffs
    # an f free of t evaluates to a one-point jet: the same column at every node
    return np.broadcast_to(c if c.ndim == 2 else c[:, None], s.shape)


def _gauss_panel(fam, a, b, r, v, order: int):
    """(panel integrals, integrals of |coefficients|) over [a, b] at (r, v).

    a, b, r and v are numbers (one panel, results of shape (ncoeff,)) or
    length-m arrays (m panels, results (ncoeff, m)).  All 15 * m nodes go
    through one batched integrand jet; each panel's weighted columns are
    summed in node order (a running sum, not a pairwise reduction).  An
    error's ``index`` counts panels.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    t = np.asarray(mid)[..., None] + np.asarray(half)[..., None] * _GL_NODES
    nodes = len(_GL_NODES)
    try:
        c = _integrand_coeffs(fam, t.ravel(), np.repeat(r, nodes), np.repeat(v, nodes), order)
    except EvaluationError as err:
        err.index //= nodes  # node -> panel
        raise
    c = c.reshape((-1,) + t.shape)
    acc = np.cumsum(_GL_WEIGHTS * c, axis=-1)[..., -1]
    acc_abs = np.cumsum(_GL_WEIGHTS * np.abs(c), axis=-1)[..., -1]
    return half * acc, half * acc_abs


def _quadrature(fam: _CompiledFamily, r, u, v, order: int) -> np.ndarray:
    """The u-free quadrature coefficients at N triples (length-N arrays), (ncoeff, N).

    Adaptive Gauss-Legendre bisection of [0, u_i] for every triple, in pooled
    rounds: a round shares N nodes among the L unfinished triples, max(1, N // L)
    from the top of each one's own depth-first stack (left before right), and
    integrates both halves of all of them in one ``_gauss_panel`` call, so no
    round is wider than 2 N panels of 15 nodes; N = 1 is the plain recursion.
    Breadth-first rounds would be fewer still, but would expand a
    non-converging triple toward 2^max_depth panels at once.  A node converges
    when its refined halves differ from its estimate by at most max(tol,
    rounding floor) in every coefficient; otherwise its children get half its
    tolerance.  That is decided node by node, and a finished subtotal waits
    under its heap number for its sibling to be added in tree order (left +
    right), so each column is bit for bit the one-triple result.

    The nodes of a round are handled right to left, so each one's children,
    pushed left child last, keep the stack in depth-first order with the
    leftmost taken node's children on top.  A node fails
    if not converged at depth max_depth, and drops every pending node of its
    triple, all of which lie right of it.  A stack's depths never grow from
    top to bottom, so the nodes a round takes left of a failing one are at
    that depth too: the last failure a triple records is its leftmost, the one
    the recursion meets.  The first failed triple's error, with its ``index``,
    is raised once all are done.  A round whose integrand raises names its
    first failing panel's triple at once, so a triple that also fails to
    converge reports whichever failure its rounds meet first, which can depend
    on the batch.
    """
    count = len(r)
    estimates, _ = _gauss_panel(fam, np.zeros(count), u, r, v, order)
    # a pending node is (a, b, the estimate it refines, tol, heap number): the
    # root is 1, the children of node p are 2p (left) and 2p + 1 (right)
    pending = [[(0.0, float(u[i]), estimates[:, i], fam.spec.abs_tol, 1)] for i in range(count)]
    finished: list[dict] = [{} for _ in range(count)]  # heap number -> subtotal awaiting its sibling
    result: list = [None] * count
    failed: dict[int, QuadratureError] = {}
    while live := [i for i in range(count) if pending[i]]:
        quota = count // len(live)
        owners, nodes = [], []
        for i in live:
            taken = pending[i][: -quota - 1 : -1]  # the top of the stack: left to right
            del pending[i][-quota:]
            owners += [i] * len(taken)
            nodes += taken
        lo, hi, estimate, tol, heaps = zip(*nodes)
        a, b = np.array(lo), np.array(hi)
        mid = 0.5 * (a + b)
        k = len(nodes)
        try:
            halves, halves_abs = _gauss_panel(
                fam, np.concatenate([a, mid]), np.concatenate([mid, b]),
                np.tile(r[owners], 2), np.tile(v[owners], 2), order,
            )
        except EvaluationError as err:
            err.index = owners[err.index % k]  # left halves, then right halves -> triple
            raise
        left, right = halves[:, :k], halves[:, k:]
        refined = left + right
        floor = _ROUNDOFF_FLOOR * (halves_abs[:, :k] + halves_abs[:, k:]).max(axis=0)
        error = np.abs(refined - np.stack(estimate, axis=1)).max(axis=0)
        converged = error <= np.where(floor > tol, floor, tol)  # max(tol, floor)
        for j in reversed(range(k)):  # right to left: each triple's leftmost failure comes last
            i, heap = owners[j], heaps[j]
            if not converged[j]:
                if heap >= 1 << fam.spec.max_depth:  # depth max_depth reached
                    failed[i] = QuadratureError(
                        f"profile integral did not converge on [{lo[j]:g}, {hi[j]:g}] "
                        f"after {fam.spec.max_depth} bisection levels",
                        i,
                    )
                    pending[i].clear()  # all of it lies right of this node
                    continue
                m = float(mid[j])
                pending[i].append((m, hi[j], right[:, j], 0.5 * tol[j], 2 * heap + 1))
                pending[i].append((lo[j], m, left[:, j], 0.5 * tol[j], 2 * heap))
                continue
            total = refined[:, j]
            while heap > 1 and heap ^ 1 in finished[i]:  # add the sibling, then go up
                sibling = finished[i].pop(heap ^ 1)
                total = sibling + total if heap & 1 else total + sibling
                heap >>= 1
            if heap > 1:
                finished[i][heap] = total
            else:
                result[i] = total
    if failed:  # every other triple succeeded
        raise failed[min(failed)]
    return np.stack(result, axis=1)


_RV_TO_2VAR = {R: 0, V: 1}


def _assemble(fam: _CompiledFamily, r, u, v, order: int) -> Jet:
    """The integral term's jet at N triples (length-N arrays), N points."""
    pos2 = position_map(2, order)
    coeffs = np.zeros((len(index_tuples(3, order)), len(r)))
    if order >= 1:
        s3 = _argument_jet(r, u, v, order - 1)
        ftc = expr_mod.evaluate(fam.f_ast, {"t": s3}).coeffs
        pos_ftc = position_map(3, order - 1)
    quad = _quadrature(fam, r, u, v, order)  # last: see FamilyProfile.jet
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


def _argument_jet(r, u, v, order: int) -> Jet:
    rj = lift_var(R, r, 3, order)
    uj = lift_var(U, u, 3, order)
    vj = lift_var(V, v, 3, order)
    return vj * vj / (uj * uj) - rj * rj


class FamilyProfile:
    """Profile evaluator for a built family metric (3-variable jets only)."""

    def __init__(self, fam: _CompiledFamily):
        self.fam = fam

    def jet(self, r, u, v, order: int) -> Jet:
        """The jet at N points (r, u and v length-N arrays): one lockstep quadrature
        serves all N, evaluated last (its error means all else passed), and column i
        is bit for bit the jet at point i alone."""
        rj = lift_var(R, r, 3, order)
        vj = lift_var(V, v, 3, order)
        terms = [expr_mod.evaluate(self.fam.g_ast, {"r": rj}) * vj]
        if self.fam.h_ast is not None:
            terms.append(expr_mod.evaluate(self.fam.h_ast, {"r": rj}) * absval(vj))
        return sum(terms, _assemble(self.fam, r, u, v, order))


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
    first_failure(lambda r, u, v: _positive_profile(metric, r, u, v), *_spot_triples(spec.domain_radius).T)
    return metric


def _spot_triples(radius: float) -> np.ndarray:
    """The four (r, u, v) rows at which a built profile must be positive."""
    r_hi = 0.9 * min(radius, 2.0)
    return np.array([
        (0.06, 1.0, 0.03),
        (0.5 * r_hi, 0.5, -0.2 * r_hi),
        (r_hi, 2.0, 0.9 * r_hi * 2.0),
        (r_hi, 0.1, -0.05 * r_hi),
    ])


def _positive_profile(metric: SphericalMetric, r, u, v) -> None:
    """Refuse the first of the N triples (length-N arrays) where the profile, from
    one order-0 ``phi_jets`` call (one lockstep quadrature), is not positive."""
    [phi] = metric.phi_jets(r, u, v, 0)
    message = "built profile is not positive at r={:g}, u={:g}, v={:g}: phi={:g}"
    refuse(~(phi > 0.0), lambda i: FamilyError(message.format(r[i], u[i], v[i], phi[i]), i))
