"""Named verification checks run over a sampled domain.

Each runner reduces its residuals over the sample list in a fixed order
(worst sample wins ties by first occurrence, and any non-finite residual
fails the check and names its sample), so reports are deterministic
regardless of how callers might parallelize in the future.  Every runner
takes the run's ``Run``, which builds each derivative bundle of the samples
(the rows of one ``MetricSample``) on first use, names the sample at which a
build fails, and shares the bundle (or the error) with every later check.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import geodesics as geo
from . import projective as proj
from . import symmetry as sym
from .jets import EvaluationError
from .metrics import (
    U,
    V,
    AmbientBundle,
    MetricSample,
    ProfileBundle,
    SphericalMetric,
    _first_failure,
    ambient_invariants,
    positive_definite,
    profile_columns,
    relative_residual,
    reversibility_residuals,
    riemannian_probe_of,
    worst_residual,
)
from .report import CheckRecord


class ConfigError(ValueError):
    """Bad configuration: unknown names, wrong metric kind, invalid params."""


DEFAULT_TOLERANCES = {
    "homogeneity": 1e-9,
    "convexity": 0.0,
    "symmetry": 1e-9,
    "symmetry_tensor": 1e-8,
    "cartan": 1e-9,
    "rapcsak": 1e-8,
    "projective_pde": 1e-8,
    "curvature": 1e-6,
    "curvature_pde": 1e-8,
    "det_g": 1e-8,
    "fundamental_ad": 1e-9,
    "reversibility": 1e-9,
    "geodesics": 1e-6,
    "conjecture": 1e-8,
}


def _named(build, samples: MetricSample):
    """build(samples.x, samples.y).  An ``EvaluationError`` it raises names the
    sample at its ``index`` (the lowest failing row) as its ``sample`` attribute,
    so a check can report where evaluation failed."""
    try:
        return build(samples.x, samples.y)
    except EvaluationError as err:
        err.sample = samples[err.index]
        raise


@dataclass
class Run:
    """One verify run: the metric, its samples, tolerances and check names, and the
    samples' derivative bundles, each built on first use and then read by every
    check.  A spherical metric's profile is evaluated once for both bundles, at
    ``profile_order``.  A build that fails is not retried: every later read
    raises the same error.  If that evaluation fails at order 3, the profile
    bundle makes its own order-2 call and the ambient bundle fails with the
    same error, or with the refusal of x = 0 at a row that is not higher."""

    metric: object
    samples: MetricSample
    tolerances: dict = field(default_factory=dict)
    dump_dir: str | None = None
    checks: tuple = ()
    _built: dict = field(default_factory=dict, init=False, repr=False)

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def _once(self, name, build):
        if name not in self._built:
            try:
                self._built[name] = _named(build, self.samples)
            except EvaluationError as err:  # naming its sample
                self._built[name] = err
        if isinstance(self._built[name], EvaluationError):
            raise self._built[name]
        return self._built[name]

    @property
    def profile_order(self) -> int:
        """3 when a spherical metric's checks read ``ambient``, composed from order-3
        profile jets, else 2."""
        spherical = isinstance(self.metric, SphericalMetric)
        return 3 if spherical and _AMBIENT_CHECKS.intersection(self.checks) else 2

    def _columns(self):
        """The samples' ``profile_columns`` at ``profile_order``, from one call."""
        return self._once("columns", lambda x, y: profile_columns(self.metric, x, y, self.profile_order))

    @property
    def profile(self) -> ProfileBundle:
        def build(x, y):
            try:
                columns = self._columns()
            except EvaluationError:
                if self.profile_order == 2:
                    raise
                columns = None  # its own order-2 call: an order-3 failure fails only ``ambient``
            return ProfileBundle.of(self.metric, x, y, columns)

        return self._once("profile", build)

    @property
    def ambient(self) -> AmbientBundle:
        def build(x, y):
            if self.profile_order == 2:
                return AmbientBundle.of(self.metric, x, y, 3)
            try:
                columns = self._columns()
            except EvaluationError as err:  # the bundle's own call would fail alike
                ambient_invariants(x[: err.index + 1], y[: err.index + 1])  # x = 0 is refused first
                raise
            return AmbientBundle.of(self.metric, x, y, 3, columns)

        return self._once("ambient", build)

    @property
    def reversibility(self) -> np.ndarray:
        """``reversibility_residuals`` of the samples."""
        return self._once("reversibility", lambda x, y: reversibility_residuals(self.metric, x, y))

    @property
    def first_order(self):
        """The bundle F, F_x and F_y are read from: the profile's when there is one."""
        return self.profile if isinstance(self.metric, SphericalMetric) else self.ambient


def _record(check, run, worst, at, tol, detail=None, passed=None, F=None, samples=None):
    """One record naming the sample ``at``, over ``samples`` (default: the run's).
    Any F <= 0 in ``F`` (F at each sample) fails it and names the first such sample."""
    samples = run.samples if samples is None else samples
    detail = dict(detail or {})
    passed = worst <= tol if passed is None else passed
    non_positive = np.asarray(F if F is not None else ()) <= 0.0
    if non_positive.any():
        detail["non_positive_F"] = int(non_positive.sum())
        at, passed = samples[non_positive.argmax()], False
    return CheckRecord(
        check, run.metric.name, len(samples), worst, tol, passed, list(at.x), list(at.y), detail
    )


def _worst_record(check, run, values, tol, detail=None, failed=(), F=None, samples=None):
    """Record of one residual per sample: passes if all finite and all <= tol.
    A sample flagged in ``failed`` fails it, and the first one is named."""
    samples = run.samples if samples is None else samples
    worst, at, non_finite = worst_residual(values)
    detail = dict(detail or {})
    if non_finite:
        detail["non_finite_residuals"] = non_finite
    failed = np.asarray(failed, dtype=bool)
    if failed.any():
        at = int(failed.argmax())
    passed = not failed.any() and non_finite == 0 and worst <= tol
    return _record(check, run, worst, samples[at], tol, detail, passed, F, samples)


def check_homogeneity(run, tol, params):
    return [_worst_record("homogeneity", run, run.profile.homogeneity_residual(), tol)]


def check_convexity(run, tol, params):
    b = run.profile
    g = b.g()
    try:
        np.linalg.cholesky(g)  # one stacked factorisation; row by row only when one fails
        failed = np.zeros(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        failed = np.array([not positive_definite(gi) for gi in g])
    fraction = int(failed.sum()) / len(run.samples)
    detail = {"lemma_ok_fraction": int(b.convexity_lemma().sum()) / len(run.samples)}
    # the first failing sample, or the first sample when none fails; F <= 0 fails
    # too, as g (of F^2) is blind to the sign of F
    return [_record("convexity", run, fraction, run.samples[failed.argmax()], tol, detail, F=b.F)]


def check_symmetry(run, tol, params):
    b = run.first_order
    v = sym.symmetry_verdict(b, tol)
    detail = {
        "fields_tested": v.fields_tested,
        "worst_field": list(v.worst_field),
        "conclusion": v.conclusion,
    }
    if v.non_finite:
        detail["non_finite_residuals"] = v.non_finite
    at = run.samples[v.worst_index]
    return [_record("symmetry", run, v.max_residual, at, tol, detail, v.passed, b.F)]


def check_symmetry_tensor(run, tol, params):
    b = run.ambient
    values = sym.symmetry_tensor_of(b, sym.rotation_fields(b.n))
    return [_worst_record("symmetry_tensor", run, values, tol, F=b.F)]


def check_cartan(run, tol, params):
    b = run.ambient
    return [_worst_record("cartan", run, sym.cartan_contraction_of(b), tol, F=b.F)]


def check_rapcsak(run, tol, params):
    b = run.first_order
    return [_worst_record("rapcsak", run, b.rapcsak_residuals().max(axis=1), tol, F=b.F)]


def check_projective_pde(run, tol, params):
    values = np.maximum(*proj.projective_pde_of(run.profile))
    return [_worst_record("projective_pde", run, values, tol)]


def check_curvature(run, tol, params):
    """Constant flag curvature, and a second record for the curvature PDE pair
    (tolerance ``curvature_pde``)."""
    lam = _curvature_lambda(params)
    v = proj.constant_curvature_verdict(run.profile, lam, tol)
    at = run.samples[v.worst_index]
    if v.status == "not_projective":
        detail = {"status": v.status, "projectivity_residual": v.projectivity_residual}
        worst = v.projectivity_residual
        return [_record("curvature", run, worst, at, tol, detail, False)]
    deviation = v.max_deviation
    detail = {"status": v.status, "lambda_estimate": v.lambda_estimate, "max_deviation": deviation}
    if lam is not None:
        detail["lambda_hypothesis"] = lam
        if v.lambda_estimate is not None:
            deviation = max(deviation, abs(v.lambda_estimate - lam))
    if v.non_finite:
        detail["non_finite_residuals"] = v.non_finite
    pde_detail = {"residual_u": v.pde_residuals[0], "residual_v": v.pde_residuals[1]}
    pde_tol = run.tolerance("curvature_pde")
    return [
        _record("curvature", run, deviation, at, tol, detail, v.passed),
        _worst_record("curvature_pde", run, v.pde_values, pde_tol, pde_detail),
    ]


def _curvature_lambda(params) -> float | None:
    """The hypothesised lambda: absent, or a finite number."""
    lam = params.get("lambda")
    if lam is None:
        return None
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not math.isfinite(lam):
        raise ConfigError(f"curvature param 'lambda' must be a finite number, got {lam!r}")
    return float(lam)


def check_det_g(run, tol, params):
    b = run.profile
    values = relative_residual(b.det_g(), -np.linalg.det(b.g()))
    return [_worst_record("det_g", run, values, tol)]


def check_fundamental_ad(run, tol, params):
    closed, ambient = run.profile.g(), run.ambient
    values = np.abs(closed - ambient.g()).max(axis=(1, 2)) / np.abs(closed).max(axis=(1, 2))
    return [_worst_record("fundamental_ad", run, values, tol, F=ambient.F)]


def check_reversibility(run, tol, params):
    return [_worst_record("reversibility", run, run.reversibility, tol)]


def _geodesic_params(params) -> tuple[int, int, float]:
    """(count, steps, horizon): integers >= 1 and a finite horizon > 0."""
    count, steps = params.get("count", 20), params.get("steps", 400)
    horizon = params.get("horizon", 0.5)
    for name, value in (("count", count), ("steps", steps)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ConfigError(f"geodesics param '{name}' must be an integer >= 1, got {value!r}")
    if (
        isinstance(horizon, bool)
        or not isinstance(horizon, numbers.Real)
        or not (math.isfinite(horizon) and horizon > 0.0)
    ):
        raise ConfigError(f"geodesics param 'horizon' must be finite and > 0, got {horizon!r}")
    return int(count), int(steps), float(horizon)


def check_geodesics(run, tol, params):
    """Straightness of integrated geodesics, all launched as one batch; a path
    that stopped early, or a launch point at |x| >= 0.95 of the domain radius,
    fails the check and names its launch sample."""
    metric = run.metric
    count, steps, horizon = _geodesic_params(params)
    launched = run.samples[:count]
    horizons = _named(lambda x, y: geo.safe_horizon(metric, x, y, horizon), launched)
    paths = geo.integrate_geodesics(metric, launched.x, launched.y, horizons, steps)
    deviations = [geo.straightness_deviation(p, x, y) for p, x, y in zip(paths, launched.x, launched.y)]
    if run.dump_dir is not None:
        os.makedirs(run.dump_dir, exist_ok=True)
        safe_name = "".join(c if c.isalnum() else "_" for c in metric.name)
        for i, path in enumerate(paths):
            with open(os.path.join(run.dump_dir, f"{safe_name}_geodesic{i:03d}.csv"), "w") as fh:
                geo.dump_csv(path, fh)
    completed, exit_times = [len(p.times) - 1 for p in paths], [p.exit_time for p in paths]
    exits = [t for t in exit_times if t is not None]
    detail = {
        "geodesics": len(launched),
        "steps": steps,
        "min_steps_completed": min(completed),
        "first_exit_time": exits[0] if exits else None,
        "exit_times": exit_times,  # per path, None for a path that ran every step
        "stop_reasons": [p.stop_reason for p in paths],  # likewise
        "steps_completed": completed,
    }
    stopped = np.array(completed) < steps
    return [_worst_record("geodesics", run, deviations, tol, detail, stopped, samples=launched)]


def _smooth_across_v_zero(metric, samples, delta=1e-6, threshold=1e-3):
    """Is the profile differentiable across <x,y> = 0 at the first four samples?

    An even profile can still carry an h(r)|v| term (the reversible family
    metrics built from an integrand do); phi_v then jumps by 2 h(r) across
    v = 0 instead of varying like 2 delta phi_vv.  The conjectured statement
    assumes smooth metrics, so kinked ones must not be probed against it.
    The probe points (r, u, +delta) and (r, u, -delta) of each sample lie off
    the samples, in one order-1 ``phi_jets`` call; an evaluation error there
    names the lowest failing sample (``_first_failure``).
    """

    def kinked(r, u):
        try:
            jets = metric.phi_jets(np.repeat(r, 2), np.repeat(u, 2), np.tile([delta, -delta], len(r)), 1)
        except EvaluationError as err:
            err.index //= 2  # triple -> sample
            raise
        up_u, up_v, down_v = jets[1 + U, 0::2], jets[1 + V, 0::2], jets[1 + V, 1::2]
        return abs(up_v - down_v) > threshold * (abs(up_u) + abs(up_v))

    probed = samples[:4]
    return not _named(lambda x, y: _first_failure(kinked, probed.r, probed.u), probed).any()


def check_conjecture(run, tol, params):
    """Reversibility + constant curvature + Riemannian probe, reported together.

    The probe can only be consistent or inconsistent with the expectation
    that reversible projective metrics of constant flag curvature are
    Riemannian; it proves nothing either way.
    """
    metric, samples = run.metric, run.samples
    rev_worst, rev_at, rev_non_finite = worst_residual(run.reversibility)
    reversible = rev_non_finite == 0 and rev_worst <= 1e-9
    detail: dict = {"reversible": reversible, "reversibility_residual": rev_worst}
    passed = True
    probe_max = 0.0
    if not reversible:
        detail["conclusion"] = "consistent: not reversible, no claim applies"
    else:
        verdict = proj.constant_curvature_verdict(run.profile, tolerance=run.tolerance("curvature"))
        detail["constant_curvature"] = verdict.passed
        if verdict.lambda_estimate is not None:
            detail["lambda_estimate"] = verdict.lambda_estimate
        if not verdict.passed:
            detail["conclusion"] = "consistent: curvature is not constant, no claim applies"
        elif not _smooth_across_v_zero(metric, samples):
            detail["smooth_across_v_zero"] = False
            detail["conclusion"] = (
                "consistent: profile has a |<x,y>| kink, so the smooth-metric "
                "claim does not apply"
            )
        else:
            xs, ys = samples.x[:8], samples.y[:6]
            pairs = MetricSample.of(np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1)))
            b = _named(lambda x, y: AmbientBundle.of(metric, x, y), pairs)  # names a failing pair
            probe = riemannian_probe_of(b, len(ys))
            probe_max = float(np.maximum(*probe).max())
            riemannian = probe_max <= tol
            detail["riemannian"] = riemannian
            detail["probe_deviation"] = probe_max
            if riemannian:
                detail["conclusion"] = "consistent: reversible, constant curvature, and Riemannian"
            else:
                passed = False
                detail["conclusion"] = (
                    "inconsistent: reversible constant-curvature metric "
                    "with y-dependent fundamental tensor"
                )
    return [_record("conjecture", run, probe_max, samples[rev_at], tol, detail, passed)]


_RUNNERS = {
    "homogeneity": check_homogeneity,
    "convexity": check_convexity,
    "symmetry": check_symmetry,
    "symmetry_tensor": check_symmetry_tensor,
    "cartan": check_cartan,
    "rapcsak": check_rapcsak,
    "projective_pde": check_projective_pde,
    "curvature": check_curvature,
    "det_g": check_det_g,
    "fundamental_ad": check_fundamental_ad,
    "reversibility": check_reversibility,
    "geodesics": check_geodesics,
    "conjecture": check_conjecture,
}

CHECK_NAMES = sorted(_RUNNERS)

_AMBIENT_CHECKS = {"symmetry_tensor", "cartan", "fundamental_ad"}  # they read run.ambient
_PROFILE_CHECKS = {"homogeneity", "convexity", "projective_pde", "curvature", "det_g",
                   "fundamental_ad", "reversibility", "conjecture"}  # they read phi(r, u, v)


def run_check(name, run, params):
    """Run one named check over ``run``; sharing one ``Run`` across a run's checks
    builds each bundle at most once.  An evaluation failure at one of the samples
    fails the check with one record naming that sample (``detail.evaluation_error``)."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown check '{name}'")
    if name in _PROFILE_CHECKS and not isinstance(run.metric, SphericalMetric):
        raise ConfigError(f"check '{name}' needs a spherically symmetric metric")
    tol = run.tolerance(name)
    try:
        return _RUNNERS[name](run, tol, params)
    except EvaluationError as err:
        if getattr(err, "sample", None) is None:
            raise
        return [_record(name, run, 0.0, err.sample, tol, {"evaluation_error": str(err)}, False)]
