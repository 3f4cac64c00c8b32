"""Named verification checks run over a sampled domain.

Each runner reduces its residuals over the sample list in a fixed order
(worst sample wins ties by first occurrence, and any non-finite residual
fails the check and names its sample), so reports are deterministic
regardless of how callers might parallelize in the future.  Every runner
takes the run's ``Run``, which builds each derivative bundle of the samples
(the rows of one ``MetricSample``) on first use, names the sample at which a
build fails, and shares the bundle (or the error) with every later check.
Each runner builds its records straight from the per-sample formulas over
those bundles (``symmetry``, ``projective`` and the bundles' own methods),
reduced by ``metrics.worst_residual``; ``run_check`` applies the preconditions they
share, the homogeneity gate ``CHECKS`` declares and the F <= 0 rule.
``CHECKS`` is the one table of the checks: each name's runner, default
tolerance, what it reads of the run and the params it takes.  ``read_object``
reads a JSON object of a config, such as a check's params, against the table
of its keys.
"""

from __future__ import annotations

import difflib
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import geodesics as geo
from . import projective as proj
from . import symmetry as sym
from .jets import EvaluationError, first_failure
from .metrics import (
    U,
    V,
    AmbientBundle,
    MetricSample,
    ProfileBundle,
    SphericalMetric,
    ambient_invariants,
    cholesky_rows,
    mirrored_phi_jets,
    quotient,
    relative_residual,
    reversibility_residuals,
    worst_residual,
)
from .report import CheckRecord


class ConfigError(ValueError):
    """Bad configuration: unknown names, wrong metric kind, invalid params."""


def _suggest(name: str, options) -> str:
    close = difflib.get_close_matches(name, list(options), n=1)
    return f" (did you mean '{close[0]}'?)" if close else ""


REQUIRED = object()  # the default of a key that must be given


def read_object(obj, declared, path: str) -> dict:
    """Every key of ``declared`` (key -> (default, type, test, what the value must be)),
    read from the JSON object ``obj`` at dotted ``path``: its value, converted to the
    type when that is int or float, or its default.  A type that is itself a table is
    an object read against it, and a null is the absent value of a key whose default
    is None.  An undeclared key, a missing required one, a value of another type (a
    bool is no number), an integer too large for a float and a value the test refuses
    are each a config error that names the key's path."""
    if not isinstance(obj, dict):
        raise ConfigError(f"'{path or 'config'}' must be an object, got {obj!r}")
    prefix = f"{path}." if path else ""
    for key in obj:
        if key not in declared:
            raise ConfigError(f"unknown key '{prefix}{key}'{_suggest(key, declared)}")
    out = {}
    for key, (default, kind, test, what) in declared.items():
        at, value = prefix + key, obj.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing key '{at}', which must be {what}")
        if isinstance(kind, dict):
            value = read_object(value, kind, at)
        elif key in obj and not (value is None and default is None):
            number = {int: numbers.Integral, float: numbers.Real}.get(kind)
            huge = number and isinstance(value, int) and abs(value) > sys.float_info.max
            wrong = not isinstance(value, number or kind) or number and isinstance(value, bool)
            if huge or wrong or test and not test(value):
                got = "an integer too large for a float" if huge else repr(value)
                raise ConfigError(f"'{at}' must be {what}, got {got}")
            value = kind(value) if number else value
        out[key] = value
    return out


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
    check.  A spherical metric's profile is evaluated once, by the profile
    bundle at ``profile_order``, and its ambient bundle is composed from that
    bundle's ``columns``.  A build that fails is not retried: every later read
    raises the same error.  So if that evaluation fails, every check that reads
    either bundle fails at the same sample; the ambient bundle names x = 0
    instead at a row that is not higher."""

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
        return 3 if spherical and any("ambient" in CHECKS[name][2] for name in self.checks) else 2

    @property
    def profile(self) -> ProfileBundle:
        return self._once("profile", lambda x, y: ProfileBundle.of(self.metric, x, y, self.profile_order))

    @property
    def ambient(self) -> AmbientBundle:
        def build(x, y):
            try:
                columns = self.profile.columns if self.profile_order == 3 else None
            except EvaluationError as err:  # x = 0 at a row not higher is named first
                ambient_invariants(x[: err.index + 1], y[: err.index + 1])
                raise
            return AmbientBundle.of(self.metric, x, y, 3, columns)

        return self._once("ambient", build)

    @property
    def homogeneity(self) -> np.ndarray:
        """``homogeneity_residual()`` of the first-order bundle, read by every gated check."""
        return self._once("homogeneity", lambda x, y: self.first_order.homogeneity_residual())

    @property
    def reversibility(self) -> np.ndarray:
        """``reversibility_residuals`` of the samples."""
        return self._once("reversibility", lambda x, y: reversibility_residuals(self.metric, x, y))

    @property
    def first_order(self):
        """The bundle F, F_x and F_y are read from: the profile's when there is one."""
        return self.profile if isinstance(self.metric, SphericalMetric) else self.ambient


def _record(check, run, worst, at, tol, detail=None, passed=None, samples=None):
    """One record naming the sample ``at``, over ``samples`` (default: the run's)."""
    samples = run.samples if samples is None else samples
    passed = worst <= tol if passed is None else passed
    return CheckRecord(
        check, run.metric.name, len(samples), worst, tol, passed, list(at.x), list(at.y), dict(detail or {})
    )


def _worst_record(check, run, values, tol, detail=None, failed=(), samples=None):
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
    return _record(check, run, worst, samples[at], tol, detail, passed, samples)


def _gated(check, run, tol, status, key, values):
    """The one failed record of ``check``, whose formulas presume what ``values`` (a
    residual per sample) tests, when their worst exceeds 1e-6: it names the worst
    sample.  None when the precondition holds."""
    worst, at, _ = worst_residual(values)
    if worst > 1e-6:
        return [_record(check, run, worst, run.samples[at], tol, {"status": status, key: worst}, False)]
    return None


def check_homogeneity(run, tol, params):
    return [_worst_record("homogeneity", run, run.homogeneity, tol)]


def check_convexity(run, tol, params):
    b = run.profile
    _, failed = cholesky_rows(b.g())
    fraction = int(failed.sum()) / len(run.samples)
    detail = {"lemma_ok_fraction": int(b.convexity_lemma().sum()) / len(run.samples)}
    # the first failing sample, or the first sample when none fails
    return [_record("convexity", run, fraction, run.samples[failed.argmax()], tol, detail)]


def check_symmetry(run, tol, params):
    """The scalar Killing residual over every sample and rotation field; the worst
    (sample, field) pair is the first maximum in sample-major order."""
    b = run.first_order
    fields = sym.rotation_fields(b.x.shape[1])
    worst, index, non_finite = worst_residual(sym.scalar_residuals_of(b, fields))
    at, m = divmod(index, len(fields))
    field = (fields[m].i, fields[m].j)
    passed = non_finite == 0 and worst <= tol
    if passed:
        conclusion = "consistent with spherical symmetry"
    elif non_finite:
        conclusion = f"undecided: non-finite residual for field {field}"
    else:
        conclusion = f"not spherically symmetric: field {field} residual {worst:.3e}"
    detail = {"fields_tested": len(fields), "worst_field": list(field), "conclusion": conclusion}
    if non_finite:
        detail["non_finite_residuals"] = non_finite
    return [_record("symmetry", run, worst, run.samples[at], tol, detail, passed)]


def check_symmetry_tensor(run, tol, params):
    b = run.ambient
    values = sym.symmetry_tensor_of(b, sym.rotation_fields(b.n))
    return [_worst_record("symmetry_tensor", run, values, tol)]


def check_cartan(run, tol, params):
    return [_worst_record("cartan", run, sym.cartan_contraction_of(run.ambient), tol)]


def check_rapcsak(run, tol, params):
    return [_worst_record("rapcsak", run, run.first_order.rapcsak_residuals().max(axis=1), tol)]


def check_projective_pde(run, tol, params):
    return [_worst_record("projective_pde", run, np.maximum(*proj.projective_pde_of(run.profile)), tol)]


def check_curvature(run, tol, params):
    """Constant flag curvature, and a second record for the curvature PDE pair
    (tolerance ``curvature_pde``).

    The estimate is the median of the finite pointwise lambdas (robust to a few
    near-singular samples; None if there are none); the deviation is the max
    (strictest).  The PDE residuals are evaluated at the hypothesis when given,
    else at the estimate.  A Rapcsak residual over 1e-6 means the metric is not
    projective, which the curvature formulas presume (as they do a 1-homogeneous
    profile, which ``run_check`` gates): then the one record fails and names the
    worst sample.  A non-finite projectivity gate or lambda fails the check.
    """
    lam = params["lambda"]
    b = run.profile
    gate = b.rapcsak_residuals().max(axis=1)
    if gated := _gated("curvature", run, tol, "not_projective", "projectivity_residual", gate):
        return gated
    values = proj.flag_curvature_of(b)
    finite = values[np.isfinite(values)]
    estimate = float(np.median(finite)) if finite.size else math.nan
    deviation = worst_residual(np.abs(values - estimate))[0]
    at_lam = lam if lam is not None else estimate
    spread = np.where(np.isfinite(gate), np.abs(values - at_lam), math.nan)
    _, at, non_finite = worst_residual(spread)
    c_u, c_v = proj.curvature_pde_of(b, at_lam)
    passed = non_finite == 0 and deviation <= tol and (lam is None or abs(estimate - lam) <= tol)
    detail = {
        "status": "constant" if passed else "non_constant",
        "lambda_estimate": estimate if finite.size else None,
        "max_deviation": deviation,
    }
    worst = deviation
    if lam is not None:
        detail["lambda_hypothesis"] = lam
        if finite.size:
            worst = max(deviation, abs(estimate - lam))
    if non_finite:
        detail["non_finite_residuals"] = non_finite
    pde_detail = {"residual_u": worst_residual(c_u)[0], "residual_v": worst_residual(c_v)[0]}
    pde_tol = run.tolerance("curvature_pde")
    return [
        _record("curvature", run, worst, run.samples[at], tol, detail, passed),
        _worst_record("curvature_pde", run, np.maximum(c_u, c_v), pde_tol, pde_detail),
    ]


def check_det_g(run, tol, params):
    b = run.profile
    values = relative_residual(b.det_g(), -np.linalg.det(b.g()))
    return [_worst_record("det_g", run, values, tol)]


def check_fundamental_ad(run, tol, params):
    closed, ambient = run.profile.g(), run.ambient
    values = quotient(np.abs(closed - ambient.g()).max(axis=(1, 2)), np.abs(closed).max(axis=(1, 2)))
    return [_worst_record("fundamental_ad", run, values, tol)]


def check_reversibility(run, tol, params):
    return [_worst_record("reversibility", run, run.reversibility, tol)]


def check_geodesics(run, tol, params):
    """Straightness of integrated geodesics, all launched as one batch; a path
    that stopped early, or a launch point at |x| >= 0.95 of the domain radius,
    fails the check and names its launch sample."""
    metric = run.metric
    count, steps, horizon = params["count"], params["steps"], params["horizon"]
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


_KINK_DELTA, _KINK_THRESHOLD = 1e-6, 1e-3  # see _smooth_across_v_zero


def _smooth_across_v_zero(metric, samples):
    """Is the profile differentiable across <x,y> = 0 at the first four samples?

    An even profile can still carry an h(r)|v| term (the reversible family
    metrics built from an integrand do); phi_v then jumps by 2 h(r) across
    v = 0 instead of varying like 2 delta phi_vv (delta is ``_KINK_DELTA``), so a
    jump over ``_KINK_THRESHOLD`` times |phi_u| + |phi_v| is a kink.  The conjectured
    statement assumes smooth metrics, so kinked ones must not be probed against it.
    The probe points (r, u, +delta) and (r, u, -delta) of each sample lie off
    the samples, in one order-1 ``mirrored_phi_jets``; an evaluation error there
    names the lowest failing sample (``first_failure``).
    """

    def kinked(r, u):
        up, down = mirrored_phi_jets(metric, r, u, np.full(len(r), _KINK_DELTA), 1)
        return abs(up[1 + V] - down[1 + V]) > _KINK_THRESHOLD * (abs(up[1 + U]) + abs(up[1 + V]))

    probed = samples[:4]
    return not _named(lambda x, y: first_failure(kinked, probed.r, probed.u), probed).any()


def check_conjecture(run, tol, params):
    """Reversibility + constant curvature + Riemannian probe, reported together.

    The probe, ``symmetry.cartan_size_of`` the run's ambient bundle, can only be
    consistent or inconsistent with the expectation that reversible projective
    metrics of constant flag curvature are Riemannian; it proves nothing either way.
    The record names the probe's worst sample, else the least reversible one.
    """
    samples = run.samples
    rev_worst, at, rev_non_finite = worst_residual(run.reversibility)
    reversible = rev_non_finite == 0 and rev_worst <= 1e-9
    detail: dict = {"reversible": reversible, "reversibility_residual": rev_worst}
    passed = True
    probe_max = 0.0
    if not reversible:
        detail["conclusion"] = "consistent: not reversible, no claim applies"
    else:
        curvature = check_curvature(run, run.tolerance("curvature"), {"lambda": None})[0]
        detail["constant_curvature"] = curvature.passed
        if curvature.detail.get("lambda_estimate") is not None:
            detail["lambda_estimate"] = curvature.detail["lambda_estimate"]
        if not curvature.passed:
            detail["conclusion"] = "consistent: curvature is not constant, no claim applies"
        elif not _smooth_across_v_zero(run.metric, samples):
            detail["smooth_across_v_zero"] = False
            detail["conclusion"] = (
                "consistent: profile has a |<x,y>| kink, so the smooth-metric "
                "claim does not apply"
            )
        else:
            probe_max, at, non_finite = worst_residual(sym.cartan_size_of(run.ambient))
            riemannian = non_finite == 0 and probe_max <= tol
            detail["riemannian"] = riemannian
            detail["probe_deviation"] = probe_max
            if riemannian:
                detail["conclusion"] = "consistent: reversible, constant curvature, and Riemannian"
            elif non_finite:
                passed, detail["non_finite_residuals"] = False, non_finite
                detail["conclusion"] = "undecided: non-finite Cartan size"
            else:
                passed = False
                detail["conclusion"] = (
                    "inconsistent: reversible constant-curvature metric "
                    "with y-dependent fundamental tensor"
                )
    return [_record("conjecture", run, probe_max, samples[at], tol, detail, passed)]


# the checks' params: name -> (default, type, test, what the test asks); the default
# lambda, None, tests no hypothesis
_CURVATURE_PARAMS = {"lambda": (None, float, math.isfinite, "a finite number")}
_GEODESIC_PARAMS = {
    "count": (20, int, lambda n: n >= 1, "an integer >= 1"),
    "steps": (400, int, lambda n: n >= 1, "an integer >= 1"),
    "horizon": (0.5, float, lambda t: math.isfinite(t) and t > 0.0, "finite and > 0"),
}

# name -> (runner, default tolerance, the ``Run`` items it reads, its params).  ``profile``
# and ``reversibility`` evaluate phi, so a check reading either needs a spherical metric;
# ``first_order`` is the profile bundle of a spherical metric, else the ambient one.  A
# check whose formulas presume a 1-homogeneous F reads ``homogeneity``: ``run_check``
# gates it on that residual, and fails every record of every check where F <= 0.
# ``run_check`` gives a runner every param it declares and refuses any other key.
CHECKS = {
    "homogeneity": (check_homogeneity, 1e-9, ("first_order",), {}),
    "convexity": (check_convexity, 0.0, ("homogeneity", "profile"), {}),
    "symmetry": (check_symmetry, 1e-9, ("first_order",), {}),
    "symmetry_tensor": (check_symmetry_tensor, 1e-8, ("ambient",), {}),
    "cartan": (check_cartan, 1e-9, ("ambient",), {}),
    "rapcsak": (check_rapcsak, 1e-8, ("homogeneity", "first_order"), {}),
    "projective_pde": (check_projective_pde, 1e-8, ("homogeneity", "profile"), {}),
    "curvature": (check_curvature, 1e-6, ("homogeneity", "profile"), _CURVATURE_PARAMS),
    "det_g": (check_det_g, 1e-8, ("profile",), {}),
    "fundamental_ad": (check_fundamental_ad, 1e-9, ("profile", "ambient"), {}),
    "reversibility": (check_reversibility, 1e-9, ("reversibility",), {}),
    "geodesics": (check_geodesics, 1e-6, ("homogeneity", "first_order"), _GEODESIC_PARAMS),
    "conjecture": (check_conjecture, 1e-8, ("homogeneity", "reversibility", "profile", "ambient"), {}),
}

CHECK_NAMES = sorted(CHECKS)
# the checks' tolerances, and that of the curvature check's second record
DEFAULT_TOLERANCES = {name: tol for name, (_, tol, _, _) in CHECKS.items()} | {"curvature_pde": 1e-8}


def run_check(name, run, params):
    """Run one named check over ``run`` with its ``params`` checked against its declared
    ones; sharing one ``Run`` across a run's checks builds each bundle at most once.  An
    evaluation failure at one of the samples fails the check with one record naming that
    sample (``detail.evaluation_error``).  A check that reads ``homogeneity`` gets one failed
    record (``status: not_homogeneous``) where that residual exceeds 1e-6; F <= 0 at any of
    a record's samples fails it and names the first (``detail.non_positive_F`` counts them)."""
    if name not in CHECKS:
        raise ConfigError(f"unknown check '{name}'")
    runner, _, reads, _ = CHECKS[name]
    if {"profile", "reversibility"}.intersection(reads) and not isinstance(run.metric, SphericalMetric):
        raise ConfigError(f"check '{name}' needs a spherically symmetric metric")
    params = read_object(params, CHECKS[name][3], name)
    tol = run.tolerance(name)
    try:
        records = None
        if "homogeneity" in reads:
            records = _gated(name, run, tol, "not_homogeneous", "homogeneity_residual", run.homogeneity)
        records = records or runner(run, tol, params)
        F = run.first_order.F
    except EvaluationError as err:
        if getattr(err, "sample", None) is None:
            raise
        return [_record(name, run, 0.0, err.sample, tol, {"evaluation_error": str(err)}, False)]
    for record in records:  # over its samples, a prefix of the run's
        non_positive = F[: record.samples] <= 0.0
        if non_positive.any():
            at = run.samples[int(non_positive.argmax())]
            record.detail["non_positive_F"] = int(non_positive.sum())
            record.passed, record.worst_x, record.worst_y = False, list(at.x), list(at.y)
    return records
