"""Named verification checks run over a sampled domain.

Each runner reduces its residuals over the sample list in a fixed order
(worst sample wins ties by first occurrence, and any non-finite residual
fails the check and names its sample), so reports are deterministic
regardless of how callers might parallelize in the future.  Every runner
takes the run's ``Run``, which builds each derivative bundle of the samples
on first use and shares it with every later check.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import geodesics as geo
from . import projective as proj
from . import symmetry as sym
from .metrics import (
    AmbientBundle,
    MetricSample,
    ProfileBundle,
    SphericalMetric,
    positive_definite,
    relative_residual,
    reversibility_residual,
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


@dataclass
class Run:
    """One verify run: the metric, its samples and tolerances, and the samples'
    derivative bundles, each built on first use and then read by every check."""

    metric: object
    samples: list
    tolerances: dict = field(default_factory=dict)
    dump_dir: str | None = None

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    @functools.cached_property
    def profile(self) -> ProfileBundle:
        return ProfileBundle.of(self.metric, self.samples)

    @functools.cached_property
    def ambient(self) -> AmbientBundle:
        return AmbientBundle.of(self.metric, self.samples, 3)

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


def _worst_record(check, run, values, tol, detail=None, ok=True, F=None, samples=None):
    """Record of one residual per sample: passes if ok, all finite and all <= tol."""
    samples = run.samples if samples is None else samples
    worst, at, non_finite = worst_residual(values)
    detail = dict(detail or {})
    if non_finite:
        detail["non_finite_residuals"] = non_finite
    passed = ok and non_finite == 0 and worst <= tol
    return _record(check, run, worst, samples[at], tol, detail, passed, F, samples)


def check_homogeneity(run, tol, params):
    return [_worst_record("homogeneity", run, run.profile.homogeneity_residual(), tol)]


def check_convexity(run, tol, params):
    b = run.profile
    failed = np.array([not positive_definite(g) for g in b.g()])
    fraction = int(failed.sum()) / len(run.samples)
    detail = {"lemma_ok_fraction": int(b.convexity_lemma().sum()) / len(run.samples)}
    # the first failing sample, or the first sample when none fails
    return [_record("convexity", run, fraction, run.samples[failed.argmax()], tol, detail)]


def check_symmetry(run, tol, params):
    b = run.first_order
    v = sym.symmetry_verdict(run.metric, run.samples, tolerance=tol, bundle=b)
    detail = {
        "fields_tested": v.fields_tested,
        "worst_field": list(v.worst_field),
        "conclusion": v.conclusion,
    }
    if v.non_finite:
        detail["non_finite_residuals"] = v.non_finite
    return [_record("symmetry", run, v.max_residual, v.worst_sample, tol, detail, v.passed, b.F)]


def check_symmetry_tensor(run, tol, params):
    b = run.ambient
    values = sym.symmetry_tensor_of(b, sym.rotation_fields(b.n))
    return [_worst_record("symmetry_tensor", run, values, tol, F=b.F)]


def check_cartan(run, tol, params):
    b = run.ambient
    return [_worst_record("cartan", run, sym.cartan_contraction_of(b), tol, F=b.F)]


def check_rapcsak(run, tol, params):
    b = run.first_order
    values = proj.rapcsak_residuals(run.metric, run.samples, b).max(axis=1)
    return [_worst_record("rapcsak", run, values, tol, F=b.F)]


def check_projective_pde(run, tol, params):
    values = np.maximum(*proj.projective_pde_of(run.profile))
    return [_worst_record("projective_pde", run, values, tol)]


def check_curvature(run, tol, params):
    """Constant flag curvature, and a second record for the curvature PDE pair
    (tolerance ``curvature_pde``)."""
    lam = params.get("lambda")
    v = proj.constant_curvature_verdict(run.metric, run.samples, lam, tol, bundle=run.profile)
    if v.status == "not_projective":
        detail = {"status": v.status, "projectivity_residual": v.projectivity_residual}
        worst = v.projectivity_residual
        return [_record("curvature", run, worst, v.worst_sample, tol, detail, False)]
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
        _record("curvature", run, deviation, v.worst_sample, tol, detail, v.passed),
        _worst_record("curvature_pde", run, v.pde_values, pde_tol, pde_detail),
    ]


def check_det_g(run, tol, params):
    b = run.profile
    values = relative_residual(b.det_g(), -np.linalg.det(b.g()))
    return [_worst_record("det_g", run, values, tol)]


def check_fundamental_ad(run, tol, params):
    closed, ambient = run.profile.g(), run.ambient
    values = np.abs(closed - ambient.g()).max(axis=(1, 2)) / np.abs(closed).max(axis=(1, 2))
    return [_worst_record("fundamental_ad", run, values, tol, F=ambient.F)]


def _reversibility(run):
    return [reversibility_residual(run.metric, s.r, s.u, s.v) for s in run.samples]


def check_reversibility(run, tol, params):
    return [_worst_record("reversibility", run, _reversibility(run), tol)]


def check_geodesics(run, tol, params):
    """Straightness of integrated geodesics; a path that stopped early fails the check."""
    metric = run.metric
    count = int(params.get("count", 20))
    steps = int(params.get("steps", 400))
    horizon = float(params.get("horizon", 0.5))
    launched = run.samples[: min(count, len(run.samples))]
    paths = [
        geo.integrate_geodesic(metric, s.x, s.y, geo.safe_horizon(metric, s.x, s.y, horizon), steps)
        for s in launched
    ]
    deviations = [geo.straightness_deviation(p, s.x, s.y) for p, s in zip(paths, launched)]
    if run.dump_dir is not None:
        os.makedirs(run.dump_dir, exist_ok=True)
        safe_name = "".join(c if c.isalnum() else "_" for c in metric.name)
        for i, path in enumerate(paths):
            with open(os.path.join(run.dump_dir, f"{safe_name}_geodesic{i:03d}.csv"), "w") as fh:
                geo.dump_csv(path, fh)
    completed = min(len(p.times) - 1 for p in paths)
    exits = [p.exit_time for p in paths if p.exit_time is not None]
    detail = {
        "geodesics": len(launched),
        "steps": steps,
        "min_steps_completed": completed,
        "first_exit_time": exits[0] if exits else None,
    }
    return [
        _worst_record(
            "geodesics", run, deviations, tol, detail, completed == steps, samples=launched
        )
    ]


def _smooth_across_v_zero(metric, samples, delta=1e-6, threshold=1e-3):
    """Is the profile differentiable across <x,y> = 0?

    An even profile can still carry an h(r)|v| term (the reversible family
    metrics built from an integrand do); phi_v then jumps by 2 h(r) across
    v = 0 instead of varying like 2 delta phi_vv.  The conjectured statement
    assumes smooth metrics, so kinked ones must not be probed against it.
    """
    for s in samples[: min(4, len(samples))]:
        up = metric.phi_jet(s.r, s.u, delta, 1)
        down = metric.phi_jet(s.r, s.u, -delta, 1)
        jump = abs(up.partial(2) - down.partial(2))
        scale = abs(up.partial(1)) + abs(up.partial(2))
        if jump > threshold * scale:
            return False
    return True


def check_conjecture(run, tol, params):
    """Reversibility + constant curvature + Riemannian probe, reported together.

    The probe can only be consistent or inconsistent with the expectation
    that reversible projective metrics of constant flag curvature are
    Riemannian; it proves nothing either way.
    """
    metric, samples = run.metric, run.samples
    rev_worst, rev_at, rev_non_finite = worst_residual(_reversibility(run))
    reversible = rev_non_finite == 0 and rev_worst <= 1e-9
    detail: dict = {"reversible": reversible, "reversibility_residual": rev_worst}
    passed = True
    probe_max = 0.0
    if not reversible:
        detail["conclusion"] = "consistent: not reversible, no claim applies"
    else:
        verdict = proj.constant_curvature_verdict(
            metric, samples, tolerance=run.tolerance("curvature"), bundle=run.profile
        )
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
            ys = [s.y for s in samples[: min(6, len(samples))]]
            pairs = [MetricSample.of(s.x, y) for s in samples[: min(8, len(samples))] for y in ys]
            probe = riemannian_probe_of(AmbientBundle.of(metric, pairs), len(ys))
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

_PROFILE_CHECKS = {"homogeneity", "convexity", "projective_pde", "curvature", "det_g",
                   "fundamental_ad", "reversibility", "conjecture"}  # they read phi(r, u, v)


def run_check(name, metric, samples, params, tolerances, dump_dir=None, run=None):
    """Run one named check.  ``run`` is the run's ``Run(metric, samples, tolerances,
    dump_dir)``; sharing it across a run's checks builds each bundle at most once."""
    if name not in _RUNNERS:
        raise ConfigError(f"unknown check '{name}'")
    if name in _PROFILE_CHECKS and not isinstance(metric, SphericalMetric):
        raise ConfigError(f"check '{name}' needs a spherically symmetric metric")
    if run is None:
        run = Run(metric, samples, tolerances, dump_dir)
    return _RUNNERS[name](run, run.tolerance(name), params)
