"""Named verification checks run over a sampled domain.

Each runner reduces its residuals over the sample list in a fixed order
(worst sample wins ties by first occurrence, and any non-finite residual
fails the check and names its sample), so reports are deterministic
regardless of how callers might parallelize in the future.  Profile
formulas read one ``ProfileBundle`` of the samples, handed to the runners
as a callable that builds it on first use (see ``profile_of``).
"""

from __future__ import annotations

import functools
import os

import numpy as np

from . import geodesics as geo
from . import projective as proj
from . import symmetry as sym
from .metrics import (
    ProfileBundle,
    SphericalMetric,
    fundamental_tensor_ad,
    positive_definite,
    relative_residual,
    reversibility_residual,
    riemannian_probe,
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


def profile_of(metric, samples):
    """The samples' ProfileBundle as a callable: built on the first call, then reused.

    Returns None for a general metric, which has no profile.
    """
    if not isinstance(metric, SphericalMetric):
        return lambda: None
    return functools.cache(lambda: ProfileBundle.of(metric, samples))


def _require_profile(metric, check: str) -> None:
    if not isinstance(metric, SphericalMetric):
        raise ConfigError(f"check '{check}' needs a spherically symmetric metric")


def _record(check, metric, samples, worst, at, tol, detail=None, passed=None) -> CheckRecord:
    return CheckRecord(
        check=check,
        metric=metric.name,
        samples=len(samples),
        max_residual=worst,
        tolerance=tol,
        passed=worst <= tol if passed is None else passed,
        worst_x=list(at.x),
        worst_y=list(at.y),
        detail=detail or {},
    )


def _worst_record(check, metric, samples, values, tol, detail=None, ok=True) -> CheckRecord:
    """Record of one residual per sample: passes if ok, all finite and all <= tol."""
    worst, at, non_finite = worst_residual(values)
    detail = dict(detail or {})
    if non_finite:
        detail["non_finite_residuals"] = non_finite
    passed = ok and non_finite == 0 and worst <= tol
    return _record(check, metric, samples, worst, samples[at], tol, detail, passed)


def check_homogeneity(metric, samples, tol, params, profile):
    _require_profile(metric, "homogeneity")
    return [_worst_record("homogeneity", metric, samples, profile().homogeneity_residual(), tol)]


def check_convexity(metric, samples, tol, params, profile):
    _require_profile(metric, "convexity")
    b = profile()
    failed = np.array([not positive_definite(g) for g in b.g()])
    fraction = int(failed.sum()) / len(samples)
    detail = {"lemma_ok_fraction": int(b.convexity_lemma().sum()) / len(samples)}
    # the first failing sample, or the first sample when none fails
    return [_record("convexity", metric, samples, fraction, samples[failed.argmax()], tol, detail)]


def check_symmetry(metric, samples, tol, params, profile):
    verdict = sym.symmetry_verdict(metric, samples, tolerance=tol, bundle=profile())
    detail = {
        "fields_tested": verdict.fields_tested,
        "worst_field": list(verdict.worst_field),
        "conclusion": verdict.conclusion,
    }
    if verdict.non_finite:
        detail["non_finite_residuals"] = verdict.non_finite
    return [
        _record(
            "symmetry", metric, samples, verdict.max_residual, verdict.worst_sample, tol, detail,
            verdict.passed,
        )
    ]


def check_symmetry_tensor(metric, samples, tol, params, profile):
    fields = sym.rotation_fields(len(samples[0].x))
    values = [sym.killing_tensor_max_residual(metric, s.x, s.y, fields) for s in samples]
    return [_worst_record("symmetry_tensor", metric, samples, values, tol)]


def check_cartan(metric, samples, tol, params, profile):
    values = [sym.cartan_y_contraction_residual(metric, s.x, s.y) for s in samples]
    return [_worst_record("cartan", metric, samples, values, tol)]


def check_rapcsak(metric, samples, tol, params, profile):
    values = proj.rapcsak_residuals(metric, samples, profile()).max(axis=1)
    return [_worst_record("rapcsak", metric, samples, values, tol)]


def check_projective_pde(metric, samples, tol, params, profile):
    _require_profile(metric, "projective_pde")
    values = np.maximum(*proj.projective_pde_of(profile()))
    return [_worst_record("projective_pde", metric, samples, values, tol)]


def check_curvature(metric, samples, tol, params, pde_tol, profile):
    _require_profile(metric, "curvature")
    hypothesis = params.get("lambda")
    verdict = proj.constant_curvature_verdict(
        metric, samples, lambda_hypothesis=hypothesis, tolerance=tol, bundle=profile()
    )
    if verdict.status == "not_projective":
        detail = {"status": verdict.status, "projectivity_residual": verdict.projectivity_residual}
        rec = CheckRecord(
            check="curvature",
            metric=metric.name,
            samples=len(samples),
            max_residual=verdict.projectivity_residual,
            tolerance=tol,
            passed=False,
            detail=detail,
        )
        return [rec]
    deviation = verdict.max_deviation
    if hypothesis is not None:
        deviation = max(deviation, abs(verdict.lambda_estimate - hypothesis))
    detail = {
        "status": verdict.status,
        "lambda_estimate": verdict.lambda_estimate,
        "max_deviation": verdict.max_deviation,
    }
    if hypothesis is not None:
        detail["lambda_hypothesis"] = hypothesis
    return [
        _record(
            "curvature", metric, samples, deviation, verdict.worst_sample, tol, detail,
            verdict.passed,
        ),
        CheckRecord(
            check="curvature_pde",
            metric=metric.name,
            samples=len(samples),
            max_residual=max(verdict.pde_residuals),
            tolerance=pde_tol,
            passed=max(verdict.pde_residuals) <= pde_tol,
            detail={"residual_u": verdict.pde_residuals[0], "residual_v": verdict.pde_residuals[1]},
        ),
    ]


def check_det_g(metric, samples, tol, params, profile):
    _require_profile(metric, "det_g")
    b = profile()
    values = relative_residual(b.det_g(), -np.linalg.det(b.g()))
    return [_worst_record("det_g", metric, samples, values, tol)]


def check_fundamental_ad(metric, samples, tol, params, profile):
    _require_profile(metric, "fundamental_ad")
    values = [
        float(np.abs(closed - fundamental_tensor_ad(metric, s.x, s.y)).max())
        / float(np.abs(closed).max())
        for closed, s in zip(profile().g(), samples)
    ]
    return [_worst_record("fundamental_ad", metric, samples, values, tol)]


def _reversibility(metric, samples):
    return [reversibility_residual(metric, s.r, s.u, s.v) for s in samples]


def check_reversibility(metric, samples, tol, params, profile):
    _require_profile(metric, "reversibility")
    return [_worst_record("reversibility", metric, samples, _reversibility(metric, samples), tol)]


def check_geodesics(metric, samples, tol, params, dump_dir=None):
    """Straightness of integrated geodesics; a path that stopped early fails the check."""
    count = int(params.get("count", 20))
    steps = int(params.get("steps", 400))
    horizon = float(params.get("horizon", 0.5))
    launched = samples[: min(count, len(samples))]
    paths = [
        geo.integrate_geodesic(metric, s.x, s.y, geo.safe_horizon(metric, s.x, s.y, horizon), steps)
        for s in launched
    ]
    deviations = [geo.straightness_deviation(p, s.x, s.y) for p, s in zip(paths, launched)]
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        safe_name = "".join(c if c.isalnum() else "_" for c in metric.name)
        for i, path in enumerate(paths):
            with open(os.path.join(dump_dir, f"{safe_name}_geodesic{i:03d}.csv"), "w") as fh:
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
        _worst_record("geodesics", metric, launched, deviations, tol, detail, completed == steps)
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


def check_conjecture(metric, samples, tol, params, curvature_tol, profile=None):
    """Reversibility + constant curvature + Riemannian probe, reported together.

    The probe can only be consistent or inconsistent with the expectation
    that reversible projective metrics of constant flag curvature are
    Riemannian; it proves nothing either way.
    """
    _require_profile(metric, "conjecture")
    rev_worst, rev_at, rev_non_finite = worst_residual(_reversibility(metric, samples))
    reversible = rev_non_finite == 0 and rev_worst <= 1e-9
    detail: dict = {"reversible": reversible, "reversibility_residual": rev_worst}
    passed = True
    probe_max = 0.0
    if not reversible:
        detail["conclusion"] = "consistent: not reversible, no claim applies"
    else:
        verdict = proj.constant_curvature_verdict(
            metric, samples, tolerance=curvature_tol, bundle=profile() if profile else None
        )
        detail["constant_curvature"] = verdict.passed
        if verdict.lambda_estimate is not None:
            detail["lambda_estimate"] = verdict.lambda_estimate
        if not verdict.passed:
            detail["conclusion"] = (
                "consistent: curvature is not constant, no claim applies"
            )
        elif not _smooth_across_v_zero(metric, samples):
            detail["smooth_across_v_zero"] = False
            detail["conclusion"] = (
                "consistent: profile has a |<x,y>| kink, so the smooth-metric "
                "claim does not apply"
            )
        else:
            xs = samples[: min(8, len(samples))]
            ys = [s.y for s in samples[: min(6, len(samples))]]
            probes = [riemannian_probe(metric, s.x, ys) for s in xs]
            probe_max = max(max(p.g_deviation, p.cartan_max) for p in probes)
            riemannian = probe_max <= tol
            detail["riemannian"] = riemannian
            detail["probe_deviation"] = probe_max
            if riemannian:
                detail["conclusion"] = (
                    "consistent: reversible, constant curvature, and Riemannian"
                )
            else:
                passed = False
                detail["conclusion"] = (
                    "inconsistent: reversible constant-curvature metric "
                    "with y-dependent fundamental tensor"
                )
    return [_record("conjecture", metric, samples, probe_max, samples[rev_at], tol, detail, passed)]


CHECK_NAMES = sorted(DEFAULT_TOLERANCES)

_RUNNERS = {
    "homogeneity": check_homogeneity,
    "convexity": check_convexity,
    "symmetry": check_symmetry,
    "symmetry_tensor": check_symmetry_tensor,
    "cartan": check_cartan,
    "rapcsak": check_rapcsak,
    "projective_pde": check_projective_pde,
    "det_g": check_det_g,
    "fundamental_ad": check_fundamental_ad,
    "reversibility": check_reversibility,
}


def run_check(name, metric, samples, params, tolerances, dump_dir=None, profile=None):
    """Run one named check.  ``profile`` is the run's ``profile_of(metric, samples)``;
    sharing it across a run's checks builds the profile bundle at most once."""
    if profile is None:
        profile = profile_of(metric, samples)
    tol = tolerances.get(name, DEFAULT_TOLERANCES.get(name))
    if name in _RUNNERS:
        return _RUNNERS[name](metric, samples, tol, params, profile)
    if name == "curvature":
        pde_tol = tolerances.get("curvature_pde", DEFAULT_TOLERANCES["curvature_pde"])
        return check_curvature(metric, samples, tol, params, pde_tol, profile)
    if name == "geodesics":
        return check_geodesics(metric, samples, tol, params, dump_dir=dump_dir)
    if name == "conjecture":
        curvature_tol = tolerances.get("curvature", DEFAULT_TOLERANCES["curvature"])
        return check_conjecture(metric, samples, tol, params, curvature_tol, profile)
    raise ConfigError(f"unknown check '{name}'")
