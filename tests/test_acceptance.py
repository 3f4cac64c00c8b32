"""Acceptance suite: one test per criterion, at the stated tolerances.

Desk scale: dimensions 2..4, 500 samples per metric, seed 7.  Each test
prints one summary line so a verbose run reads as a checklist.
"""

import json
import math
import random

import numpy as np

from finslercheck import expr as expr_mod
from finslercheck.cli import run_config
from finslercheck.checks import Run, run_check
from finslercheck.expr import EvalDomainError
from finslercheck.family import ProjectiveFamilySpec, build_projective_metric
from finslercheck.geodesics import (
    integrate_geodesic,
    integrate_geodesics,
    safe_horizon,
    straightness_deviation,
)
from finslercheck.jets import lift_var
from finslercheck.metrics import (
    AmbientBundle,
    ClosedFormProfile,
    GeneralMetric,
    ProfileBundle,
    SphericalMetric,
    builtin,
    bundle_of,
    relative_residual,
    worst_residual,
)
from finslercheck.projective import curvature_pde_of, projective_pde_of
from finslercheck.report import to_json
from finslercheck.sampling import SampleSpec, sample_domain
from finslercheck.symmetry import rotation_fields, scalar_residuals_of, symmetry_tensor_of

SEED = 7
COUNT = 500

CONSTANT_CURVATURES = [
    ("klein", {}, -1.0),
    ("funk", {}, -0.25),
    ("berwald", {}, 0.0),
    ("spherical", {}, 1.0),
    ("bryant", {"alpha": 0.0}, 1.0),
    ("bryant", {"alpha": math.pi / 6}, 1.0),
    ("bryant", {"alpha": 1.2}, 1.0),
]

CLASSIC_FIVE = [
    ("klein", -1.0),
    ("funk", -0.25),
    ("berwald", 0.0),
    ("spherical", 1.0),
    ("bryant", 1.0),
]

ALL_BUILTINS = ["euclidean", "klein", "funk", "berwald", "spherical", "bryant"]

_CACHE = {}


def metric_of(name, params=None):
    params = params or ({"alpha": math.pi / 6} if name == "bryant" else {})
    key = ("metric", name, tuple(sorted(params.items())))
    if key not in _CACHE:
        _CACHE[key] = builtin(name, **params)
    return _CACHE[key]


def samples_of(metric, n=2, count=COUNT):
    key = ("samples", metric.name, tuple(sorted(metric.params.items())), n, count)
    if key not in _CACHE:
        spec = SampleSpec.for_metric(
            n=n, count=count, seed=SEED, domain_radius=metric.domain_radius
        )
        _CACHE[key] = sample_domain(spec)
    return _CACHE[key]


def curved_control():
    return SphericalMetric("curved_control", ClosedFormProfile(lambda r, u, v: u * (1.0 + r * r)))


def report(line):
    print(f"[acceptance] {line}")


def test_criterion_01_curvature_constants():
    for name, params, want in CONSTANT_CURVATURES:
        metric = metric_of(name, params)
        rows = samples_of(metric)
        curvature, _ = run_check("curvature", Run(metric, rows, {"curvature": 1e-6}), {"lambda": want})
        label = f"{name}({params})" if params else name
        assert curvature.passed and curvature.detail["status"] == "constant", label
        assert abs(curvature.detail["lambda_estimate"] - want) <= 1e-6, label
        assert curvature.detail["max_deviation"] <= 1e-6, label
    report("criterion 1 PASS: flag curvature medians and deviations match the constants")


def test_criterion_02_curvature_pde_discrimination():
    for name, want in CLASSIC_FIVE:
        metric = metric_of(name)
        rows = samples_of(metric)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        worst_right = np.max(curvature_pde_of(b, want))
        worst_wrong = np.max(curvature_pde_of(b, want + 0.5))
        assert worst_right <= 1e-8, name
        assert worst_wrong > 1e-3, name
    report("criterion 2 PASS: curvature PDE residuals vanish at the right constant only")


def test_criterion_03_projectivity():
    for name in ALL_BUILTINS:
        metric = metric_of(name)
        rows = samples_of(metric)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        assert b.rapcsak_residuals().max() <= 1e-8, name
        assert np.max(projective_pde_of(b)) <= 1e-8, name
    metric = curved_control()
    rows = samples_of(metric)
    control = ProfileBundle.of(metric, rows.x, rows.y)
    worst = max(control.rapcsak_residuals().max(), np.max(projective_pde_of(control)))
    assert worst > 1e-2
    report("criterion 3 PASS: builtins projective, control metric rejected")


def test_criterion_04_spherical_symmetry():
    for n in (2, 3, 4):
        fields = rotation_fields(n)
        assert len(fields) == n * (n - 1) // 2
        for name in ALL_BUILTINS:
            metric = metric_of(name)
            rows = samples_of(metric, n=n)
            x, y = rows.x, rows.y
            [record] = run_check("symmetry", Run(metric, rows, {"symmetry": 1e-9}), {})
            assert record.passed, (name, n, record.max_residual)
            b = AmbientBundle.of(metric, x, y)
            assert symmetry_tensor_of(b, fields).max() <= 1e-8, (name, n)
    aniso = GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2, name="anisotropic")
    # in two dimensions the only field is the (0, 1) rotation
    b = bundle_of(aniso, np.array([[0.3, 0.2]]), np.array([[1.0, 1.0]]))
    resid = worst_residual(scalar_residuals_of(b, rotation_fields(2)))[0]
    assert resid > 0.1
    # unnormalized value at the documented point is 1/sqrt(3)
    raw = resid * math.sqrt(3.0)  # scale there is |2/sqrt3| + |1/sqrt3| = sqrt(3)
    assert abs(raw - 1.0 / math.sqrt(3.0)) <= 1e-12
    report("criterion 4 PASS: Killing residuals pass builtins and reject the control")


def test_criterion_05_determinant_closed_form():
    for n in (2, 3, 4):
        for name in ALL_BUILTINS:
            metric = metric_of(name)
            rows = samples_of(metric, n=n)
            b = ProfileBundle.of(metric, rows.x, rows.y)
            residuals = relative_residual(b.det_g(), -np.linalg.det(b.g()))
            assert residuals.max() <= 1e-8, (name, n)
    report("criterion 5 PASS: closed-form determinant matches direct determinants")


def test_criterion_06_family_reconstruction():
    spec = ProjectiveFamilySpec(
        f="1/sqrt(1+t)", g="1/(1-r^2)", h="1/(1-r^2)", baseline="abs_corrected"
    )
    family = build_projective_metric(spec)
    funk = metric_of("funk")
    s = samples_of(funk)
    [a] = family.phi_jets(s.r, s.u, s.v, 0)
    [b] = funk.phi_jets(s.r, s.u, s.v, 0)
    assert (abs(a - b) / b).max() <= 1e-10
    spot = family.phi_jet(0.5, 1.0, 0.5, 0).value
    assert abs(spot - (2.0 / 3.0 + 4.0 / 3.0)) <= 1e-10
    report("criterion 6 PASS: integral family reproduces the funk metric pointwise")


def test_criterion_07_geodesic_straightness():
    for name in ("funk", "klein", "bryant"):
        metric = metric_of(name)
        launched = samples_of(metric, count=COUNT)[:20]
        horizons = safe_horizon(metric, launched.x, launched.y, 0.5)
        paths = integrate_geodesics(metric, launched.x, launched.y, horizons, 300)
        worst = 0.0
        for path, x, y in zip(paths, launched.x, launched.y):
            worst = max(worst, straightness_deviation(path, x, y))
        assert worst <= 1e-6, name
    # fourth-order convergence witness on a metric whose geodesics curve
    control = curved_control()
    x0, y0 = np.array([0.3, 0.0]), np.array([0.1, 0.5])

    def endpoint(steps):
        return integrate_geodesic(control, x0, y0, 1.0, steps).points[-1]

    reference = endpoint(320)
    e_coarse = np.linalg.norm(endpoint(20) - reference)
    e_fine = np.linalg.norm(endpoint(40) - reference)
    assert e_coarse > 1e-10
    assert e_coarse / e_fine >= 8.0
    report("criterion 7 PASS: projective geodesics straight; RK4 is 4th order on the control")


# -- criterion 8: AD vs finite differences -------------------------------------

_FD_VARS = ["a", "b", "c"]


def _random_expression(rng, names):
    def node(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.28:
            if rng.random() < 0.45:
                return expr_mod.Const(round(rng.uniform(0.3, 2.5), 3))
            return expr_mod.Var(rng.choice(names))
        if roll < 0.5:
            return expr_mod.BinOp(rng.choice("+-*"), node(depth - 1), node(depth - 1))
        if roll < 0.6:
            return expr_mod.BinOp(
                "/", node(depth - 1), expr_mod.BinOp("+", expr_mod.Call("abs", node(depth - 1)), expr_mod.Const(1.5))
            )
        if roll < 0.72:
            return expr_mod.Pow(
                expr_mod.BinOp("+", expr_mod.Call("abs", node(depth - 1)), expr_mod.Const(1.0)),
                rng.choice([2.0, 3.0, -1.0, 0.5, -0.5]),
            )
        fn = rng.choice(["sin", "cos", "exp", "sqrt", "log"])
        arg = node(depth - 1)
        if fn in ("sqrt", "log"):
            arg = expr_mod.BinOp("+", expr_mod.Call("abs", arg), expr_mod.Const(0.8))
        if fn == "exp":
            arg = expr_mod.BinOp("*", expr_mod.Const(0.25), arg)
        return expr_mod.Call(fn, arg)

    return node(4)


def _jet_at(ast, names, point, order):
    m = len(point)
    bindings = {nm: lift_var(i, point[i], m, order) for i, nm in enumerate(names)}
    return expr_mod.evaluate(ast, bindings)


def test_criterion_08_ad_integrity():
    rng = random.Random(20260808)
    h = 1e-5
    checked = 0
    while checked < 200:
        m = rng.choice([1, 2, 2, 3])
        names = _FD_VARS[:m]
        ast = _random_expression(rng, names)
        point = [rng.uniform(0.4, 1.6) for _ in range(m)]
        try:
            jet = _jet_at(ast, names, point, 3)
            grads, hessians = [], []
            for i in range(m):
                for sign in (+1.0, -1.0):
                    shifted = list(point)
                    shifted[i] += sign * h
                    probe = _jet_at(ast, names, shifted, 2)
                    if sign > 0:
                        grads.append(probe)
                    else:
                        grads[-1] = (grads[-1], probe)
        except (EvalDomainError, OverflowError):
            continue
        ok = True
        for i in range(m):
            up, down = grads[i]
            fd_grad_i = (up.value - down.value) / (2.0 * h)
            ad = jet.partial(i)
            if abs(ad - fd_grad_i) > 1e-5 * max(1.0, abs(fd_grad_i)):
                ok = False
            fd_hess_col = (up.coeffs[1 : 1 + m] - down.coeffs[1 : 1 + m]) / (2.0 * h)
            ad_col = jet.partials(*[range(m)] * 2)[:, i]
            if np.abs(ad_col - fd_hess_col).max() > 1e-5 * max(1.0, np.abs(fd_hess_col).max()):
                ok = False
            fd_third_slice = (up.partials(*[range(m)] * 2) - down.partials(*[range(m)] * 2)) / (2.0 * h)
            ad_slice = jet.partials(*[range(m)] * 3)[:, :, i]
            if np.abs(ad_slice - fd_third_slice).max() > 1e-5 * max(
                1.0, np.abs(fd_third_slice).max()
            ):
                ok = False
        assert ok, expr_mod.serialize(ast)
        checked += 1
    # closed-form fundamental tensor against the AD hessian of (1/2) F^2
    for n in (2, 3, 4):
        for name in ALL_BUILTINS:
            metric = metric_of(name)
            samples = samples_of(metric, n=n, count=100)
            closed = ProfileBundle.of(metric, samples.x, samples.y).g()
            ad = AmbientBundle.of(metric, samples.x, samples.y, 2).g()
            worst = (np.abs(closed - ad).max(axis=(1, 2)) / np.abs(closed).max(axis=(1, 2))).max()
            assert worst <= 1e-9, (name, n)
    report("criterion 8 PASS: jets match finite differences; closed-form g matches AD")


def test_criterion_09_conjecture_probe():
    klein = metric_of("klein")
    records = run_check("conjecture", Run(klein, samples_of(klein)), {})
    detail = records[0].detail
    assert detail["reversible"] is True
    assert detail["constant_curvature"] is True
    assert detail["riemannian"] is True
    assert records[0].passed
    funk = metric_of("funk")
    records_f = run_check("conjecture", Run(funk, samples_of(funk)), {})
    detail_f = records_f[0].detail
    assert detail_f["reversible"] is False
    assert records_f[0].passed
    for d in (detail, detail_f):
        assert "consistent" in d["conclusion"]
        assert "proved" not in d["conclusion"]
    report("criterion 9 PASS: probe reports klein and funk consistent, never 'proved'")


def test_criterion_10_byte_identical_reports(tmp_path):
    config = {
        "metric": {"name": "funk"},
        "dimension": 3,
        "sampling": {"count": 80, "seed": 7},
        "checks": [
            "homogeneity",
            "convexity",
            "symmetry",
            "symmetry_tensor",
            "cartan",
            "rapcsak",
            "projective_pde",
            {"name": "curvature", "params": {"lambda": -0.25}},
            "det_g",
            "fundamental_ad",
            {"name": "geodesics", "params": {"count": 5, "steps": 200}},
            "reversibility",
            "conjecture",
        ],
        "tolerances": {"reversibility": 1e9},
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(config))
    first, code1 = run_config(str(path))
    second, code2 = run_config(str(path))
    assert code1 == 0 and code2 == 0, to_json(first)
    assert to_json(first).encode() == to_json(second).encode()
    report("criterion 10 PASS: identical configs produce byte-identical reports")
