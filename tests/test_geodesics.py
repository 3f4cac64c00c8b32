import io
import math

import numpy as np
import pytest

from conftest import make_metric, samples_for
from finslercheck.expr import EvalDomainError
from finslercheck.family import FamilyError
from finslercheck.geodesics import (
    GeodesicPath,
    dump_csv,
    integrate_geodesic,
    integrate_geodesics,
    safe_horizon,
    spray_general,
    straightness_deviation,
)
from finslercheck.jets import JetDomainError
from finslercheck.metrics import (
    AmbientBundle,
    ClosedFormProfile,
    GeneralMetric,
    MetricDomainError,
    MetricSample,
    NotStronglyConvexError,
    ProfileBundle,
    SphericalMetric,
    builtin,
    bundle_of,
    positive_definite,
)


def curved_control():
    return SphericalMetric("curved_control", ClosedFormProfile(lambda r, u, v: u * (1.0 + r * r)))


def p_of_samples(metric, samples):
    """P = F_{x^k} y^k / (2F) at each sample, from one bundle of the samples."""
    f, fx, _ = bundle_of(metric, samples.x, samples.y).first_derivatives()
    return np.vecdot(fx, samples.y) / (2.0 * f)


def spray_projectivity(metric, samples):
    """Relative size of G - P y at each sample, the non-projective part of the spray."""
    out = []
    for s, p in zip(samples, p_of_samples(metric, samples)):
        g, py = spray_general(metric, s.x, s.y), p * s.y
        scale = float(np.linalg.norm(g) + np.linalg.norm(py))
        out.append(0.0 if scale == 0.0 else float(np.linalg.norm(g - py)) / scale)
    return out


class TestSpray:
    def test_euclidean_zero(self):
        assert np.all(spray_general(builtin("euclidean"), [0.3, 0.2], [1.0, 0.5]) == 0.0)

    def test_funk_projective_point(self):
        # P = 1 there, so G = P y = (1, 0)
        g = spray_general(builtin("funk"), [0.5, 0.0], [1.0, 0.0])
        assert np.abs(g - [1.0, 0.0]).max() < 1e-12

    def test_klein_parallel_to_velocity(self):
        metric = builtin("klein")
        x, y = np.array([0.5, 0.0]), np.array([0.0, 1.0])
        g = spray_general(metric, x, y)
        [p] = p_of_samples(metric, MetricSample.of([x], [y]))
        assert np.abs(g - p * y).max() <= 1e-8

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_two_homogeneous(self, lam):
        metric = builtin("funk")
        for s in samples_for(metric, n=2, count=10):
            g1 = spray_general(metric, s.x, s.y)
            g2 = spray_general(metric, s.x, lam * s.y)
            scale = np.abs(g2).max() + 1e-30
            assert np.abs(g2 - lam * lam * g1).max() / scale <= 1e-9

    def test_general_metric_route(self):
        from finslercheck.metrics import GeneralMetric

        funk_expr = (
            "(sqrt((y1^2 + y2^2)*(1 - x1^2 - x2^2) + (x1*y1 + x2*y2)^2)"
            " + x1*y1 + x2*y2)/(1 - x1^2 - x2^2)"
        )
        general = GeneralMetric.from_expression(funk_expr, 2, name="funk_general", domain_radius=1.0)
        profile = builtin("funk")
        for s in samples_for(profile, n=2, count=8):
            a = spray_general(general, s.x, s.y)
            b = spray_general(profile, s.x, s.y)
            assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(b).max())

    def test_not_strongly_convex_error(self):
        bad = SphericalMetric("pseudo", ClosedFormProfile(lambda r, u, v: u - 2.0 * v * (v / u)))
        with pytest.raises(NotStronglyConvexError):
            spray_general(bad, [1.5, 0.0], [0.0664, 0.9978])

    @pytest.mark.parametrize("n", [2, 3])
    def test_phi_u_decides_convexity_from_dimension_three(self, n):
        # phi = u + v^2/u at x = (2, 0, ...), y = (0.55, sqrt(1 - 0.55^2), 0, ...):
        # phi > 0 and phi_u + t phi_vv / u = 5.37 > 0, but phi_u = -0.21.  In the
        # plane g is positive definite; from n = 3 on, g = (phi phi_u / u) I on the
        # directions orthogonal to x and y, so it is not
        metric = SphericalMetric("wide", ClosedFormProfile(lambda r, u, v: u + v * (v / u)))
        x, y = np.zeros(n), np.zeros(n)
        x[0], y[:2] = 2.0, [0.55, math.sqrt(1.0 - 0.55**2)]
        b = ProfileBundle.of(metric, x[None], y[None])
        assert b.phi_u[0] == pytest.approx(-0.21)
        assert positive_definite(b.g()[0]) == (n == 2)
        if n == 2:
            assert np.isfinite(spray_general(metric, x, y)).all()
        else:
            with pytest.raises(NotStronglyConvexError, match="not strongly convex at x="):
                spray_general(metric, x, y)


class TestProjectivityResidual:
    @pytest.mark.parametrize("name", ["klein", "funk", "berwald", "spherical", "bryant"])
    def test_builtins_projective(self, name):
        metric = make_metric(name)
        for got in spray_projectivity(metric, samples_for(metric, n=2, count=20)):
            assert got <= 1e-8

    def test_euclidean_zero(self):
        sample = MetricSample.of([[0.3, 0.2]], [[1.0, 0.5]])
        assert spray_projectivity(builtin("euclidean"), sample) == [0.0]

    def test_curved_control_fails(self):
        metric = curved_control()
        worst = max(spray_projectivity(metric, samples_for(metric, n=2, count=20)))
        assert worst > 1e-3


class TestIntegration:
    def test_euclidean_exact_uniform_motion(self):
        path = integrate_geodesic(builtin("euclidean"), [0.1, -0.2], [0.4, 0.3], 1.0, 50)
        want = np.array([0.1, -0.2]) + np.outer(path.times, [0.4, 0.3])
        assert np.abs(path.points - want).max() < 1e-14
        assert np.abs(path.velocities - [0.4, 0.3]).max() < 1e-14

    def test_funk_straightness(self):
        path = integrate_geodesic(builtin("funk"), [0.1, 0.2], [0.6, -0.3], 0.5, 2000)
        assert path.exit_time is None
        assert straightness_deviation(path, [0.1, 0.2], [0.6, -0.3]) <= 1e-6

    def test_bryant_3d_straightness(self):
        metric = make_metric("bryant")
        x0, y0 = [0.2, 0.1, -0.3], [0.5, 0.4, 0.2]
        path = integrate_geodesic(metric, x0, y0, 0.5, 400)
        assert straightness_deviation(path, x0, y0) <= 1e-6

    @pytest.mark.parametrize("name", ["euclidean", "klein", "berwald", "spherical"])
    def test_every_builtin_straight(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=5, seed=11):
            horizon = safe_horizon(metric, s.x, s.y, 0.5)
            path = integrate_geodesic(metric, s.x, s.y, horizon, 250)
            assert straightness_deviation(path, s.x, s.y) <= 1e-6

    def test_domain_exit_partial_path(self):
        # flat profile on the unit ball: uniform motion hits the boundary at
        # t = 0.2 and the integrator must halt with the partial path
        bounded = SphericalMetric("flat_ball", ClosedFormProfile(lambda r, u, v: u + 0.0), 1.0)
        path = integrate_geodesic(bounded, [0.8, 0.0], [1.0, 0.0], 2.0, 200)
        assert path.exit_time is not None
        assert path.exit_time == pytest.approx(0.19, abs=0.011)
        assert len(path.times) < 201
        assert np.linalg.norm(path.points[-1]) < 1.0

    def test_formula_domain_error_halts_path(self):
        # sqrt(1 - x1) has no value from x1 = 1 on: the general metric's path
        # halts there like one that leaves the domain
        metric = GeneralMetric.from_expression("sqrt(y1^2 + y2^2)*sqrt(1 - x1)", 2)
        path = integrate_geodesic(metric, [0.8, 0.0], [1.0, 0.0], 2.0, 200)
        assert path.exit_time is not None
        assert len(path.times) < 201
        assert path.points[-1][0] < 1.0

    def test_forward_complete_metric_never_exits(self):
        # funk geodesics decelerate toward the boundary instead of crossing it
        path = integrate_geodesic(builtin("funk"), [0.8, 0.0], [1.0, 0.0], 2.0, 200)
        assert path.exit_time is None
        assert np.linalg.norm(path.points[-1]) < 1.0

    def test_fourth_order_convergence_on_curved_control(self):
        # endpoint error against an 8x reference must drop ~16x per halving
        metric = curved_control()
        x0, y0 = np.array([0.3, 0.0]), np.array([0.1, 0.5])
        horizon = 1.0

        def endpoint(steps):
            return integrate_geodesic(metric, x0, y0, horizon, steps).points[-1]

        reference = endpoint(320)
        e1 = np.linalg.norm(endpoint(20) - reference)
        e2 = np.linalg.norm(endpoint(40) - reference)
        assert e1 > 1e-10
        assert e1 / e2 >= 8.0


class TestStraightness:
    def test_exact_line_zero(self):
        times = np.linspace(0.0, 1.0, 20)
        points = np.array([[0.1 + 2.0 * t, -0.3 + 0.5 * t] for t in times])
        velocities = np.tile([2.0, 0.5], (20, 1))
        path = GeodesicPath(times, points, velocities)
        assert straightness_deviation(path, [0.1, -0.3], [2.0, 0.5]) <= 1e-15

    def test_quarter_circle_sagitta(self):
        # arc from (1,0) to (0,1) against its chord: max distance 1 - sqrt(2)/2,
        # arc length pi/2
        theta = np.linspace(0.0, math.pi / 2.0, 2001)
        points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        path = GeodesicPath(theta, points, np.zeros_like(points))
        got = straightness_deviation(path, [1.0, 0.0], [-1.0, 1.0])
        want = (1.0 - math.sqrt(2.0) / 2.0) / (math.pi / 2.0)
        assert abs(got - want) < 1e-6


class TestSafeHorizon:
    def test_chord_stays_inside_cap(self):
        metric = builtin("funk")
        x0, y0 = np.array([0.5, 0.3]), np.array([1.0, 0.2])
        h = safe_horizon(metric, x0, y0, 10.0)
        assert h < 10.0
        end = x0 + h * y0
        assert abs(np.linalg.norm(end) - 0.95) < 1e-12

    def test_unbounded_domain_passthrough(self):
        assert safe_horizon(builtin("spherical"), [0.5, 0.3], [1.0, 0.2], 10.0) == 10.0

    def test_requested_shorter_wins(self):
        metric = builtin("funk")
        assert safe_horizon(metric, [0.1, 0.0], [1.0, 0.0], 0.2) == 0.2

    @pytest.mark.parametrize("name", ["funk", "spherical"])
    def test_zero_direction_is_a_domain_error(self, name):
        # the chord's quadratic has leading coefficient |y|^2: y = 0 is refused as
        # invariant_rows refuses it, on bounded and unbounded domains alike
        with pytest.raises(MetricDomainError, match="y must be nonzero") as err:
            safe_horizon(builtin(name), [0.1, 0.2], [0.0, 0.0], 0.5)
        assert err.value.index == 0

    @pytest.mark.parametrize("name", ["funk", "spherical"])
    def test_rows_are_each_rows_horizon_bit_for_bit(self, name):
        # one vectorised quadratic over the rows; each row is the one-start horizon
        # and the one-start quadratic in Python floats, the reference
        metric = builtin(name)
        samples = samples_for(metric, n=3, count=20)
        horizons = safe_horizon(metric, samples.x, samples.y, 0.5)
        alone = [safe_horizon(metric, x, y, 0.5) for x, y in zip(samples.x, samples.y)]
        assert horizons.tobytes() == np.array(alone).tobytes()
        assert all(type(h) is float for h in alone)
        limit = 0.95 * metric.domain_radius
        for x, y, h in zip(samples.x, samples.y, alone):
            a, b, c = float(y @ y), 2.0 * float(x @ y), float(x @ x) - limit * limit
            assert h == (0.5 if math.isinf(limit) else min(0.5, (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)))

    def test_rows_name_their_lowest_failing_row(self):
        # row 1 starts past the cap, row 2 has y = 0: the error is row 1's
        x0 = [[0.1, 0.2], [0.96, 0.0], [0.1, 0.0], [0.99, 0.0]]
        y0 = [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(MetricDomainError, match="start point already at") as err:
            safe_horizon(builtin("funk"), x0, y0, 0.5)
        assert err.value.index == 1
        with pytest.raises(MetricDomainError, match="y must be nonzero") as err:
            safe_horizon(builtin("funk"), x0[2:], y0[2:], 0.5)
        assert err.value.index == 0

    @pytest.mark.parametrize("requested", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    @pytest.mark.parametrize("name", ["funk", "spherical"])
    def test_requested_must_be_finite_and_positive(self, name, requested):
        with pytest.raises(ValueError, match="requested horizon must be finite and > 0"):
            safe_horizon(builtin(name), [0.1, 0.2], [1.0, 0.0], requested)


class TestCsvDump:
    def test_format_and_precision(self):
        path = integrate_geodesic(builtin("euclidean"), [0.1, -0.2], [0.4, 0.3], 0.5, 4)
        buf = io.StringIO()
        dump_csv(path, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,y1,y2"
        assert len(lines) == 6
        row = lines[2].split(",")
        assert len(row) == 5
        # 17 significant digits round-trip
        assert float(row[1]) == path.points[1][0]
        third = 0.1 + 2 * 0.125 * 0.4
        assert float(lines[3].split(",")[1]) == pytest.approx(third, abs=1e-16)


def test_spray_evaluates_one_profile_jet(monkeypatch):
    # one one-row order-2 ``phi_jets`` call
    calls = []
    original = SphericalMetric.phi_jets

    def counting(self, r, u, v, order=2):
        calls.append((len(r), order))
        return original(self, r, u, v, order)

    monkeypatch.setattr(SphericalMetric, "phi_jets", counting)
    for name in ("funk", "klein"):
        calls.clear()
        spray_general(builtin(name), [0.3, -0.2], [0.9, 0.4])
        assert calls == [(1, 2)]


def test_spray_at_origin_is_finite():
    # x = 0 kills every 1/r term of the bracket with x and v
    g = spray_general(builtin("funk"), [0.0, 0.0], [0.6, 0.8])
    assert np.isfinite(g).all()
    assert np.allclose(g, spray_general(builtin("funk"), [1e-9, 0.0], [0.6, 0.8]), atol=1e-7)


# -- batched integration ----------------------------------------------------------


def one_path_rk4(metric, x0, y0, horizon, steps):
    """The one-path RK4 loop that integrated each geodesic before paths were
    batched: the spray of a one-row bundle per stage.  Returns the path and why
    it stopped (None when it ran all steps)."""

    def rhs(xc, yc):
        return yc, -2.0 * bundle_of(metric, xc[None], yc[None]).spray()[0]

    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    h = horizon / steps
    times, points, velocities = [0.0], [x.copy()], [y.copy()]

    def partial(why, text):
        path = GeodesicPath(np.array(times), np.array(points), np.array(velocities), times[-1], text)
        return path, why

    for k in range(steps):
        try:
            k1x, k1y = rhs(x, y)
            k2x, k2y = rhs(x + 0.5 * h * k1x, y + 0.5 * h * k1y)
            k3x, k3y = rhs(x + 0.5 * h * k2x, y + 0.5 * h * k2y)
            k4x, k4y = rhs(x + h * k3x, y + h * k3y)
        except NotStronglyConvexError as err:
            return partial("not strongly convex", str(err))
        except (JetDomainError, MetricDomainError, EvalDomainError, FamilyError) as err:
            return partial("evaluation", str(err))
        x = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        if not float(np.linalg.norm(x)) < metric.domain_radius:
            return partial("left the domain", f"left the domain (|x| >= {metric.domain_radius})")
        times.append((k + 1) * h)
        points.append(x.copy())
        velocities.append(y.copy())
    return GeodesicPath(np.array(times), np.array(points), np.array(velocities)), None


def assert_same_bits(got, want):
    for field in ("times", "points", "velocities"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert got.exit_time == want.exit_time
    assert type(got.exit_time) is type(want.exit_time)
    assert got.stop_reason == want.stop_reason


def check_batch(metric, x0, y0, horizons, steps):
    """Integrate the starts (rows of x0 and y0) as one batch and as one-path
    loops; the paths must agree bit for bit.  Returns the one-path loops' stop
    reasons."""
    paths = integrate_geodesics(metric, x0, y0, horizons, steps)
    assert len(paths) == len(x0)
    reasons = []
    for path, x, y, horizon in zip(paths, x0, y0, np.asarray(horizons).tolist()):
        want, why = one_path_rk4(metric, x, y, horizon, steps)
        assert_same_bits(path, want)
        reasons.append(why)
    return reasons


class TestBatchedIntegration:
    def test_paths_leave_one_at_a_time_bit_for_bit(self):
        # F = |y| - <x,y>^2/|y| is strongly convex only near the origin, and the
        # domain is cut at |x| = 0.9: the middle paths stop early, each for its reason
        metric = GeneralMetric.from_expression(
            "sqrt(y1^2 + y2^2) - (x1*y1 + x2*y2)^2/sqrt(y1^2 + y2^2)", 2, domain_radius=0.9
        )
        x0 = [[0.1, 0.2], [0.6, 0.0], [0.4, 0.0], [-0.2, 0.1]]
        y0 = [[0.2, 0.1], [0.3, 1.0], [1.0, 0.1], [-0.1, 0.3]]
        reasons = check_batch(metric, x0, y0, [1.0, 1.0, 1.0, 0.8], 20)
        assert reasons == [None, "left the domain", "not strongly convex", None]

    def test_profile_paths_leave_one_at_a_time_bit_for_bit(self):
        # the profile form of the same metric, on a wider domain: two middle
        # paths lose strong convexity at different steps
        metric = SphericalMetric("pseudo", ClosedFormProfile(lambda r, u, v: u - v * (v / u)), 2.0)
        x0 = [[0.1, 0.2], [0.4, 0.0], [0.0, 0.5], [-0.2, 0.1]]
        y0 = [[0.2, 0.1], [1.0, 0.1], [0.05, 2.0], [-0.1, 0.3]]
        reasons = check_batch(metric, x0, y0, [1.0, 1.0, 1.0, 0.8], 20)
        assert reasons == [None, "not strongly convex", "not strongly convex", None]

    def test_evaluation_failure_stops_only_its_path(self):
        # sqrt(1 - x1) has no value from x1 = 1 on
        metric = GeneralMetric.from_expression("sqrt(y1^2 + y2^2)*sqrt(1 - x1)", 2)
        x0, y0 = [[0.0, 0.1], [0.8, 0.0], [-0.5, 0.0]], [[0.1, 0.2], [1.0, 0.0], [0.2, -0.3]]
        reasons = check_batch(metric, x0, y0, [1.0, 2.0, 1.0], 50)
        assert reasons == [None, "evaluation", None]

    def test_failing_path_leaves_the_others_in_one_batch(self, monkeypatch):
        # path 1 leaves sqrt(1 - x1)'s domain mid-run: the other three take that step
        # again as one batch, and every later one; no path is stepped alone
        widths = []
        original = AmbientBundle.spray

        def counting(self):
            widths.append(len(self.x))
            return original(self)

        monkeypatch.setattr(AmbientBundle, "spray", counting)
        metric = GeneralMetric.from_expression("sqrt(y1^2 + y2^2)*sqrt(1 - x1)", 2)
        x0 = [[0.0, 0.1], [0.8, 0.0], [-0.5, 0.0], [0.1, -0.2]]
        y0 = [[0.1, 0.2], [1.0, 0.0], [0.2, -0.3], [-0.2, 0.1]]
        paths = integrate_geodesics(metric, x0, y0, [1.0, 2.0, 1.0, 1.0], 50)
        completed = [len(p.times) - 1 for p in paths]
        stop = completed[1]
        assert 0 < stop < 50 and completed[:1] + completed[2:] == [50] * 3
        # the failing step's stages before the one that raised ran at width 4
        assert widths == [4] * (len(widths) - 4 * (50 - stop)) + [3] * 4 * (50 - stop)
        assert 4 * stop <= widths.count(4) < 4 * (stop + 1)

    @pytest.mark.parametrize("name,n", [("funk", 2), ("klein", 3), ("bryant", 3), ("spherical", 2)])
    def test_builtin_batches_bit_for_bit(self, name, n):
        metric = make_metric(name)
        samples = samples_for(metric, n=n, count=6, seed=3)
        horizons = safe_horizon(metric, samples.x, samples.y, 0.5)
        reasons = check_batch(metric, samples.x, samples.y, horizons, 30)
        assert reasons == [None] * len(samples)

    def test_general_metric_batch_bit_for_bit(self):
        funk_expr = (
            "(sqrt((y1^2 + y2^2)*(1 - x1^2 - x2^2) + (x1*y1 + x2*y2)^2)"
            " + x1*y1 + x2*y2)/(1 - x1^2 - x2^2)"
        )
        metric = GeneralMetric.from_expression(funk_expr, 2, name="funk_general", domain_radius=1.0)
        samples = samples_for(builtin("funk"), n=2, count=4, seed=5)
        horizons = safe_horizon(metric, samples.x, samples.y, 0.5)
        check_batch(metric, samples.x, samples.y, horizons, 20)

    def test_one_spray_per_stage_for_all_paths(self, monkeypatch):
        calls = []
        funk = builtin("funk")

        def phi(r, u, v):
            calls.append(r.coeffs.shape)
            return funk.profile.fn(r, u, v)

        counted = SphericalMetric("funk", ClosedFormProfile(phi), 1.0)
        samples = samples_for(funk, n=2, count=5)
        integrate_geodesics(counted, samples.x, samples.y, [0.1] * 5, 3)
        # three steps of four stages, each one profile call over all five paths
        assert calls == [(10, 5)] * 12


def test_profile_stage_builds_no_g_and_runs_no_cholesky(monkeypatch):
    # a profile metric's stage spray is closed-form: no fundamental tensor, no factorisation
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ProfileBundle, "g", counting("g", ProfileBundle.g))
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    funk = builtin("funk")
    samples = samples_for(funk, n=2, count=4)
    paths = integrate_geodesics(funk, samples.x, samples.y, [0.1] * 4, 5)
    assert [len(p.times) for p in paths] == [6] * 4
    assert calls == []
    # the counters see the calls a general metric's stage makes
    spray_general(GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2), [0.1, 0.2], [1.0, 0.5])
    assert calls == ["cholesky"]
