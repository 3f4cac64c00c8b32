import io
import math

import numpy as np
import pytest

from conftest import make_metric, samples_for
from finslercheck.geodesics import (
    GeodesicPath,
    NotStronglyConvexError,
    dump_csv,
    integrate_geodesic,
    safe_horizon,
    spray_general,
    spray_projectivity_residual,
    straightness_deviation,
)
from finslercheck.metrics import ClosedFormProfile, SphericalMetric, builtin
from finslercheck.projective import projective_factor


def curved_control():
    return SphericalMetric("curved_control", ClosedFormProfile(lambda r, u, v: u * (1.0 + r * r)))


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
        p = projective_factor(metric, 0.5, 1.0, 0.0)
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


class TestProjectivityResidual:
    @pytest.mark.parametrize("name", ["klein", "funk", "berwald", "spherical", "bryant"])
    def test_builtins_projective(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=20):
            assert spray_projectivity_residual(metric, s.x, s.y) <= 1e-8

    def test_euclidean_zero(self):
        assert spray_projectivity_residual(builtin("euclidean"), [0.3, 0.2], [1.0, 0.5]) == 0.0

    def test_curved_control_fails(self):
        metric = curved_control()
        worst = max(
            spray_projectivity_residual(metric, s.x, s.y)
            for s in samples_for(metric, n=2, count=20)
        )
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
    calls = []
    original = SphericalMetric.phi_jet

    def counting(self, r, u, v, order=2):
        calls.append(order)
        return original(self, r, u, v, order)

    monkeypatch.setattr(SphericalMetric, "phi_jet", counting)
    for name in ("funk", "klein"):
        calls.clear()
        spray_general(builtin(name), [0.3, -0.2], [0.9, 0.4])
        assert calls == [2]


def test_spray_at_origin_is_finite():
    # x = 0 kills every 1/r term of the bracket with x and v
    g = spray_general(builtin("funk"), [0.0, 0.0], [0.6, 0.8])
    assert np.isfinite(g).all()
    assert np.allclose(g, spray_general(builtin("funk"), [1e-9, 0.0], [0.6, 0.8]), atol=1e-7)
