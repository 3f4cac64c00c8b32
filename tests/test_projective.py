import numpy as np
import pytest

from conftest import invariants_bundle, make_metric, samples_for
from finslercheck.metrics import ClosedFormProfile, ProfileBundle, SphericalMetric, builtin
from finslercheck.projective import (
    constant_curvature_verdict,
    curvature_components_of,
    curvature_pde_of,
    flag_curvature,
    p_of,
    projective_pde_of,
    rapcsak_residual,
)

CURVATURE_CONSTANTS = {
    "klein": -1.0,
    "funk": -0.25,
    "berwald": 0.0,
    "spherical": 1.0,
    "bryant": 1.0,
}


def pde_pair(b, lam=None):
    """The first sample's projectivity PDE pair, or its curvature PDE pair at lam."""
    rho1, rho2 = projective_pde_of(b) if lam is None else curvature_pde_of(b, lam)
    return float(rho1[0]), float(rho2[0])


def curved_control():
    """phi = u (1 + r^2): strongly convex but not projective."""
    return SphericalMetric("curved_control", ClosedFormProfile(lambda r, u, v: u * (1.0 + r * r)))


class TestRapcsak:
    def test_euclidean_zero_vector(self):
        got = rapcsak_residual(builtin("euclidean"), [0.3, 0.2], [1.0, 0.5])
        assert np.all(got == 0.0)

    @pytest.mark.parametrize("name", list(CURVATURE_CONSTANTS))
    def test_classic_builtins_projective(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=40):
            assert rapcsak_residual(metric, s.x, s.y).max() <= 1e-8

    def test_curved_control_fails(self):
        metric = curved_control()
        worst = max(
            rapcsak_residual(metric, s.x, s.y).max()
            for s in samples_for(metric, n=2, count=40)
        )
        assert worst > 1e-2

    def test_minimum_radius_enforced(self):
        with pytest.raises(ValueError):
            rapcsak_residual(builtin("funk"), [0.01, 0.0], [1.0, 0.5])

    def test_general_metric_route_agrees(self):
        # same metric through the profile chain rule and the ambient jets
        from finslercheck.metrics import GeneralMetric

        spherical_expr = "sqrt((y1^2 + y2^2)*(1 + x1^2 + x2^2) - (x1*y1 + x2*y2)^2)/(1 + x1^2 + x2^2)"
        general = GeneralMetric.from_expression(spherical_expr, 2, name="spherical_general")
        profile = builtin("spherical")
        for s in samples_for(profile, n=2, count=10):
            a = rapcsak_residual(profile, s.x, s.y)
            b = rapcsak_residual(general, s.x, s.y)
            assert a.max() <= 1e-9 and b.max() <= 1e-9


class TestProjectivePDEs:
    def test_funk_point(self):
        rho1, rho2 = pde_pair(invariants_bundle(builtin("funk"), 0.5, 1.0, 0.5))
        assert rho1 <= 1e-10 and rho2 <= 1e-10

    def test_euclidean_zero(self):
        b = invariants_bundle(builtin("euclidean"), 0.5, 1.0, 0.3)
        assert pde_pair(b) == (0.0, 0.0)

    def test_curved_control_tangential_residual(self):
        # phi_uv u + phi_ru v/(ru) = 2v/u against scale 2v/u: ratio 1
        rho1, rho2 = pde_pair(invariants_bundle(curved_control(), 0.5, 1.0, 0.3))
        assert rho2 > 0.1

    def test_equivalent_to_rapcsak_on_profiles(self):
        for name in list(CURVATURE_CONSTANTS) + ["euclidean"]:
            metric = make_metric(name)
            samples = samples_for(metric, n=2, count=15)
            pdes = np.maximum(*projective_pde_of(ProfileBundle.of(metric, samples.x, samples.y)))
            for s, pde in zip(samples, pdes):
                rap = rapcsak_residual(metric, s.x, s.y).max()
                assert (rap <= 1e-8) == (pde <= 1e-8)

    def test_homogeneity_identities_away_from_v_zero(self):
        # for any 1-homogeneous profile: phi_rv = (phi_r - u phi_ru)/v and
        # phi_vv = -u phi_uv / v
        for name in list(CURVATURE_CONSTANTS):
            metric = make_metric(name)
            for s in samples_for(metric, n=2, count=25):
                if abs(s.v) < 1e-6:
                    continue
                p = metric.phi_jet(s.r, s.u, s.v, 2)
                phi_r, phi_u, phi_v = p.gradient()
                lhs1 = p.partial(0, 2)
                rhs1 = (phi_r - s.u * p.partial(0, 1)) / s.v
                scale1 = abs(lhs1) + abs(rhs1) + 1e-30
                assert abs(lhs1 - rhs1) / scale1 <= 1e-9 or abs(lhs1 - rhs1) <= 1e-12
                lhs2 = p.partial(2, 2)
                rhs2 = -s.u * p.partial(1, 2) / s.v
                scale2 = abs(lhs2) + abs(rhs2) + 1e-30
                assert abs(lhs2 - rhs2) / scale2 <= 1e-9 or abs(lhs2 - rhs2) <= 1e-12


def factor(metric, r, u, v):
    """P = (v phi_r / r + u^2 phi_v) / (2 phi) at (r, u, v)."""
    return float(p_of(invariants_bundle(metric, r, u, v))[0][0])


class TestProjectiveFactor:
    def test_funk_half_f(self):
        # Funk satisfies F_x = F F_y, so P = F/2 = 1 at this point
        assert abs(factor(builtin("funk"), 0.5, 1.0, 0.5) - 1.0) < 1e-14

    def test_euclidean_zero(self):
        assert factor(builtin("euclidean"), 0.5, 1.0, 0.3) == 0.0

    def test_klein_odd_in_v(self):
        assert factor(builtin("klein"), 0.5, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("name", list(CURVATURE_CONSTANTS))
    def test_matches_ambient_contraction(self, name):
        # oracle: P = F_{x^k} y^k / (2F) evaluated by ambient differentiation
        metric = make_metric(name)
        samples = samples_for(metric, n=2, count=15)
        for s, p in zip(samples, p_of(ProfileBundle.of(metric, samples.x, samples.y))[0]):
            amb = metric.ambient_jet(s.x, s.y, 1)
            grad = amb.gradient()
            oracle = float(grad[:2] @ s.y) / (2.0 * amb.value)
            assert abs(p - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_one_homogeneous_in_uv(self):
        metric = builtin("funk")
        p1 = factor(metric, 0.5, 1.0, 0.4)
        p2 = factor(metric, 0.5, 2.0, 0.8)
        assert abs(p2 - 2.0 * p1) < 1e-12


class TestCurvaturePDEs:
    def test_funk_at_quarter(self):
        c_u, c_v = pde_pair(invariants_bundle(builtin("funk"), 0.5, 1.0, 0.5), -0.25)
        assert c_u <= 1e-8 and c_v <= 1e-8

    def test_klein_minus_one_and_wrong_lambda(self):
        b = invariants_bundle(builtin("klein"), 0.5, 1.0, 0.3)
        c_u, c_v = pde_pair(b, -1.0)
        assert c_u <= 1e-8 and c_v <= 1e-8
        c_u, _ = pde_pair(b, 0.0)
        assert c_u > 1e-3

    def test_euclidean_zero(self):
        b = invariants_bundle(builtin("euclidean"), 0.5, 1.0, 0.3)
        assert pde_pair(b, 0.0) == (0.0, 0.0)


class TestFlagCurvature:
    def test_funk_hand_value(self):
        # P = 1, P_x.y = F^2/2 = 2, F = 2: lambda = (1 - 2)/4
        assert abs(flag_curvature(builtin("funk"), 0.5, 1.0, 0.5) + 0.25) < 1e-12

    @pytest.mark.parametrize("name", list(CURVATURE_CONSTANTS))
    def test_constants_on_samples(self, name):
        metric = make_metric(name)
        want = CURVATURE_CONSTANTS[name]
        for s in samples_for(metric, n=2, count=60):
            assert abs(flag_curvature(metric, s.r, s.u, s.v) - want) <= 1e-7

    def test_zero_homogeneous_in_y(self):
        metric = builtin("funk")
        a = flag_curvature(metric, 0.5, 1.0, 0.4)
        b = flag_curvature(metric, 0.5, 2.0, 0.8)
        assert abs(a - b) <= 1e-9

    @pytest.mark.parametrize("name", list(CURVATURE_CONSTANTS))
    def test_component_equation_cross_check(self, name):
        metric = make_metric(name)
        want = CURVATURE_CONSTANTS[name]
        rows = samples_for(metric, n=2, count=20)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        for resid in curvature_components_of(b, want):
            assert resid.max() <= 1e-9


def bundle(metric, count):
    """The profile bundle of the metric's first ``count`` samples at n = 2."""
    rows = samples_for(metric, n=2, count=count)
    return ProfileBundle.of(metric, rows.x, rows.y)


class TestVerdict:
    def test_klein_constant_minus_one(self):
        metric = builtin("klein")
        verdict = constant_curvature_verdict(bundle(metric, 60))
        assert verdict.status == "constant"
        assert abs(verdict.lambda_estimate + 1.0) <= 1e-7
        assert verdict.max_deviation <= 1e-7
        assert max(verdict.pde_residuals) <= 1e-8

    def test_spherical_constant_plus_one(self):
        metric = builtin("spherical")
        verdict = constant_curvature_verdict(bundle(metric, 60))
        assert verdict.status == "constant"
        assert abs(verdict.lambda_estimate - 1.0) <= 1e-7

    def test_hypothesis_mismatch_fails(self):
        metric = builtin("funk")
        verdict = constant_curvature_verdict(bundle(metric, 30), lambda_hypothesis=0.0)
        assert verdict.status == "non_constant"
        assert 0 <= verdict.worst_index < 30

    def test_not_projective_gate(self):
        metric = curved_control()
        verdict = constant_curvature_verdict(bundle(metric, 10))
        assert verdict.status == "not_projective"
        assert verdict.lambda_estimate is None
        assert verdict.projectivity_residual > 1e-6
