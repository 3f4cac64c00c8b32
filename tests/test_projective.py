import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import invariants_bundle, make_metric, samples_for
from finslercheck.checks import Run, run_check
from finslercheck.metrics import (
    MIN_RADIUS,
    AmbientBundle,
    ClosedFormProfile,
    ExpressionProfile,
    GeneralMetric,
    ProfileBundle,
    SphericalMetric,
    builtin,
    relative_residual,
)
from finslercheck.projective import (
    curvature_pde_of,
    flag_curvature,
    flag_curvature_of,
    p_of,
    projective_pde_of,
    rapcsak_residual,
)
from finslercheck.sampling import SampleSpec, sample_domain

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

    def test_minimum_radius_forgives_rounding_only(self):
        funk = builtin("funk")
        ulps_short = MIN_RADIUS - 2 * np.spacing(MIN_RADIUS)
        assert rapcsak_residual(funk, [0.0, ulps_short], [1.0, 0.5]).max() <= 1e-8
        with pytest.raises(ValueError, match="need r >= 0.05"):
            rapcsak_residual(funk, [0.0, 0.04], [1.0, 0.5])

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


# phi = u (1 + a r^2) + b v + c v^2/u + d r^2 v + e v^3/u^2: 1-homogeneous, and projective
# only where a = c = e = 0 (then u plus the closed 1-form (b + d r^2) <x,y>)
NON_PROJECTIVE = "{u}*(1 + ({a})*{r}^2) + ({b})*{v} + ({c})*{v}^2/{u} + ({d})*{r}^2*{v} + ({e})*{v}^3/{u}^2"


def non_projective_draw(coefficients, n):
    """One ``NON_PROJECTIVE`` profile on |x| < 1, and the same formula in ``general`` form."""
    c = dict(zip("abcde", map(repr, coefficients)))
    profile = SphericalMetric("draw", ExpressionProfile(NON_PROJECTIVE.format(r="r", u="u", v="v", **c)), 1.0)
    terms = {w: "+".join(f"{w}{i}^2" for i in range(1, n + 1)) for w in "xy"}
    v = "(" + "+".join(f"x{i}*y{i}" for i in range(1, n + 1)) + ")"
    formula = NON_PROJECTIVE.format(r=f"sqrt({terms['x']})", u=f"sqrt({terms['y']})", v=v, **c)
    return profile, GeneralMetric.from_expression(formula, n, "draw", domain_radius=1.0)


@settings(max_examples=20, derandomize=True)
@given(st.tuples(*[st.floats(-0.3, 0.3)] * 5), st.sampled_from([2, 3]))
def test_one_rapcsak_residual_for_a_profile_and_its_general_formula(coefficients, n):
    profile, general = non_projective_draw(coefficients, n)
    samples = sample_domain(SampleSpec.for_metric(n=n, count=30, seed=7, domain_radius=1.0))
    closed = ProfileBundle.of(profile, samples.x, samples.y).rapcsak_residuals()
    ambient = AmbientBundle.of(general, samples.x, samples.y, 2).rapcsak_residuals()
    far = (closed > 1e-6) | (ambient > 1e-6)
    assert (np.abs(closed - ambient)[far] <= 1e-10 * ambient[far]).all()
    [a], [b] = (run_check("rapcsak", Run(m, samples), {}) for m in (profile, general))
    assert (a.passed, a.detail.get("status")) == (b.passed, b.detail.get("status"))


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
                phi_r, phi_u, phi_v = p.coeffs[1:4]
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
            grad = amb.coeffs[1:5]
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
        # P_{x^k} = P P_{y^k} - lambda F F_{y^k}, component by component, with
        # P_x = P_r x/r + P_v y, P_y = P_u y/u + P_v x and F_y = phi_u y/u + phi_v x
        metric = make_metric(name)
        lam = CURVATURE_CONSTANTS[name]
        rows = samples_for(metric, n=2, count=20)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        p, p_r, p_u, p_v = (a[:, None] for a in p_of(b))
        x, y, r, u = b.x, b.y, b.r[:, None], b.u[:, None]
        lam_phi = lam * b.phi[:, None]
        resid = relative_residual(
            p_r * x / r,
            p_v * y,
            -p * (p_u * y / u),
            -p * (p_v * x),
            lam_phi * (b.phi_u[:, None] * y / u),
            lam_phi * (b.phi_v[:, None] * x),
        )
        assert resid.max() <= 1e-9


def curvature_records(metric, count, **params):
    """The curvature and curvature_pde records of the metric's first ``count``
    samples at n = 2 (only the first when the metric is not projective)."""
    return run_check("curvature", Run(metric, samples_for(metric, n=2, count=count)), params)


class TestVerdict:
    """The curvature check's records: status, estimate, deviation and PDE pair."""

    def test_klein_constant_minus_one(self):
        curvature, pde = curvature_records(builtin("klein"), 60)
        assert curvature.passed and curvature.detail["status"] == "constant"
        assert abs(curvature.detail["lambda_estimate"] + 1.0) <= 1e-7
        assert curvature.detail["max_deviation"] <= 1e-7
        assert pde.passed
        assert max(pde.detail["residual_u"], pde.detail["residual_v"]) <= 1e-8

    def test_spherical_constant_plus_one(self):
        curvature, _ = curvature_records(builtin("spherical"), 60)
        assert curvature.detail["status"] == "constant"
        assert abs(curvature.detail["lambda_estimate"] - 1.0) <= 1e-7

    def test_hypothesis_mismatch_fails(self):
        metric = builtin("funk")
        curvature, pde = curvature_records(metric, 30, **{"lambda": 0.0})
        assert not curvature.passed and curvature.detail["status"] == "non_constant"
        assert curvature.detail["lambda_hypothesis"] == 0.0
        # the estimate is -1/4, so the record's residual is its distance from 0
        assert curvature.max_residual == abs(curvature.detail["lambda_estimate"])
        # it names the sample whose lambda lies farthest from the hypothesis
        samples = samples_for(metric, n=2, count=30)
        worst = int(np.abs(flag_curvature_of(ProfileBundle.of(metric, samples.x, samples.y))).argmax())
        assert curvature.worst_x == list(samples[worst].x)
        assert not pde.passed  # the PDE pair is evaluated at the hypothesis

    def test_not_projective_gate(self):
        [curvature] = curvature_records(curved_control(), 10)
        assert not curvature.passed and curvature.detail["status"] == "not_projective"
        assert "lambda_estimate" not in curvature.detail
        assert curvature.detail["projectivity_residual"] > 1e-6
