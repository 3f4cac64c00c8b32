import math

import numpy as np
import pytest

from conftest import make_metric, samples_for
from finslercheck.family import ProjectiveFamilySpec, build_projective_metric
from finslercheck.metrics import (
    AmbientBundle,
    ClosedFormProfile,
    GeneralMetric,
    MetricDomainError,
    MetricSample,
    SphericalMetric,
    builtin,
    builtin_names,
    convexity_report,
    det_g_closed_form,
    first_derivatives,
    fundamental_tensor,
    fundamental_tensor_ad,
    homogeneity_residual,
    invariants_of,
    relative_residual,
    reversibility_residual,
    riemannian_probe,
)
from finslercheck.sampling import SampleSpec, sample_domain


class TestInvariants:
    def test_orthogonal_pair(self):
        assert invariants_of([0.5, 0.0], [0.0, 1.0]) == (0.5, 1.0, 0.0)

    def test_parallel_pair(self):
        assert invariants_of([0.5, 0.0], [1.0, 0.0]) == (0.5, 1.0, 0.5)

    def test_origin(self):
        assert invariants_of([0.0, 0.0], [3.0, 4.0]) == (0.0, 5.0, 0.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(MetricDomainError):
            invariants_of([0.5, 0.0], [0.0, 0.0])

    def test_cauchy_schwarz_clamp(self):
        # colinear with rounding: |v| must never exceed r*u
        x = np.array([0.1234567890123456] * 3)
        y = 7.0 * x
        r, u, v = invariants_of(x, y)
        assert abs(v) <= r * u


class TestEvaluate:
    def test_funk_hand_value(self):
        # (sqrt(1*(1-0.25)+0.25) + 0.5) / 0.75 = (1 + 0.5)/0.75
        assert builtin("funk").evaluate([0.5, 0.0], [1.0, 0.0]) == 2.0

    def test_klein_hand_value(self):
        want = math.sqrt(0.75) / 0.75
        assert abs(builtin("klein").evaluate([0.5, 0.0], [0.0, 1.0]) - want) < 1e-15

    def test_euclidean_norm(self):
        assert builtin("euclidean").evaluate([0.3, -0.1], [3.0, 4.0]) == 5.0

    def test_outside_domain_rejected(self):
        with pytest.raises(MetricDomainError):
            builtin("funk").evaluate([1.2, 0.0], [1.0, 0.0])

    def test_nonpositive_profile_flagged(self):
        bad = SphericalMetric("bad", ClosedFormProfile(lambda r, u, v: u - 2.0 * v * (v / u)))
        with pytest.raises(MetricDomainError):
            bad.evaluate([1.5, 0.0], [1.0, 0.0])  # phi = 1 - 2*1.5^2 < 0


class TestProfileJets:
    def test_funk_phi_u(self):
        p = builtin("funk").phi_jet(0.5, 1.0, 0.5, 2)
        assert p.partial(1) == 1.0  # u / sqrt(u^2(1-r^2) + v^2) = 1/1

    def test_euclidean_derivatives(self):
        p = builtin("euclidean").phi_jet(0.7, 1.3, 0.2, 2)
        assert p.partial(1) == 1.0
        assert np.all(p.hessian() == 0.0)

    def test_klein_even_in_v(self):
        p = builtin("klein").phi_jet(0.5, 1.0, 0.0, 2)
        assert p.partial(2) == 0.0

    def test_u_must_be_positive(self):
        with pytest.raises(MetricDomainError):
            builtin("funk").phi_jet(0.5, 0.0, 0.0, 2)


class TestFundamentalTensor:
    def test_euclidean_identity(self):
        g = fundamental_tensor(builtin("euclidean"), [0.4, 0.1], [1.0, 0.7])
        assert np.abs(g - np.eye(2)).max() < 1e-15

    def test_funk_identity_at_origin(self):
        g = fundamental_tensor(builtin("funk"), [0.0, 0.0], [0.6, 0.8])
        assert np.abs(g - np.eye(2)).max() < 1e-12

    def test_klein_matches_ad(self):
        g = fundamental_tensor(builtin("klein"), [0.5, 0.0], [0.0, 1.0])
        ad = fundamental_tensor_ad(builtin("klein"), [0.5, 0.0], [0.0, 1.0])
        assert np.abs(g - ad).max() < 1e-10

    @pytest.mark.parametrize("name", ["klein", "funk", "berwald", "spherical", "bryant"])
    def test_closed_form_matches_ad_on_samples(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=25):
            closed = fundamental_tensor(metric, s.x, s.y)
            ad = fundamental_tensor_ad(metric, s.x, s.y)
            assert np.abs(closed - ad).max() / np.abs(closed).max() < 1e-9

    @pytest.mark.parametrize("name", ["klein", "funk", "berwald", "spherical", "bryant"])
    def test_energy_reproduced(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=3, count=25):
            g = fundamental_tensor(metric, s.x, s.y)
            f = metric.evaluate(s.x, s.y)
            assert abs(float(s.y @ g @ s.y) - f * f) / (f * f) < 1e-10

    def test_zero_homogeneous_in_y(self):
        metric = builtin("funk")
        g1 = fundamental_tensor(metric, [0.3, 0.2], [0.8, -0.5])
        g2 = fundamental_tensor(metric, [0.3, 0.2], [2.4, -1.5])
        assert np.abs(g1 - g2).max() < 1e-12


class TestDeterminant:
    def test_euclidean_is_one(self):
        assert det_g_closed_form(builtin("euclidean"), [0.4, 0.1], [1.0, 0.7]) == 1.0

    def test_funk_matches_direct_2x2(self):
        metric = builtin("funk")
        closed = det_g_closed_form(metric, [0.5, 0.0], [1.0, 0.0])
        direct = np.linalg.det(fundamental_tensor(metric, [0.5, 0.0], [1.0, 0.0]))
        assert relative_residual(closed, -direct) < 1e-12

    def test_bryant_matches_direct_3d(self):
        metric = make_metric("bryant")
        s = samples_for(metric, n=3, count=5)[3]
        closed = det_g_closed_form(metric, s.x, s.y)
        direct = np.linalg.det(fundamental_tensor(metric, s.x, s.y))
        assert relative_residual(closed, -direct) < 1e-8


class TestConvexity:
    def test_euclidean(self):
        rep = convexity_report(builtin("euclidean"), [0.4, 0.1], [1.0, 0.7])
        assert rep.lemma_ok and rep.direct_pd

    def test_funk_in_ball(self):
        metric = builtin("funk")
        for s in samples_for(metric, n=2, count=30):
            rep = convexity_report(metric, s.x, s.y)
            assert rep.lemma_ok and rep.direct_pd

    def test_indefinite_pseudo_profile(self):
        # phi = u - 2 v^2/u stays positive near v=0 but g turns indefinite
        bad = SphericalMetric("pseudo", ClosedFormProfile(lambda r, u, v: u - 2.0 * v * (v / u)))
        x, y = np.array([1.5, 0.0]), np.array([0.0664, 0.9978])  # v = 0.0996
        rep = convexity_report(bad, x, y)
        assert not rep.direct_pd
        assert not rep.lemma_ok
        # oracle: eigenvalues of g straddle zero
        eig = np.linalg.eigvalsh(fundamental_tensor(bad, x, y))
        assert eig[0] < 0.0 < eig[-1]

    def test_lemma_implies_direct(self):
        for name in builtin_names():
            metric = make_metric(name)
            for s in samples_for(metric, n=2, count=15):
                rep = convexity_report(metric, s.x, s.y)
                assert (not rep.lemma_ok) or rep.direct_pd

    def test_lemma_is_only_sufficient(self):
        # the projective spherical model has phi_vv < 0 everywhere, so the
        # profile criterion fails while g stays positive definite
        metric = builtin("spherical")
        for s in samples_for(metric, n=2, count=15):
            rep = convexity_report(metric, s.x, s.y)
            assert not rep.lemma_ok
            assert rep.direct_pd

    def test_wide_angle_bryant_loses_convexity_far_out(self):
        # observed (and cross-checked against the AD tensor): at alpha=1.2 the
        # metric stays positive but g turns indefinite beyond r ~ 1.4, while
        # alpha=pi/6 is positive definite across the sampled range
        wide = builtin("bryant", alpha=1.2)
        x, y = np.array([1.0, 0.0]), np.array([0.3, 1.0])
        assert convexity_report(wide, 1.2 * x, y).direct_pd
        rep = convexity_report(wide, 1.5 * x, y)
        assert not rep.direct_pd
        eig = np.linalg.eigvalsh(fundamental_tensor_ad(wide, 1.5 * x, y))
        assert eig[0] < 0.0 < eig[-1]
        assert wide.evaluate(1.5 * x, y) > 0.0
        narrow = make_metric("bryant")
        for s in samples_for(narrow, n=3, count=40):
            assert convexity_report(narrow, s.x, s.y).direct_pd


class TestHomogeneity:
    @pytest.mark.parametrize("name", ["euclidean", "klein", "funk", "berwald", "spherical", "bryant"])
    def test_builtins_homogeneous(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=30):
            assert homogeneity_residual(metric, s.r, s.u, s.v) <= 1e-10

    def test_quadratic_profile_fails(self):
        bad = SphericalMetric("usq", ClosedFormProfile(lambda r, u, v: u * u))
        assert homogeneity_residual(bad, 0.5, 2.0, 0.3) >= 1.0

    def test_euclidean_exactly_zero(self):
        assert homogeneity_residual(builtin("euclidean"), 0.5, 2.0, 0.3) == 0.0

    def test_near_orthogonal_sample_stays_clean(self):
        # v ~ 1e-3 once produced a noise ratio ~1e-9 before the identity
        # scales included the generating first-order magnitudes
        got = homogeneity_residual(builtin("funk"), 0.11371, 1.9815, 0.00073)
        assert got <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    @pytest.mark.parametrize("name", ["euclidean", "klein", "funk", "berwald", "spherical", "bryant"])
    def test_metric_scaling_invariance(self, name, lam):
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=20):
            f1 = metric.evaluate(s.x, s.y)
            f2 = metric.evaluate(s.x, lam * s.y)
            assert abs(f2 - lam * f1) / (lam * f1) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_general_metric_scaling_invariance(self, lam):
        from finslercheck.metrics import GeneralMetric

        metric = GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2)
        for s in samples_for(builtin("spherical"), n=2, count=10):
            f1 = metric.evaluate(s.x, s.y)
            f2 = metric.evaluate(s.x, lam * s.y)
            assert abs(f2 - lam * f1) / (lam * f1) <= 1e-12


class TestReversibility:
    def test_klein_even(self):
        assert reversibility_residual(builtin("klein"), 0.5, 1.0, 0.3) <= 1e-12

    def test_funk_hand_value(self):
        # phi(0.5,1,0.5) = 2, phi(0.5,1,-0.5) = (1 - 0.5)/0.75 = 2/3
        got = reversibility_residual(builtin("funk"), 0.5, 1.0, 0.5)
        assert abs(got - 2.0 / 3.0) < 1e-14

    def test_euclidean_zero(self):
        assert reversibility_residual(builtin("euclidean"), 0.5, 1.0, 0.3) == 0.0


class TestRiemannianProbe:
    def _directions(self):
        return [np.array(d) for d in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.7, 0.4])]

    def test_klein_riemannian(self):
        probe = riemannian_probe(builtin("klein"), np.array([0.5, 0.1]), self._directions())
        assert probe.g_deviation <= 1e-9
        assert probe.cartan_max <= 1e-9

    def test_funk_not_riemannian(self):
        probe = riemannian_probe(builtin("funk"), np.array([0.5, 0.1]), self._directions())
        assert probe.g_deviation > 0.01

    def test_euclidean_zero(self):
        probe = riemannian_probe(builtin("euclidean"), np.array([0.5, 0.1]), self._directions())
        assert probe.g_deviation <= 1e-15  # c_yy combines 1/u^2 with u/u^3: rounding only


class TestBuiltins:
    def test_zoo_metadata(self):
        assert builtin_names() == ["berwald", "bryant", "euclidean", "funk", "klein", "spherical"]
        funk = builtin("funk")
        assert funk.domain_radius == 1.0
        assert funk.expected_curvature == -0.25
        expected = {
            "euclidean": (math.inf, 0.0),
            "klein": (1.0, -1.0),
            "berwald": (1.0, 0.0),
            "spherical": (math.inf, 1.0),
        }
        for name, (radius, k) in expected.items():
            m = builtin(name)
            assert (m.domain_radius, m.expected_curvature) == (radius, k)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("fnuk")

    def test_bryant_parameter_range(self):
        with pytest.raises(ValueError):
            builtin("bryant", alpha=2.0)
        with pytest.raises(ValueError):
            builtin("bryant", alpha=-0.1)
        assert builtin("bryant", alpha=1.2).params["alpha"] == 1.2

    def test_bryant_zero_equals_spherical(self):
        bryant0 = builtin("bryant", alpha=0.0)
        spherical = builtin("spherical")
        for s in samples_for(spherical, n=2, count=500):
            a = bryant0.phi_value(s.r, s.u, s.v)
            b = spherical.phi_value(s.r, s.u, s.v)
            assert abs(a - b) / b <= 1e-12


class TestExpressionProfile:
    def test_expression_profile_matches_closed_form(self):
        from finslercheck.metrics import ExpressionProfile

        klein_expr = SphericalMetric(
            "klein_expr", ExpressionProfile("sqrt(u^2*(1-r^2)+v^2)/(1-r^2)"), 1.0
        )
        klein = builtin("klein")
        for s in samples_for(klein, n=2, count=25):
            a = klein_expr.phi_jet(s.r, s.u, s.v, 3)
            b = klein.phi_jet(s.r, s.u, s.v, 3)
            assert np.abs(a.coeffs - b.coeffs).max() <= 1e-11
        assert homogeneity_residual(klein_expr, 0.5, 1.2, -0.3) <= 1e-12

    def test_expression_profile_rejects_unknown_variable(self):
        from finslercheck.expr import UnknownVariableError
        from finslercheck.metrics import ExpressionProfile

        with pytest.raises(UnknownVariableError):
            ExpressionProfile("u + w")


class TestAmbientRoute:
    @pytest.mark.parametrize("name", ["klein", "funk", "spherical", "bryant"])
    def test_first_derivatives_match_ambient(self, name):
        # profile chain rule vs direct 2n-variable differentiation
        metric = make_metric(name)
        for s in samples_for(metric, n=2, count=10):
            f, fx, fy = (a[0] for a in first_derivatives(metric, [MetricSample.of(s.x, s.y)]))
            amb = metric.ambient_jet(s.x, s.y, 1)
            grad = amb.gradient()
            assert abs(f - amb.value) < 1e-12
            assert np.abs(fx - grad[:2]).max() < 1e-10
            assert np.abs(fy - grad[2:]).max() < 1e-10


AMBIENT_CASES = {
    "bryant_n4": (lambda: make_metric("bryant"), 4),
    "funk": (lambda: builtin("funk"), 2),
    # the family's profile takes no general jets: it goes through compose_multivariate
    "family": (
        lambda: build_projective_metric(
            ProjectiveFamilySpec(
                f="1/sqrt(1+t)", g="1/(1-r^2)", h="1/(1-r^2)", baseline="abs_corrected"
            )
        ),
        2,
    ),
    "anisotropic": (lambda: GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2), 2),
}


def _bundle_parts(b):
    return (
        b.f.coeffs.T,
        b.e.coeffs.T,
        *b.first_derivatives(),
        b.f_xy(),
        b.g(),
        b.dg_dx(),
        b.cartan(),
        b.spray_bracket(),
    )


class TestAmbientBundle:
    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_stacked_columns_equal_one_point_bundles(self, case):
        build, n = AMBIENT_CASES[case]
        metric = build()
        spec = SampleSpec.for_metric(n=n, count=4, seed=7, domain_radius=metric.domain_radius)
        samples = sample_domain(spec)
        stacked = _bundle_parts(AmbientBundle.of(metric, samples))
        for k, s in enumerate(samples):
            one = _bundle_parts(AmbientBundle.of(metric, [s]))
            for got, want in zip(stacked, one):
                assert got[k].tobytes() == want[0].tobytes(), (case, k)

    def test_blocks_match_the_energy_jet(self):
        # g, dg/dx and C are the y-blocks of E = F^2, scaled by 1/2, 1/2, 1/4
        metric = make_metric("bryant")
        s = samples_for(metric, n=3, count=1)[0]
        e = metric.ambient_jet(s.x, s.y, 3) * metric.ambient_jet(s.x, s.y, 3)
        b = AmbientBundle.at(metric, s.x, s.y)
        assert np.array_equal(b.g()[0], e.hessian()[3:, 3:] / 2.0)
        assert np.array_equal(b.dg_dx()[0], e.third_tensor()[:3, 3:, 3:] / 2.0)
        assert np.array_equal(b.cartan()[0], e.third_tensor()[3:, 3:, 3:] / 4.0)
        bracket = e.hessian()[:3, 3:].T @ s.y - e.gradient()[:3]
        assert np.allclose(b.spray_bracket()[0], bracket, rtol=1e-14, atol=1e-14)
