import math

import numpy as np
import pytest

from conftest import samples_for
from finslercheck.family import (
    FamilyError,
    ProjectiveFamilySpec,
    QuadratureError,
    build_projective_metric,
    integral_jet,
)
from finslercheck.jets import JetDomainError
from finslercheck.metrics import builtin, homogeneity_residual
from finslercheck.projective import constant_curvature_verdict, projective_pde_residuals

FUNK_SPEC = ProjectiveFamilySpec(
    f="1/sqrt(1+t)", g="1/(1-r^2)", h="1/(1-r^2)", baseline="abs_corrected"
)


def funk_integral_oracle(r, u, v):
    """Closed-form antiderivative of the funk integrand:
    integral_0^u t/sqrt(t^2 (1-r^2) + v^2) dt = (sqrt(u^2(1-r^2)+v^2) - |v|)/(1-r^2)."""
    one = 1.0 - r * r
    return (math.sqrt(u * u * one + v * v) - abs(v)) / one


class TestIntegralJet:
    def test_unit_f_recovers_length(self):
        spec = ProjectiveFamilySpec(f="1")
        j = integral_jet(spec, 0.5, 1.25, 0.3, 1)
        assert abs(j.value - 1.25) < 1e-13
        assert j.partial(1) == 1.0

    def test_funk_integrand_value(self):
        j = integral_jet(FUNK_SPEC, 0.5, 1.0, 0.5, 0)
        assert abs(j.value - 2.0 / 3.0) < 1e-12

    def test_u_derivative_is_f_at_endpoint(self):
        # s = v^2/u^2 - r^2 = 0 at this point, so phi_u = f(0) = 1 exactly
        j = integral_jet(FUNK_SPEC, 0.5, 1.0, 0.5, 1)
        assert j.partial(1) == 1.0

    def test_matches_antiderivative_oracle(self):
        for r, u, v in [(0.3, 1.2, -0.4), (0.7, 0.4, 0.2), (0.5, 2.0, 1.3), (0.2, 1.0, 0.0)]:
            j = integral_jet(FUNK_SPEC, r, u, v, 0)
            assert abs(j.value - funk_integral_oracle(r, u, v)) < 1e-11

    def test_u_must_be_positive(self):
        with pytest.raises(FamilyError):
            integral_jet(FUNK_SPEC, 0.5, 0.0, 0.1, 1)

    def test_depth_exhaustion_raises(self):
        cramped = ProjectiveFamilySpec(f="1/sqrt(1+t)", abs_tol=1e-15, max_depth=1)
        with pytest.raises(QuadratureError):
            integral_jet(cramped, 0.5, 1.0, 1e-3, 3)


class TestPrechecks:
    def test_growing_f_rejected(self):
        with pytest.raises(FamilyError, match="grows"):
            build_projective_metric(ProjectiveFamilySpec(f="1+t"))

    def test_sqrt_growth_rejected(self):
        # f ~ s^0.5 makes the integral diverge logarithmically
        with pytest.raises(FamilyError, match="grows"):
            build_projective_metric(ProjectiveFamilySpec(f="sqrt(1+t)"))

    def test_nonpositive_f_rejected(self):
        with pytest.raises(FamilyError, match="positive"):
            build_projective_metric(ProjectiveFamilySpec(f="t - 100"))

    def test_bounded_f_accepted(self):
        build_projective_metric(ProjectiveFamilySpec(f="1"))

    def test_baseline_validation(self):
        with pytest.raises(FamilyError):
            ProjectiveFamilySpec(f="1", baseline="nope").validate()
        with pytest.raises(FamilyError):
            ProjectiveFamilySpec(f="1", baseline="abs_corrected").validate()
        with pytest.raises(FamilyError):
            ProjectiveFamilySpec(f="1", abs_tol=0.0).validate()


class TestBuiltMetrics:
    def test_unit_f_is_euclidean(self):
        metric = build_projective_metric(ProjectiveFamilySpec(f="1"))
        euclid = builtin("euclidean")
        for s in samples_for(euclid, n=2, count=20, seed=3):
            if s.r >= 0.9:
                continue
            assert abs(metric.phi_value(s.r, s.u, s.v) - s.u) < 1e-12

    def test_funk_reconstruction_pointwise(self):
        metric = build_projective_metric(FUNK_SPEC)
        funk = builtin("funk")
        for s in samples_for(funk, n=2, count=100):
            a = metric.phi_value(s.r, s.u, s.v)
            b = funk.phi_value(s.r, s.u, s.v)
            assert abs(a - b) / b <= 1e-10

    def test_funk_reconstruction_spot_value(self):
        metric = build_projective_metric(FUNK_SPEC)
        # 2/3 from the integral plus (0.5 + 0.5)/0.75 from the baseline
        assert abs(metric.phi_value(0.5, 1.0, 0.5) - 2.0) < 1e-11

    def test_f_only_metric_reversible(self):
        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        for s in samples_for(metric, n=2, count=20):
            a = metric.phi_value(s.r, s.u, s.v)
            b = metric.phi_value(s.r, s.u, -s.v)
            assert abs(a - b) / a <= 1e-12

    def test_phi_u_equals_f_of_invariant(self):
        metric = build_projective_metric(FUNK_SPEC)
        for s in samples_for(metric, n=2, count=15):
            p = metric.phi_jet(s.r, s.u, s.v, 1)
            arg = s.v * s.v / (s.u * s.u) - s.r * s.r
            assert abs(p.partial(1) - 1.0 / math.sqrt(1.0 + arg)) <= 1e-12

    def test_tangential_pde_exact(self):
        # phi_uv u + phi_ru v/(ru) cancels in exact arithmetic for any family metric
        metric = build_projective_metric(FUNK_SPEC)
        for s in samples_for(metric, n=2, count=15):
            _, rho2 = projective_pde_residuals(metric, s.r, s.u, s.v)
            assert rho2 <= 1e-12

    def test_radial_pde_within_quadrature_tolerance(self):
        metric = build_projective_metric(FUNK_SPEC)
        for s in samples_for(metric, n=2, count=15):
            rho1, _ = projective_pde_residuals(metric, s.r, s.u, s.v)
            assert rho1 <= 1e-8

    def test_euler_relations_within_10x_tolerance(self):
        metric = build_projective_metric(FUNK_SPEC)
        for s in samples_for(metric, n=2, count=15):
            assert homogeneity_residual(metric, s.r, s.u, s.v) <= 10.0 * FUNK_SPEC.abs_tol * 1e3

    def test_f_only_funk_integrand_has_constant_curvature(self):
        # dropping the baseline keeps the curvature constant at -1/4: the
        # curvature PDEs see the same integrand
        from finslercheck.projective import constant_curvature_verdict

        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        verdict = constant_curvature_verdict(metric, samples_for(metric, n=2, count=25))
        assert verdict.status == "constant"
        assert abs(verdict.lambda_estimate + 0.25) <= 1e-7

    def test_conjecture_probe_detects_kinked_profile(self):
        # reversible and constant curvature, but carrying a |v| kink: the
        # probe must report the smoothness assumption failing, not a
        # counterexample
        from finslercheck.checks import run_check

        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        records = run_check("conjecture", metric, samples_for(metric, n=2, count=25), {}, {})
        assert records[0].passed
        assert records[0].detail["smooth_across_v_zero"] is False
        assert "kink" in records[0].detail["conclusion"]
        assert "inconsistent" not in records[0].detail["conclusion"]

    def test_small_v_derivatives_stay_finite(self):
        # second-derivative integrands peak like 1/v^2 near t = |v|; the
        # quadrature must resolve them instead of recursing past rounding
        import numpy as np
        from finslercheck.jets import absval as jabs, sqrt as jsqrt
        from finslercheck.metrics import ClosedFormProfile, SphericalMetric, fundamental_tensor

        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        closed = SphericalMetric(
            "antiderivative",
            ClosedFormProfile(
                lambda r, u, v: (jsqrt(u * u * (1.0 - r * r) + v * v) - jabs(v)) / (1.0 - r * r)
            ),
            1.0,
        )
        x = np.array([0.65641, 0.0])
        y = np.array([0.001, 0.9])
        a = fundamental_tensor(metric, x, y)
        b = fundamental_tensor(closed, x, y)
        assert np.abs(a - b).max() <= 1e-10

    def test_generic_f_projective_but_not_constant(self):
        metric = build_projective_metric(ProjectiveFamilySpec(f="1/(1+t)"))
        samples = samples_for(metric, n=2, count=25)
        verdict = constant_curvature_verdict(metric, samples)
        assert verdict.status == "non_constant"
        assert verdict.max_deviation > 1e-3
        assert verdict.projectivity_residual <= 1e-6

    def test_abs_baseline_refuses_v_zero(self):
        metric = build_projective_metric(FUNK_SPEC)
        with pytest.raises(JetDomainError):
            metric.phi_jet(0.5, 1.0, 0.0, 1)

    def test_quadrature_self_consistency(self):
        coarse = ProjectiveFamilySpec(f="1/sqrt(1+t)", abs_tol=1e-10)
        fine = ProjectiveFamilySpec(f="1/sqrt(1+t)", abs_tol=5e-11)
        mc = build_projective_metric(coarse)
        mf = build_projective_metric(fine)
        for r, u, v in [(0.3, 1.2, -0.4), (0.7, 0.4, 0.2), (0.5, 2.0, 1.3)]:
            assert abs(mc.phi_value(r, u, v) - mf.phi_value(r, u, v)) <= 1e-10

    def test_third_order_profile_jet_matches_closed_form(self):
        metric = build_projective_metric(FUNK_SPEC)
        funk = builtin("funk")
        for r, u, v in [(0.3, 1.2, -0.4), (0.6, 0.8, 0.5)]:
            a = metric.phi_jet(r, u, v, 3)
            b = funk.phi_jet(r, u, v, 3)
            assert np.abs(a.coeffs - b.coeffs).max() < 1e-9

    def test_ambient_route_via_composition(self):
        # family profiles cannot run on ambient jets directly; the composed
        # route must agree with the closed-form funk ambient jet
        metric = build_projective_metric(FUNK_SPEC)
        funk = builtin("funk")
        x, y = np.array([0.3, 0.2]), np.array([0.9, -0.4])
        a = metric.ambient_jet(x, y, 2)
        b = funk.ambient_jet(x, y, 2)
        assert abs(a.value - b.value) < 1e-11
        assert np.abs(a.gradient() - b.gradient()).max() < 1e-9
        assert np.abs(a.hessian() - b.hessian()).max() < 1e-8


class TestBatchedQuadrature:
    @pytest.mark.parametrize("order", [0, 2, 3])
    def test_gauss_panel_equals_node_by_node_sum(self, order):
        from finslercheck import expr
        from finslercheck.family import _GL_NODES, _GL_WEIGHTS, _CompiledFamily, _gauss_panel
        from finslercheck.jets import lift_var

        fam = _CompiledFamily(FUNK_SPEC)
        for a, b, r, v in [(0.0, 1.3, 0.4, -0.2), (0.25, 0.5, 0.8, 0.6), (0.0, 0.01, 0.1, 1e-3)]:
            acc, acc_abs = _gauss_panel(fam, a, b, r, v, order)
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            ref = ref_abs = 0.0
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                t = mid + half * node
                rj, vj = lift_var(0, r, 2, order), lift_var(1, v, 2, order)
                c = expr.evaluate(fam.f_ast, {"t": vj * vj * (1.0 / (t * t)) - rj * rj}).coeffs
                ref = ref + weight * c
                ref_abs = ref_abs + weight * np.abs(c)
            assert np.array_equal(acc, half * ref)
            assert np.array_equal(acc_abs, half * ref_abs)

    def test_run_config_evaluates_each_sample_once(self, monkeypatch):
        from pathlib import Path

        from finslercheck.cli import run_config
        from finslercheck.metrics import SphericalMetric

        calls = []
        original = SphericalMetric.phi_jet

        def counting(self, r, u, v, order=2):
            calls.append((r, u, v, order))
            return original(self, r, u, v, order)

        monkeypatch.setattr(SphericalMetric, "phi_jet", counting)
        config = Path(__file__).resolve().parent.parent / "configs" / "family_funk_reconstruction.json"
        report, code = run_config(str(config), samples_override=30)
        assert code == 0
        # four positivity probes while building, then one order-2 jet per sample
        assert len(calls) == 4 + 30
        assert len(set(calls[4:])) == 30 and all(c[3] == 2 for c in calls[4:])
