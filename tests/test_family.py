import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import same_pair, samples_for
from finslercheck import expr
from finslercheck.checks import Run, run_check
from finslercheck.cli import run_config
from finslercheck.family import (
    _PROBE_GRID,
    FamilyError,
    ProjectiveFamilySpec,
    QuadratureError,
    FamilyProfile,
    _CompiledFamily,
    _spot_triples,
    build_projective_metric,
)
from finslercheck.jets import EvaluationError, Jet, JetDomainError
from finslercheck.metrics import MetricDomainError, ProfileBundle, SphericalMetric, builtin
from finslercheck.projective import projective_pde_of

REPO = Path(__file__).resolve().parent.parent
FUNK_SPEC = ProjectiveFamilySpec(
    f="1/sqrt(1+t)", g="1/(1-r^2)", h="1/(1-r^2)", baseline="abs_corrected"
)


FUNK_INTEGRAL = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))


def funk_integral_oracle(r, u, v):
    """Closed-form antiderivative of the funk integrand:
    integral_0^u t/sqrt(t^2 (1-r^2) + v^2) dt = (sqrt(u^2(1-r^2)+v^2) - |v|)/(1-r^2)."""
    one = 1.0 - r * r
    return (math.sqrt(u * u * one + v * v) - abs(v)) / one


class TestIntegralJet:
    # a plain spec with g = 0 has the integral term alone as its profile

    def test_unit_f_recovers_length(self):
        metric = build_projective_metric(ProjectiveFamilySpec(f="1"))
        j = metric.phi_jet(0.5, 1.25, 0.3, 1)
        assert abs(j.value - 1.25) < 1e-13
        assert j.partial(1) == 1.0

    def test_funk_integrand_value(self):
        j = FUNK_INTEGRAL.phi_jet(0.5, 1.0, 0.5, 0)
        assert abs(j.value - 2.0 / 3.0) < 1e-12

    def test_u_derivative_is_f_at_endpoint(self):
        # s = v^2/u^2 - r^2 = 0 at this point, so phi_u = f(0) = 1 exactly
        j = FUNK_INTEGRAL.phi_jet(0.5, 1.0, 0.5, 1)
        assert j.partial(1) == 1.0

    def test_matches_antiderivative_oracle(self):
        for r, u, v in [(0.3, 1.2, -0.4), (0.7, 0.4, 0.2), (0.5, 2.0, 1.3), (0.2, 1.0, 0.0)]:
            j = FUNK_INTEGRAL.phi_jet(r, u, v, 0)
            assert abs(j.value - funk_integral_oracle(r, u, v)) < 1e-11

    def test_u_must_be_positive(self):
        with pytest.raises(MetricDomainError):
            FUNK_INTEGRAL.phi_jet(0.5, 0.0, 0.1, 1)

    def test_depth_exhaustion_raises(self):
        # built without the positivity probes of build_projective_metric, which would raise first
        cramped = ProjectiveFamilySpec(f="1/sqrt(1+t)", abs_tol=1e-15, max_depth=1)
        metric = SphericalMetric("cramped", FamilyProfile(_CompiledFamily(cramped)), 1.0)
        with pytest.raises(QuadratureError):
            metric.phi_jet(0.5, 1.0, 1e-3, 3)


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

    def test_f_that_cannot_be_evaluated_names_its_grid_point(self, tmp_path):
        message = (
            "f cannot be evaluated at t = 0.001: "
            "sqrt requires a positive argument (value -4.999) (at offset 0)"
        )
        with pytest.raises(FamilyError) as err:
            build_projective_metric(ProjectiveFamilySpec(f="sqrt(t - 5)"))
        assert str(err.value) == message
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"metric": {"family": {"f": "sqrt(t - 5)"}}, "checks": ["homogeneity"]}))
        assert run_config(str(config)) == (None, 2)

    @pytest.mark.parametrize(
        "spec",
        [
            ProjectiveFamilySpec(f="t - 100"),
            # log of 0 at grid point 20 alone
            ProjectiveFamilySpec(f=f"1 + 0*log((t - {float(_PROBE_GRID[20])!r})^2)"),
            # not positive at spot triple 2
            ProjectiveFamilySpec(f="1/sqrt(1+t)", g="-1"),
            # not positive at spot triple 0, and g has no value at triples 2 and 3,
            # which the batched build meets first
            ProjectiveFamilySpec(f="1/sqrt(1+t)", g="-40 + log(0.85 - r)"),
            # the quadrature of spot triple 0 does not converge
            ProjectiveFamilySpec(f="1/sqrt(1+t)", g="-1", max_depth=3),
        ],
        ids=["non_positive_f", "f_fails_at_one_point", "spot", "spot_before_formula", "spot_quadrature"],
    )
    def test_batched_build_fails_as_the_one_point_loop(self, spec):
        with pytest.raises(EvaluationError) as err:
            build_projective_metric(spec)
        assert str(err.value) == _one_point_build_failure(spec)

    def test_baseline_validation(self):
        with pytest.raises(FamilyError):
            ProjectiveFamilySpec(f="1", baseline="nope").validate()
        with pytest.raises(FamilyError):
            ProjectiveFamilySpec(f="1", baseline="abs_corrected").validate()
        # h(r)|v| is the abs_corrected term; under plain it was added all the same
        with pytest.raises(FamilyError, match="plain baseline takes no h formula"):
            ProjectiveFamilySpec(f="1", h="1/(1-r^2)").validate()
        for tol in (0.0, math.inf, math.nan):  # an infinite tolerance converges every panel at once
            with pytest.raises(FamilyError, match="abs_tol must be finite and positive"):
                ProjectiveFamilySpec(f="1", abs_tol=tol).validate()


def _one_point_build_failure(spec):
    """The build's checks one point at a time, in order, as the batched build
    replaced them: f at each probe grid point, then the profile at each spot
    triple.  The first failure's text (None if all pass)."""
    fam = _CompiledFamily(spec)
    for s in _PROBE_GRID:
        try:
            value = expr.evaluate(fam.f_ast, {"t": Jet.constant(float(s), 1, 0)}).value
        except EvaluationError as err:
            return f"f cannot be evaluated at t = {s:g}: {err}"
        if not value > 0.0:
            return f"f must be positive: f({s:g}) = {value:g}"
    metric = SphericalMetric("spots", FamilyProfile(fam), spec.domain_radius)
    for r, u, v in _spot_triples(spec.domain_radius).tolist():
        try:
            phi = metric.phi_jet(r, u, v, 0).value
        except EvaluationError as err:
            return str(err)
        if not phi > 0.0:
            return f"built profile is not positive at r={r:g}, u={u:g}, v={v:g}: phi={phi:g}"
    return None


class TestBuiltMetrics:
    def test_unit_f_is_euclidean(self):
        metric = build_projective_metric(ProjectiveFamilySpec(f="1"))
        euclid = builtin("euclidean")
        s = samples_for(euclid, n=2, count=20, seed=3)
        inside = s.r < 0.9
        [phi] = metric.phi_jets(s.r[inside], s.u[inside], s.v[inside], 0)
        assert np.abs(phi - s.u[inside]).max() < 1e-12

    def test_funk_reconstruction_pointwise(self):
        metric = build_projective_metric(FUNK_SPEC)
        funk = builtin("funk")
        s = samples_for(funk, n=2, count=100)
        [a] = metric.phi_jets(s.r, s.u, s.v, 0)
        [b] = funk.phi_jets(s.r, s.u, s.v, 0)
        assert (abs(a - b) / b).max() <= 1e-10

    def test_funk_reconstruction_spot_value(self):
        metric = build_projective_metric(FUNK_SPEC)
        # 2/3 from the integral plus (0.5 + 0.5)/0.75 from the baseline
        assert abs(metric.phi_jet(0.5, 1.0, 0.5, 0).value - 2.0) < 1e-11

    def test_f_only_metric_reversible(self):
        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        s = samples_for(metric, n=2, count=20)
        [a] = metric.phi_jets(s.r, s.u, s.v, 0)
        [b] = metric.phi_jets(s.r, s.u, -s.v, 0)
        assert (abs(a - b) / a).max() <= 1e-12

    def test_phi_u_equals_f_of_invariant(self):
        metric = build_projective_metric(FUNK_SPEC)
        for s in samples_for(metric, n=2, count=15):
            p = metric.phi_jet(s.r, s.u, s.v, 1)
            arg = s.v * s.v / (s.u * s.u) - s.r * s.r
            assert abs(p.partial(1) - 1.0 / math.sqrt(1.0 + arg)) <= 1e-12

    def test_tangential_pde_exact(self):
        # phi_uv u + phi_ru v/(ru) cancels in exact arithmetic for any family metric
        metric = build_projective_metric(FUNK_SPEC)
        rows = samples_for(metric, n=2, count=15)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        _, rho2 = projective_pde_of(b)
        assert rho2.max() <= 1e-12

    def test_radial_pde_within_quadrature_tolerance(self):
        metric = build_projective_metric(FUNK_SPEC)
        rows = samples_for(metric, n=2, count=15)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        rho1, _ = projective_pde_of(b)
        assert rho1.max() <= 1e-8

    def test_euler_relations_within_10x_tolerance(self):
        metric = build_projective_metric(FUNK_SPEC)
        rows = samples_for(metric, n=2, count=15)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        assert b.homogeneity_residual().max() <= 10.0 * FUNK_SPEC.abs_tol * 1e3

    def test_f_only_funk_integrand_has_constant_curvature(self):
        # dropping the baseline keeps the curvature constant at -1/4: the
        # curvature PDEs see the same integrand
        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        curvature, _ = run_check("curvature", Run(metric, samples_for(metric, n=2, count=25)), {})
        assert curvature.passed and curvature.detail["status"] == "constant"
        assert abs(curvature.detail["lambda_estimate"] + 0.25) <= 1e-7

    def test_conjecture_probe_detects_kinked_profile(self):
        # reversible and constant curvature, but carrying a |v| kink: the
        # probe must report the smoothness assumption failing, not a
        # counterexample
        metric = build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))
        records = run_check("conjecture", Run(metric, samples_for(metric, n=2, count=25)), {})
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
        run = Run(metric, samples_for(metric, n=2, count=25))
        curvature, _ = run_check("curvature", run, {})
        assert not curvature.passed and curvature.detail["status"] == "non_constant"
        assert curvature.detail["max_deviation"] > 1e-3
        # past the 1e-6 projectivity gate, which a non-projective metric stops at
        assert run.profile.rapcsak_residuals().max() <= 1e-6

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
            assert abs(mc.phi_jet(r, u, v, 0).value - mf.phi_jet(r, u, v, 0).value) <= 1e-10

    def test_third_order_profile_jet_matches_closed_form(self):
        metric = build_projective_metric(FUNK_SPEC)
        funk = builtin("funk")
        for r, u, v in [(0.3, 1.2, -0.4), (0.6, 0.8, 0.5)]:
            a = metric.phi_jet(r, u, v, 3)
            b = funk.phi_jet(r, u, v, 3)
            assert np.abs(a.coeffs - b.coeffs).max() < 1e-9

    def test_ambient_route_via_composition(self):
        # the family's profile jet, composed to the ambient variables, must agree
        # with the closed-form funk ambient jet at every row
        metric = build_projective_metric(FUNK_SPEC)
        funk = builtin("funk")
        x = np.array([[0.3, 0.2], [-0.5, 0.1], [0.05, -0.6], [0.7, 0.05], [0.2, 0.2]])
        y = np.array([[0.9, -0.4], [0.3, 1.1], [-1.0, -0.2], [0.1, 0.8], [-0.5, -0.5]])
        for order in (2, 3):
            a = metric.ambient_jet(x.T, y.T, order)
            b = funk.ambient_jet(x.T, y.T, order)
            assert np.abs(a.coeffs[0] - b.coeffs[0]).max() < 1e-11
            assert np.abs(a.coeffs[1:5] - b.coeffs[1:5]).max() < 1e-9
            second = [range(4)] * 2
            assert np.abs(a.partials(*second) - b.partials(*second)).max() < 1e-8
        third = [range(4)] * 3
        assert np.abs(a.partials(*third) - b.partials(*third)).max() < 1e-7


# bisects deep enough that summing its leaves in any other than tree order
# changes bits at orders 2 and 3
GENERIC_SPEC = ProjectiveFamilySpec(f="1/(1+t^2)^0.25", g="r^2")


def _triples(count: int):
    """The invariants (r, u, v) of the family funk's first count samples (seed 7)."""
    samples = samples_for(build_projective_metric(FUNK_SPEC), n=2, count=count, seed=7)
    return (np.array([getattr(s, k) for s in samples]) for k in "ruv")


def _recursive_quadrature(fam, r, u, v, order):
    """The recursive bisection of one triple, as a reference: its coefficients, or
    the first failure it meets (left before right)."""
    from finslercheck.family import _ROUNDOFF_FLOOR, _gauss_panel

    def recursive(a, b, estimate, tol, depth):
        mid = 0.5 * (a + b)
        left, left_abs = _gauss_panel(fam, a, mid, r, v, order)
        right, right_abs = _gauss_panel(fam, mid, b, r, v, order)
        refined = left + right
        floor = _ROUNDOFF_FLOOR * float((left_abs + right_abs).max())
        if float(np.abs(refined - estimate).max()) <= max(tol, floor):
            return refined
        if depth == fam.spec.max_depth:
            raise QuadratureError(
                f"profile integral did not converge on [{a:g}, {b:g}] after {depth} bisection levels"
            )
        return recursive(a, mid, left, 0.5 * tol, depth + 1) + recursive(mid, b, right, 0.5 * tol, depth + 1)

    estimate, _ = _gauss_panel(fam, 0.0, u, r, v, order)
    return recursive(0.0, u, estimate, fam.spec.abs_tol, 0)


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

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("f", ["1/sqrt(1+t)", "1/(1+t^2)^0.25", "exp(-t)", "1"])
    def test_integrand_argument_equals_the_jet_squares(self, f, order):
        # the argument v^2/t^2 - r^2 from its exact coefficients, against the generic
        # jet products it replaces, bit for bit: signed zeros at v = -0.0 and r = 0.0
        # included, and an f free of t
        from finslercheck.family import _integrand_coeffs
        from finslercheck.jets import lift_var

        fam = _CompiledFamily(ProjectiveFamilySpec(f=f))
        t = np.array([0.3, 1e-3, 2.0, 0.7, 0.05])
        r = np.array([0.4, 0.0, 0.9, 0.2, 0.6])
        v = np.array([-0.2, 0.5, -0.0, 0.0, 1e-3])
        rj, vj = lift_var(0, r, 2, order), lift_var(1, v, 2, order)
        want = expr.evaluate(fam.f_ast, {"t": vj * vj * (1.0 / (t * t)) - rj * rj}).coeffs
        got = _integrand_coeffs(fam, t, r, v, order)
        assert got.tobytes() == np.broadcast_to(want.T, got.T.shape).T.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("spec", [FUNK_SPEC, GENERIC_SPEC], ids=["funk", "generic"])
    def test_lockstep_quadrature_equals_one_triple_recursion(self, spec, order):
        # every column of the pooled rounds over all triples, and of each triple
        # alone, equals the recursive bisection bit for bit
        from finslercheck.family import _quadrature

        fam = _CompiledFamily(spec)
        r, u, v = _triples(12)
        batched = _quadrature(fam, r, u, v, order)
        for i in range(len(r)):
            want = _recursive_quadrature(fam, r[i], u[i], v[i], order)
            assert batched[:, i].tobytes() == want.tobytes(), i
            alone = _quadrature(fam, r[i : i + 1], u[i : i + 1], v[i : i + 1], order)
            assert alone[:, 0].tobytes() == want.tobytes(), i

    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
    def test_failing_batches_raise_the_recursions_first_failure(self, max_depth):
        # the batch raises its first failing triple's error, with the text of the
        # recursion's first failure; once the converging triples finish, the
        # failing one takes several nodes a round, one of its own failures among them
        from finslercheck.family import _quadrature

        fam = _CompiledFamily(dataclasses.replace(GENERIC_SPEC, max_depth=max_depth))
        # then a triple whose integrand peaks near t = |v| = 0.2, between two nodes
        # of depth 3 that both fail, and one that converges at once: from the
        # second round on, the first takes both nodes in one round
        extra = np.array([(0.8, 1.4, -0.2), (0.75, 1.23, 0.77)]).T
        r, u, v = (np.append(w, more) for w, more in zip(_triples(24), extra))
        want = []
        for i in range(len(r)):
            try:
                _recursive_quadrature(fam, r[i], u[i], v[i], 2)
                want.append(None)
            except QuadratureError as err:
                want.append(str(err))
        failing = [i for i, w in enumerate(want) if w is not None]
        converging = [i for i, w in enumerate(want) if w is None]
        assert failing and converging
        batches = [list(range(start, len(r))) for start in range(len(r))]
        batches += [[i] + converging for i in failing]
        for batch in batches:
            first = next((j for j, i in enumerate(batch) if want[i] is not None), None)
            if first is None:
                _quadrature(fam, r[batch], u[batch], v[batch], 2)
                continue
            with pytest.raises(QuadratureError) as err:
                _quadrature(fam, r[batch], u[batch], v[batch], 2)
            assert (str(err.value), err.value.index) == (want[batch[first]], first), batch

    def test_rounds_follow_tree_depth(self, monkeypatch):
        # on the family config's samples, the pooled rounds are fewer than the
        # nodes of the largest tree, which one node per triple a round would take
        from finslercheck import family
        from finslercheck.cli import build_metric
        from finslercheck.sampling import SampleSpec, sample_domain

        with open(REPO / "configs" / "family_funk_reconstruction.json") as fh:
            cfg = json.load(fh)
        metric = build_metric(cfg)
        spec = SampleSpec.for_metric(n=cfg["dimension"], domain_radius=1.0, **cfg["sampling"])
        r, u, v = (np.array([getattr(s, k) for s in sample_domain(spec)]) for k in "ruv")
        widths = []
        original = family._integrand_coeffs

        def counting(fam, t, r, v, order):
            widths.append(len(t))
            return original(fam, t, r, v, order)

        monkeypatch.setattr(family, "_integrand_coeffs", counting)
        fam = metric.profile.fam
        family._quadrature(fam, r, u, v, 2)
        rounds = len(widths) - 1  # the first call is the estimates
        assert max(widths) <= 2 * len(r) * 15
        tree_sizes = []
        for i in range(len(r)):
            widths.clear()
            family._quadrature(fam, r[i : i + 1], u[i : i + 1], v[i : i + 1], 2)
            tree_sizes.append(len(widths) - 1)
        assert rounds < max(tree_sizes)

    def test_non_converging_samples_fail_with_their_own_error(self, monkeypatch):
        # max_depth = 2 is too shallow for samples 1 and 5; sample 2 lies outside
        from finslercheck import family
        from finslercheck.family import FamilyProfile, _CompiledFamily
        from finslercheck.checks import Run
        from finslercheck.metrics import MetricSample, SphericalMetric

        spec = ProjectiveFamilySpec(f="1/sqrt(1+t)", max_depth=2)
        metric = SphericalMetric("shallow", FamilyProfile(_CompiledFamily(spec)), 1.0)
        xs = [[0.1, 0.2], [0.3, -0.1], [1.2, 0.0], [0.2, 0.2], [0.0, 0.4], [-0.3, 0.1]]
        samples = MetricSample.of(xs, [[0.5, 1.0]] * len(xs))
        widths = []
        original = family._integrand_coeffs

        def counting(fam, t, r, v, order):
            widths.append(len(t))
            return original(fam, t, r, v, order)

        monkeypatch.setattr(family, "_integrand_coeffs", counting)
        message = "profile integral did not converge on [0, 0.279508] after 2 bisection levels"
        with pytest.raises(QuadratureError) as err:
            Run(metric, samples).profile
        assert str(err.value) == message
        assert same_pair(err.value.sample, samples[1])
        # the in-domain samples as one batch: depth first, never a whole tree level
        inside = samples[samples.r < 1.0]
        r, u, v = inside.r, inside.u, inside.v
        widths.clear()
        with pytest.raises(QuadratureError, match=re.escape(message)):
            metric.phi_jets(r, u, v)
        assert widths and max(widths) <= 2 * len(inside) * 15

    def test_run_config_evaluates_each_sample_once(self, monkeypatch):
        from finslercheck.cli import run_config
        from finslercheck.family import FamilyProfile

        calls = []
        original = FamilyProfile.jet

        def counting(self, r, u, v, order):
            calls.append((list(zip(*map(np.atleast_1d, (r, u, v)))), order))
            return original(self, r, u, v, order)

        monkeypatch.setattr(FamilyProfile, "jet", counting)
        config = REPO / "configs" / "family_funk_reconstruction.json"
        report, code = run_config(str(config), samples_override=30)
        assert code == 0
        # the four positivity probes as one jet while building, then one order-2 jet
        # over all samples: each sample's quadrature runs once
        assert [(len(points), order) for points, order in calls] == [(4, 0), (30, 2)]
        assert len(set(calls[1][0])) == 30
