import math

import numpy as np
import pytest

from conftest import invariants_bundle, make_metric, same_pair, samples_for
from finslercheck.checks import Run
from finslercheck._multi_index import coeff_count
from finslercheck.family import ProjectiveFamilySpec, build_projective_metric
from finslercheck.jets import Jet, JetDomainError, lift_var, sqrt
from finslercheck.metrics import (
    AMBIENT_CHUNK,
    AmbientBundle,
    ClosedFormProfile,
    ExpressionProfile,
    GeneralMetric,
    MetricDomainError,
    MetricSample,
    NotStronglyConvexError,
    ProfileBundle,
    SphericalMetric,
    builtin,
    builtin_names,
    bundle_of,
    fundamental_tensor,
    invariant_rows,
    mirrored_phi_jets,
    positive_definite,
    quotient,
    relative_residual,
    reversibility_residuals,
    riemannian_probe_of,
)
from finslercheck.sampling import SampleSpec, sample_domain


class TestInvariants:
    def test_orthogonal_pair(self):
        assert invariant_rows([0.5, 0.0], [0.0, 1.0]) == (0.5, 1.0, 0.0)

    def test_parallel_pair(self):
        assert invariant_rows([0.5, 0.0], [1.0, 0.0]) == (0.5, 1.0, 0.5)

    def test_origin(self):
        assert invariant_rows([0.0, 0.0], [3.0, 4.0]) == (0.0, 5.0, 0.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(MetricDomainError):
            invariant_rows([0.5, 0.0], [0.0, 0.0])

    def test_cauchy_schwarz_clamp(self):
        # colinear with rounding: |v| must never exceed r*u
        x = np.array([0.1234567890123456] * 3)
        y = 7.0 * x
        r, u, v = invariant_rows(x, y)
        assert abs(v) <= r * u

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_match_invariants_of_bit_for_bit(self, n):
        # the reference is the scalar formula: norm, dot, then the clamp through min and max
        rng = np.random.default_rng(n)
        x = rng.uniform(-2.0, 2.0, (3000, n)) * rng.uniform(0.0, 1.0, (3000, 1)) ** 3
        y = rng.uniform(-2.0, 2.0, (3000, n))
        x[:50] = 0.3 * y[:50]  # colinear pairs, where the clamp acts
        x[50:100] = -0.7 * y[50:100]
        x[100], x[101] = 0.0, -0.0
        want = []
        for a, b in zip(x, y):
            r, u = float(np.linalg.norm(a)), float(np.linalg.norm(b))
            want.append((r, u, min(max(float(np.dot(a, b)), -r * u), r * u)))
        for got, expected in zip(invariant_rows(x, y), np.array(want).T):
            assert got.tobytes() == expected.tobytes()
        for a, b, expected in zip(x[:110], y[:110], want):  # one pair: n-vectors
            assert np.array(invariant_rows(a, b)).tobytes() == np.array(expected).tobytes()

    def test_rows_zero_direction_rejected(self):
        with pytest.raises(MetricDomainError):
            invariant_rows(np.array([[0.5, 0.0], [0.1, 0.2]]), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rows_zero_direction_names_its_first_row(self):
        # a NaN direction is not refused here (it fails later, where it is read)
        x = np.full((4, 2), 0.1)
        y = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, -0.0], [0.0, 0.0]])
        with pytest.raises(MetricDomainError, match="y must be nonzero") as err:
            invariant_rows(x, y)
        assert err.value.index == 2
        assert np.isnan(invariant_rows(x[:2], y[:2])[1][1])


class TestClosedFormProfile:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_seeds_are_the_variable_jets(self, order):
        # the seeds of r, u and v are cut from one array; each is Jet.variable bit for bit
        seeds = ClosedFormProfile(lambda r, u, v: (r, u, v))
        points = (np.array([0.3, 0.0, 0.9]), np.array([1.0, 2.5, 0.1]), np.array([-0.2, -0.0, 0.05]))
        for args in (points, tuple(float(p[1]) for p in points)):
            for var, (got, value) in enumerate(zip(seeds.jet(*args, order), args)):
                want = lift_var(var, value, 3, order)
                assert (got.nvars, got.order) == (3, order)
                assert got.coeffs.shape == want.coeffs.shape
                assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_order_above_three_is_refused(self):
        with pytest.raises(ValueError, match=r"order must be 0\.\.3, got 4"):
            builtin("funk").profile.jet(0.3, 1.0, 0.2, 4)
        with pytest.raises(ValueError, match=r"order must be 0\.\.3, got -1"):
            builtin("funk").profile.jet(np.array([0.3, 0.4]), np.ones(2), np.zeros(2), -1)


def F_at(metric, x, y):
    """F at one point-direction pair, from ``bundle_of`` its one row."""
    return bundle_of(metric, np.array([x], dtype=float), np.array([y], dtype=float)).F[0]


class TestEvaluate:
    def test_funk_hand_value(self):
        # (sqrt(1*(1-0.25)+0.25) + 0.5) / 0.75 = (1 + 0.5)/0.75
        assert F_at(builtin("funk"), [0.5, 0.0], [1.0, 0.0]) == 2.0

    def test_klein_hand_value(self):
        want = math.sqrt(0.75) / 0.75
        assert abs(F_at(builtin("klein"), [0.5, 0.0], [0.0, 1.0]) - want) < 1e-15

    def test_euclidean_norm(self):
        assert F_at(builtin("euclidean"), [0.3, -0.1], [3.0, 4.0]) == 5.0

    def test_outside_domain_rejected(self):
        with pytest.raises(MetricDomainError):
            F_at(builtin("funk"), [1.2, 0.0], [1.0, 0.0])

    def test_nonpositive_profile_flagged(self):
        # phi = 1 - 2*1.5^2 < 0: the spray refuses it (the checks count F <= 0 as failing)
        bad = SphericalMetric("bad", ClosedFormProfile(lambda r, u, v: u - 2.0 * v * (v / u)))
        b = bundle_of(bad, np.array([[1.5, 0.0]]), np.array([[1.0, 0.0]]))
        assert b.F[0] < 0.0
        with pytest.raises(NotStronglyConvexError):
            b.spray()


class TestProfileJets:
    def test_funk_phi_u(self):
        p = builtin("funk").phi_jet(0.5, 1.0, 0.5, 2)
        assert p.partial(1) == 1.0  # u / sqrt(u^2(1-r^2) + v^2) = 1/1

    def test_euclidean_derivatives(self):
        p = builtin("euclidean").phi_jet(0.7, 1.3, 0.2, 2)
        assert p.partial(1) == 1.0
        assert np.all(p.partials(range(3), range(3)) == 0.0)

    def test_klein_even_in_v(self):
        p = builtin("klein").phi_jet(0.5, 1.0, 0.0, 2)
        assert p.partial(2) == 0.0

    def test_u_must_be_positive(self):
        with pytest.raises(MetricDomainError):
            builtin("funk").phi_jet(0.5, 0.0, 0.0, 2)


_PARTIALS = ("phi", "phi_r", "phi_u", "phi_v", "phi_rr", "phi_ru", "phi_rv", "phi_uu", "phi_uv", "phi_vv")


@pytest.fixture(scope="module")
def family_bundle_cases():
    """The funk family metric, the first 60 samples of its config
    (configs/family_funk_reconstruction.json: 120 samples, seed 7) and one
    one-sample bundle per sample."""
    metric = AMBIENT_CASES["family"][0]()
    samples = sample_domain(SampleSpec.for_metric(n=2, count=120, seed=7, domain_radius=1.0))[:60]
    return metric, samples, [ProfileBundle.of(metric, x[None], y[None]) for x, y in zip(samples.x, samples.y)]


class TestBatchedProfileBundle:
    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("n", [2, 3])
    def test_columns_equal_per_sample_bundles(self, name, n):
        metric = make_metric(name)
        samples = samples_for(metric, n=n, count=40)
        batched = ProfileBundle.of(metric, samples.x, samples.y)
        for i in range(len(samples)):
            single = ProfileBundle.of(metric, samples.x[i : i + 1], samples.y[i : i + 1])
            for field in ("r", "u", "v") + _PARTIALS:
                want = getattr(single, field).tobytes()
                assert getattr(batched, field)[i : i + 1].tobytes() == want, (field, i)

    def test_one_profile_call_for_all_samples(self):
        calls = []
        funk = builtin("funk")

        def phi(r, u, v):
            calls.append(r.coeffs.shape)
            return funk.profile.fn(r, u, v)

        counted = SphericalMetric("funk", ClosedFormProfile(phi), 1.0)
        rows = samples_for(funk, n=2, count=30)
        ProfileBundle.of(counted, rows.x, rows.y)
        assert calls == [(10, 30)]

    def test_failed_batch_names_first_failing_sample(self):
        # sqrt(1.5 - r) has no value beyond r = 1.5
        from finslercheck.expr import EvalDomainError
        from finslercheck.metrics import ExpressionProfile

        metric = SphericalMetric("root", ExpressionProfile("u*sqrt(1.5 - r) + 0.1*v"))
        samples = sample_domain(SampleSpec.for_metric(n=2, count=30, seed=7))
        first = samples[np.argmax(samples.r >= 1.5)]
        assert first.r >= 1.5
        with pytest.raises(EvalDomainError) as err:
            Run(metric, samples).profile
        assert same_pair(err.value.sample, first)

    def test_failed_family_bundle_evaluates_each_sample_once(self, monkeypatch):
        # the batch refuses the out-of-domain sample 2 before any quadrature, and
        # the one batch that confirms samples 0 and 1 pass integrates each once
        from finslercheck.family import FamilyProfile

        metric = AMBIENT_CASES["family"][0]()
        calls = []
        original = FamilyProfile.jet

        def counting(self, r, u, v, order):
            calls.append(r)
            return original(self, r, u, v, order)

        monkeypatch.setattr(FamilyProfile, "jet", counting)
        xs = [[0.1, 0.2], [0.3, -0.1], [1.2, 0.0], [0.2, 0.2], [0.0, 0.4], [-0.3, 0.1]]
        samples = MetricSample.of(xs, [[0.5, 1.0]] * len(xs))
        with pytest.raises(MetricDomainError) as err:
            Run(metric, samples).profile
        assert same_pair(err.value.sample, samples[2])
        assert [list(r) for r in calls] == [list(samples.r[:2])]

    @pytest.mark.parametrize("count", [1, 2, 25, 26, 60])
    def test_family_columns_equal_per_sample_bundles(self, count, family_bundle_cases):
        # the lockstep quadrature over all samples against one bundle per sample
        metric, samples, singles = family_bundle_cases
        batched = ProfileBundle.of(metric, samples.x[:count], samples.y[:count])
        for field in ("r", "u", "v") + _PARTIALS:
            want = b"".join(getattr(single, field).tobytes() for single in singles[:count])
            assert getattr(batched, field).tobytes() == want, field

    def test_reversibility_residuals_equal_per_sample_residuals(self):
        for metric in (builtin("funk"), builtin("klein"), AMBIENT_CASES["family"][0]()):
            samples = samples_for(metric, n=2, count=8)
            want = []
            for s in samples:
                forward = metric.phi_jet(s.r, s.u, s.v, 0).value
                want.append(abs(metric.phi_jet(s.r, s.u, -s.v, 0).value - forward) / forward)
            got = reversibility_residuals(metric, samples.x, samples.y)
            assert got.tobytes() == np.array(want).tobytes()

    def test_mirrored_phi_jets_equal_two_calls_and_name_the_row(self):
        metric = builtin("funk")
        r, u, v = np.array([0.2, 0.5, 0.7]), np.array([1.0, 0.4, 1.5]), np.array([0.1, -0.2, 0.3])
        plus, minus = mirrored_phi_jets(metric, r, u, v, 2)
        assert plus.tobytes() == metric.phi_jets(r, u, v, 2).tobytes()
        assert minus.tobytes() == metric.phi_jets(r, u, -v, 2).tobytes()
        with pytest.raises(MetricDomainError) as err:  # the third triple, row 1's mirror image
            mirrored_phi_jets(metric, np.array([0.2, 1.5]), u[:2], v[:2], 0)
        assert err.value.index == 1

    @pytest.mark.parametrize("evaluate", ["bundle", "reversibility"])
    def test_failed_quadrature_names_its_sample_after_one_batch(self, evaluate, monkeypatch):
        # max_depth = 2 is too shallow for samples 1 and 4: the one batched jet
        # finishes the others, then raises sample 1's error as the per-sample path does,
        # once sample 0 alone (its two triples for reversibility) is built again and passes
        from finslercheck.family import FamilyProfile, QuadratureError, _CompiledFamily

        spec = ProjectiveFamilySpec(f="1/sqrt(1+t)", max_depth=2)
        metric = SphericalMetric("shallow", FamilyProfile(_CompiledFamily(spec)), 1.0)
        xs = [[0.1, 0.2], [0.3, -0.1], [0.2, 0.2], [0.0, 0.4], [-0.3, 0.1]]
        samples = MetricSample.of(xs, [[0.5, 1.0]] * len(xs))
        build = {
            "bundle": lambda s: Run(metric, s).profile,
            "reversibility": lambda s: Run(metric, s).reversibility,
        }[evaluate]
        with pytest.raises(QuadratureError) as alone:
            for i in range(len(samples)):
                build(samples[i : i + 1])
        calls = []
        original = FamilyProfile.jet

        def counting(self, r, u, v, order):
            calls.append(len(np.atleast_1d(r)))
            return original(self, r, u, v, order)

        monkeypatch.setattr(FamilyProfile, "jet", counting)
        with pytest.raises(QuadratureError) as batched:
            build(samples)
        assert calls == ([5, 1] if evaluate == "bundle" else [10, 2])
        assert str(batched.value) == str(alone.value)
        assert same_pair(batched.value.sample, samples[1]) and same_pair(alone.value.sample, samples[1])

    def test_failing_quadrature_panel_names_its_triple(self):
        # f carries sqrt(t + 0.65), which fails where v^2/tau^2 - r^2 <= -0.65: for sample 3
        # at a node of the root panel [0, u], for sample 1 only at tau >= 0.9955 u, a node of
        # the right half [u/2, u] in the next lockstep round; each panel maps to its triple
        from finslercheck.expr import EvalDomainError

        spec = ProjectiveFamilySpec(
            f="1/sqrt(1+t) + 0*sqrt(t + 0.65)", g="1/(1-r^2)", h="1/(1-r^2)", baseline="abs_corrected"
        )
        metric = build_projective_metric(spec)
        c = 0.398 / 0.9
        samples = MetricSample.of(
            [[0.1, 0.2], [0.9, 0.0], [0.3, -0.1], [0.0, 0.9], [-0.3, 0.1]],
            [[0.5, 1.0], [c, math.sqrt(1.0 - c * c)], [0.5, 1.0], [1.0, 0.05], [0.5, 1.0]],
        )
        with pytest.raises(EvalDomainError) as alone:
            for i in range(len(samples)):
                Run(metric, samples[i : i + 1]).reversibility
        with pytest.raises(EvalDomainError) as batched:
            Run(metric, samples).reversibility
        assert "sqrt requires a positive argument" in str(alone.value)
        assert str(batched.value) == str(alone.value)
        assert same_pair(batched.value.sample, samples[1]) and same_pair(alone.value.sample, samples[1])

    def test_outside_domain_batch_raises_first_triple_error(self):
        metric = builtin("funk")
        r, u, v = np.array([0.5, 1.2, 1.5]), np.array([1.0, 1.0, 1.0]), np.zeros(3)
        with pytest.raises(MetricDomainError, match="1.2"):
            metric.phi_jets(r, u, v)


def five_term_bracket(b):
    """The reference spray bracket 2 (Q F_y + phi D) = 4 g G: D summed from its
    five (N, n) terms one at a time, each with its own zero-guarded quotient."""
    r, u, v, x, y = b.r, b.u, b.v, b.x, b.y
    terms = [
        quotient(b.phi_rv * v, r)[:, None] * x,
        (b.phi_vv * u * u)[:, None] * x,
        -quotient(b.phi_r, r)[:, None] * x,
        quotient(b.phi_ru * v, r * u)[:, None] * y,
        (b.phi_uv * u)[:, None] * y,
    ]
    q = quotient(v, r) * b.phi_r + u * u * b.phi_v
    f_y = (b.phi_u / u)[:, None] * y + b.phi_v[:, None] * x
    return 2.0 * (q[:, None] * f_y + b.phi[:, None] * sum(terms))


# a profile at whose antiparallel signed-zero rows all five terms of D are -0.0,
# so D has the sign of a sum started from 0.0
SIGNED_ZERO_PROFILE = "u - 0.3*r*v - 0.2*r*r*u + 0.1*v*v/u"


def edge_rows(metric, n, origin=True):
    """Sampled rows, then rows at x = 0 (every radial term a signed zero; left out
    unless ``origin``), rows with x parallel or antiparallel to y (v = +-ru), and
    antiparallel axis rows whose other components are -0.0: (x, y) as (N, n)."""
    rows = samples_for(metric, n=n, count=30)
    x, y = rows.x, rows.y
    axes = np.eye(n)
    unit = y / np.linalg.norm(y, axis=1)[:, None]
    xs = [x, 0.4 * unit[:4], -0.7 * unit[4:8], 0.4 * axes, np.where(axes == 1.0, 0.5, -0.0)]
    ys = [y, y[:4], y[4:8], 1.5 * axes, -axes]
    if origin:
        xs.insert(1, np.zeros((n + 3, n)))
        ys.insert(1, np.concatenate([axes, -axes[:1], y[:2]]))
    return np.concatenate(xs), np.concatenate(ys)


class TestSprayBracket:
    @pytest.mark.parametrize("name", builtin_names() + ["signed_zero"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_pass_equals_five_term_formula(self, name, n):
        # the closed-form spray against g G = bracket / 4 solved with the closed-form g
        # and the five-term bracket, on the edge rows
        if name == "signed_zero":
            metric = SphericalMetric(name, ExpressionProfile(SIGNED_ZERO_PROFILE), 1.0)
        else:
            metric = make_metric(name)
        b = ProfileBundle.of(metric, *edge_rows(metric, n))
        got = b.spray()
        assert got.shape == b.x.shape
        want = 0.25 * np.linalg.solve(b.g(), five_term_bracket(b)[:, :, None])[:, :, 0]
        assert _agree(got, want, 1e-12)


# profiles that are strongly convex at some rows and not at others
LEMMA_PROFILES = {
    "pseudo": "u - 2*v*v/u",  # phi_u + t phi_vv / u < 0 away from v = 0
    "wide": "u + v*v/u",  # phi_u < 0 where |v| > u, which only n >= 3 feels
}


def one_row_sprays(metric, x, y):
    """Per row, does the spray of its one-row profile bundle exist (no NotStronglyConvexError)?"""
    out = []
    for i in range(len(x)):
        try:
            ProfileBundle.of(metric, x[i : i + 1], y[i : i + 1]).spray()
        except NotStronglyConvexError as err:
            assert f"x={x[i]}, y={y[i]}" in str(err)
            out.append(False)
        else:
            out.append(True)
    return out


class TestClosedFormSpray:
    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_profile_spray_matches_ambient_spray(self, name, n):
        # the ambient route takes no jets at x = 0, where |x| is not differentiable
        metric = make_metric(name)
        x, y = edge_rows(metric, n, origin=False)
        profile, ambient = ProfileBundle.of(metric, x, y), AmbientBundle.of(metric, x, y, 2)
        assert _agree(profile.spray(), ambient.spray(), 1e-12)

    @pytest.mark.parametrize("name", builtin_names() + sorted(LEMMA_PROFILES))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lemma_holds_exactly_where_g_is_positive_definite(self, name, n):
        # phi > 0, phi_u + t phi_vv / u > 0 and (n >= 3) phi_u > 0, against a Cholesky
        # of g where F > 0 (g of F^2 is the same for -F, which is no metric)
        if name in LEMMA_PROFILES:
            metric = SphericalMetric(name, ExpressionProfile(LEMMA_PROFILES[name]))
        else:
            metric = make_metric(name)
        x, y = edge_rows(metric, n)
        b = ProfileBundle.of(metric, x, y)
        direct = [bool(phi > 0.0) and positive_definite(g) for phi, g in zip(b.phi, b.g())]
        assert one_row_sprays(metric, x, y) == direct
        assert all(direct) == (name not in LEMMA_PROFILES)

    def test_ambient_spray_names_its_first_row_without_a_factorisation(self):
        # F = u (1 - s^2), s = v/u: g is positive definite iff 1 + 3 s^2 - 2 r^2 > 0,
        # so rows 1 and 2 fail
        metric = GeneralMetric.from_expression("sqrt(y1^2+y2^2) - (x1*y1+x2*y2)^2/sqrt(y1^2+y2^2)", 2)
        x = np.array([[0.1, 0.0], [0.0, 0.8], [0.0, 0.9]])
        y = np.array([[1.0, 0.1], [1.0, 0.1], [1.0, 0.1]])
        with pytest.raises(NotStronglyConvexError, match=r"x=\[0\. +0\.8\]"):
            AmbientBundle.of(metric, x, y, 2).spray()


def ad_tensors(metric, samples):
    """g at the samples from the ambient jet of F^2, the cross-check route for profiles."""
    return AmbientBundle.of(metric, samples.x, samples.y, 2).g()


def convexity(metric, samples):
    """(profile lemma holds, g factorizes) per sample; the lemma implies the factorization."""
    b = ProfileBundle.of(metric, samples.x, samples.y)
    return [(bool(ok), positive_definite(g)) for ok, g in zip(b.convexity_lemma(), b.g())]


class TestFundamentalTensor:
    def test_euclidean_identity(self):
        g = fundamental_tensor(builtin("euclidean"), [0.4, 0.1], [1.0, 0.7])
        assert np.abs(g - np.eye(2)).max() < 1e-15

    def test_funk_identity_at_origin(self):
        g = fundamental_tensor(builtin("funk"), [0.0, 0.0], [0.6, 0.8])
        assert np.abs(g - np.eye(2)).max() < 1e-12

    def test_klein_matches_ad(self):
        g = fundamental_tensor(builtin("klein"), [0.5, 0.0], [0.0, 1.0])
        ad = ad_tensors(builtin("klein"), MetricSample.of([[0.5, 0.0]], [[0.0, 1.0]]))[0]
        assert np.abs(g - ad).max() < 1e-10

    @pytest.mark.parametrize("name", ["klein", "funk", "berwald", "spherical", "bryant"])
    def test_closed_form_matches_ad_on_samples(self, name):
        metric = make_metric(name)
        samples = samples_for(metric, n=2, count=25)
        for s, ad in zip(samples, ad_tensors(metric, samples)):
            closed = fundamental_tensor(metric, s.x, s.y)
            assert np.abs(closed - ad).max() / np.abs(closed).max() < 1e-9

    @pytest.mark.parametrize("name", ["klein", "funk", "berwald", "spherical", "bryant"])
    def test_energy_reproduced(self, name):
        metric = make_metric(name)
        for s in samples_for(metric, n=3, count=25):
            g = fundamental_tensor(metric, s.x, s.y)
            f = F_at(metric, s.x, s.y)
            assert abs(float(s.y @ g @ s.y) - f * f) / (f * f) < 1e-10

    def test_zero_homogeneous_in_y(self):
        metric = builtin("funk")
        g1 = fundamental_tensor(metric, [0.3, 0.2], [0.8, -0.5])
        g2 = fundamental_tensor(metric, [0.3, 0.2], [2.4, -1.5])
        assert np.abs(g1 - g2).max() < 1e-12


class TestDeterminant:
    def test_euclidean_is_one(self):
        b = ProfileBundle.of(builtin("euclidean"), np.array([[0.4, 0.1]]), np.array([[1.0, 0.7]]))
        assert b.det_g()[0] == 1.0

    def test_funk_matches_direct_2x2(self):
        metric = builtin("funk")
        closed = ProfileBundle.of(metric, np.array([[0.5, 0.0]]), np.array([[1.0, 0.0]])).det_g()[0]
        direct = np.linalg.det(fundamental_tensor(metric, [0.5, 0.0], [1.0, 0.0]))
        assert relative_residual(closed, -direct) < 1e-12

    def test_bryant_matches_direct_3d(self):
        metric = make_metric("bryant")
        s = samples_for(metric, n=3, count=5)[3:4]
        closed = ProfileBundle.of(metric, s.x, s.y).det_g()[0]
        direct = np.linalg.det(fundamental_tensor(metric, s.x[0], s.y[0]))
        assert relative_residual(closed, -direct) < 1e-8


class TestConvexity:
    def test_euclidean(self):
        sample = MetricSample.of([[0.4, 0.1]], [[1.0, 0.7]])
        [(lemma_ok, direct_pd)] = convexity(builtin("euclidean"), sample)
        assert lemma_ok and direct_pd

    def test_funk_in_ball(self):
        metric = builtin("funk")
        for lemma_ok, direct_pd in convexity(metric, samples_for(metric, n=2, count=30)):
            assert lemma_ok and direct_pd

    def test_indefinite_pseudo_profile(self):
        # phi = u - 2 v^2/u stays positive near v=0 but g turns indefinite
        bad = SphericalMetric("pseudo", ClosedFormProfile(lambda r, u, v: u - 2.0 * v * (v / u)))
        x, y = np.array([1.5, 0.0]), np.array([0.0664, 0.9978])  # v = 0.0996
        [(lemma_ok, direct_pd)] = convexity(bad, MetricSample.of([x], [y]))
        assert not direct_pd
        assert not lemma_ok
        # oracle: eigenvalues of g straddle zero
        eig = np.linalg.eigvalsh(fundamental_tensor(bad, x, y))
        assert eig[0] < 0.0 < eig[-1]

    def test_lemma_implies_direct(self):
        for name in builtin_names():
            metric = make_metric(name)
            for lemma_ok, direct_pd in convexity(metric, samples_for(metric, n=2, count=15)):
                assert (not lemma_ok) or direct_pd

    def test_lemma_is_only_sufficient(self):
        # the projective spherical model has phi_vv < 0 everywhere, so the
        # profile criterion fails while g stays positive definite
        metric = builtin("spherical")
        for lemma_ok, direct_pd in convexity(metric, samples_for(metric, n=2, count=15)):
            assert not lemma_ok
            assert direct_pd

    def test_wide_angle_bryant_loses_convexity_far_out(self):
        # observed (and cross-checked against the AD tensor): at alpha=1.2 the
        # metric stays positive but g turns indefinite beyond r ~ 1.4, while
        # alpha=pi/6 is positive definite across the sampled range
        wide = builtin("bryant", alpha=1.2)
        x, y = np.array([1.0, 0.0]), np.array([0.3, 1.0])
        near_far = MetricSample.of([1.2 * x, 1.5 * x], [y, y])
        [(_, near_pd), (_, far_pd)] = convexity(wide, near_far)
        assert near_pd
        assert not far_pd
        eig = np.linalg.eigvalsh(ad_tensors(wide, near_far)[1])
        assert eig[0] < 0.0 < eig[-1]
        assert F_at(wide, 1.5 * x, y) > 0.0
        narrow = make_metric("bryant")
        for _, direct_pd in convexity(narrow, samples_for(narrow, n=3, count=40)):
            assert direct_pd


class TestHomogeneity:
    @pytest.mark.parametrize("name", ["euclidean", "klein", "funk", "berwald", "spherical", "bryant"])
    def test_builtins_homogeneous(self, name):
        metric = make_metric(name)
        rows = samples_for(metric, n=2, count=30)
        b = ProfileBundle.of(metric, rows.x, rows.y)
        assert b.homogeneity_residual().max() <= 1e-10

    def test_quadratic_profile_fails(self):
        bad = SphericalMetric("usq", ClosedFormProfile(lambda r, u, v: u * u))
        assert invariants_bundle(bad, 0.5, 2.0, 0.3).homogeneity_residual()[0] >= 1.0

    def test_euclidean_exactly_zero(self):
        b = invariants_bundle(builtin("euclidean"), 0.5, 2.0, 0.3)
        assert b.homogeneity_residual()[0] == 0.0

    def test_near_orthogonal_sample_stays_clean(self):
        # v ~ 1e-3 once produced a noise ratio ~1e-9 before the identity
        # scales included the generating first-order magnitudes
        b = invariants_bundle(builtin("funk"), 0.11371, 1.9815, 0.00073)
        assert b.homogeneity_residual()[0] <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    @pytest.mark.parametrize("name", ["euclidean", "klein", "funk", "berwald", "spherical", "bryant"])
    def test_metric_scaling_invariance(self, name, lam):
        metric = make_metric(name)
        s = samples_for(metric, n=2, count=20)
        f1 = bundle_of(metric, s.x, s.y).F
        f2 = bundle_of(metric, s.x, lam * s.y).F
        assert (abs(f2 - lam * f1) / (lam * f1)).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_general_metric_scaling_invariance(self, lam):
        from finslercheck.metrics import GeneralMetric

        metric = GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2)
        s = samples_for(builtin("spherical"), n=2, count=10)
        f1 = bundle_of(metric, s.x, s.y).F
        f2 = bundle_of(metric, s.x, lam * s.y).F
        assert (abs(f2 - lam * f1) / (lam * f1)).max() <= 1e-12


def reversibility_at(metric, x, y):
    """``reversibility_residuals`` of the one row (x, y)."""
    return reversibility_residuals(metric, np.array([x], dtype=float), np.array([y], dtype=float))[0]


class TestReversibility:
    def test_klein_even(self):
        # (r, u, v) = (0.5, 1, 0.3)
        assert reversibility_at(builtin("klein"), [0.5, 0.0], [0.6, 0.8]) <= 1e-12

    def test_funk_hand_value(self):
        # phi(0.5,1,0.5) = 2, phi(0.5,1,-0.5) = (1 - 0.5)/0.75 = 2/3
        got = reversibility_at(builtin("funk"), [0.5, 0.0], [1.0, 0.0])
        assert abs(got - 2.0 / 3.0) < 1e-14

    def test_euclidean_zero(self):
        assert reversibility_at(builtin("euclidean"), [0.5, 0.0], [0.6, 0.8]) == 0.0


class TestRiemannianProbe:
    def _directions(self):
        return [np.array(d) for d in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.7, 0.4])]

    def _probe(self, metric):
        """(g deviation, Cartan maximum) at x = (0.5, 0.1) over the four directions."""
        ys = self._directions()
        b = AmbientBundle.of(metric, np.array([[0.5, 0.1]] * len(ys)), np.array(ys))
        return tuple(float(a[0]) for a in riemannian_probe_of(b, len(ys)))

    def test_klein_riemannian(self):
        g_deviation, cartan_max = self._probe(builtin("klein"))
        assert g_deviation <= 1e-9
        assert cartan_max <= 1e-9

    def test_funk_not_riemannian(self):
        g_deviation, _ = self._probe(builtin("funk"))
        assert g_deviation > 0.01

    def test_euclidean_zero(self):
        g_deviation, _ = self._probe(builtin("euclidean"))
        assert g_deviation <= 1e-15  # c_yy combines 1/u^2 with u/u^3: rounding only


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

    @pytest.mark.parametrize("alpha", [True, "0.5", None])
    def test_bryant_parameter_is_a_number(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a number"):
            builtin("bryant", alpha=alpha)

    @pytest.mark.parametrize("name,params", [("bryant", {"alpah": 0.5}), ("funk", {"alpha": 0.5})])
    def test_unknown_parameter_is_refused(self, name, params):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{next(iter(params))}'"):
            builtin(name, **params)

    def test_bryant_zero_equals_spherical(self):
        bryant0 = builtin("bryant", alpha=0.0)
        spherical = builtin("spherical")
        s = samples_for(spherical, n=2, count=500)
        [a] = bryant0.phi_jets(s.r, s.u, s.v, 0)
        [b] = spherical.phi_jets(s.r, s.u, s.v, 0)
        assert (abs(a - b) / b).max() <= 1e-12


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
        b = invariants_bundle(klein_expr, 0.5, 1.2, -0.3)
        assert b.homogeneity_residual()[0] <= 1e-12

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
            f, fx, fy = (a[0] for a in bundle_of(metric, s.x[None], s.y[None]).first_derivatives())
            amb = metric.ambient_jet(s.x, s.y, 1)
            grad = amb.coeffs[1:5]
            assert abs(f - amb.value) < 1e-12
            assert np.abs(fx - grad[:2]).max() < 1e-10
            assert np.abs(fy - grad[2:]).max() < 1e-10


def direct_ambient_jet(metric, x, y, order):
    """The oracle: a closed-form profile's formula on the 2n-variable seed jets of the
    rows of x and y, through |x| = sqrt(x.x), |y| = sqrt(y.y) and <x,y>, as
    (ncoeff, N) coefficients."""
    n = x.shape[1]
    xs = [lift_var(i, x[:, i], 2 * n, order) for i in range(n)]
    ys = [lift_var(n + i, y[:, i], 2 * n, order) for i in range(n)]
    v = sum(a * b for a, b in zip(xs, ys))
    return metric.profile.fn(sqrt(sum(a * a for a in xs)), sqrt(sum(b * b for b in ys)), v).coeffs


def oracle_rows(metric, n):
    """30 sampled rows, then rows with x parallel and antiparallel to y and rows with
    x nearly orthogonal to y (v = 1e-7 |y|): (x, y) as (N, n) arrays."""
    rows = samples_for(metric, n=n, count=30)
    x, y = rows.x, rows.y
    unit = y / np.linalg.norm(y, axis=1)[:, None]
    across = x[8:12] - np.vecdot(x[8:12], unit[8:12])[:, None] * unit[8:12] + 1e-7 * unit[8:12]
    return np.concatenate([x, 0.4 * unit[:4], -0.7 * unit[4:8], across]), np.concatenate([y, y[:12]])


# Funk and Berwald at n = 2, sampled row 14 (r = 0.909, v = -0.977 r u): their w + v
# cancels about tenfold there, and both routes carry it into the third x-derivatives.
# Against an mpmath reference (40 digits) the composed jet is 5.9e-13 (funk) and
# 1.2e-12 (berwald) of the row's largest coefficient off, the direct one 8.2e-13 and
# 2.9e-13.  Every other (metric, n, order) agrees to <= 4.5e-14.
ORACLE_RTOL = {("funk", 2, 3): 1e-12, ("berwald", 2, 3): 3e-12}


class TestComposedAmbientJet:
    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_direct_route(self, name, n):
        # the profile jet composed through (|x|^2, |y|^2, <x,y>) against the profile's
        # formula on ambient jets, column by column, relative to the column's largest entry
        metric = make_metric(name)
        x, y = oracle_rows(metric, n)
        for order in range(4):
            got = metric.ambient_jet(x.T, y.T, order).coeffs
            want = direct_ambient_jet(metric, x, y, order)
            error = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
            assert error.max() <= ORACLE_RTOL.get((name, n, order), 1e-13), (order, error.argmax())

    @pytest.mark.parametrize("name", builtin_names())
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_columns_equal_one_point_jets(self, name, n):
        # 88 rows (wider than a cached product scatter), signed-zero axis rows among them
        metric = make_metric(name)
        x, y = (np.concatenate(p) for p in zip(edge_rows(metric, n, origin=False), oracle_rows(metric, n)))
        for order in range(4):
            chunk = metric.ambient_jet(x.T, y.T, order).coeffs
            for j in range(len(x)):
                one = metric.ambient_jet(x[j], y[j], order).coeffs
                assert one.tobytes() == chunk[:, j].tobytes(), (order, j)

    def test_bryant_chunk_makes_at_most_ten_eight_variable_products(self, monkeypatch):
        # the profile runs on 3-variable jets; in 8 variables only the composition
        # multiplies (one gathered product per degree), where the profile's formula on
        # 8-variable jets made about 34
        from finslercheck import jets

        eight = []
        for name, is_eight in (
            ("_product", lambda a, args: args[0] == 8),
            ("_gather_sum", lambda a, args: len(a) == 3 * coeff_count(8, 3)),  # stacked inner jets
        ):
            original = getattr(jets, name)

            def counting(a, b, *args, original=original, is_eight=is_eight):
                eight.extend([1] if is_eight(a, args) else [])
                return original(a, b, *args)

            monkeypatch.setattr(jets, name, counting)
        metric = make_metric("bryant")
        rows = samples_for(metric, n=4, count=25)
        x, y = rows.x, rows.y
        metric.ambient_jet(x.T, y.T, 3)
        assert 0 < len(eight) <= 10

    def test_family_chunk_runs_one_phi_jets_and_no_per_column_composition(self, monkeypatch):
        from finslercheck import metrics
        from finslercheck.family import FamilyProfile

        metric = AMBIENT_CASES["family"][0]()
        chunk = AMBIENT_CHUNK
        rows = samples_for(metric, n=2, count=2 * chunk + 10)
        x, y = rows.x, rows.y
        widths, composed = [], []
        jet, compose = FamilyProfile.jet, metrics.compose_multivariate

        def counting_jet(self, r, u, v, order):
            widths.append(np.size(r))
            return jet(self, r, u, v, order)

        def counting_compose(outer, inners):
            composed.append(outer.coeffs.shape[1:])
            return compose(outer, inners)

        monkeypatch.setattr(FamilyProfile, "jet", counting_jet)
        monkeypatch.setattr(metrics, "compose_multivariate", counting_compose)
        AmbientBundle.of(metric, x, y, 3)
        assert widths == [2 * chunk + 10]  # one phi_jets call over every row
        # per chunk, (r, u, v) -> (rho, mu, v) -> ambient, all its columns at once
        assert composed == [(chunk,), (chunk,)] * 2 + [(10,), (10,)]

    def test_origin_is_refused(self):
        with pytest.raises(JetDomainError, match="not differentiable at x = 0"):
            builtin("funk").ambient_jet(np.zeros(2), np.array([0.3, 0.4]), 1)


AMBIENT_CASES = {
    "bryant_n4": (lambda: make_metric("bryant"), 4),
    "funk": (lambda: builtin("funk"), 2),
    # the family's profile takes only its own 3-variable jets, like every profile here
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


def _bundle_parts(b, spray=True):
    """Every array the ambient bundle offers; ``spray`` False leaves out the spray,
    which needs a positive definite g."""
    return (
        b.f.coeffs.T,
        *b.first_derivatives(),
        b.f_xy(),
        b.g(),
        b.dg_dx(),
        b.cartan(),
        *([b.spray()] if spray else []),
    )


class TestAmbientBundle:
    @pytest.mark.parametrize("case", sorted(AMBIENT_CASES))
    def test_stacked_columns_equal_one_point_bundles(self, case):
        build, n = AMBIENT_CASES[case]
        metric = build()
        spec = SampleSpec.for_metric(n=n, count=4, seed=7, domain_radius=metric.domain_radius)
        samples = sample_domain(spec)
        stacked = _bundle_parts(AmbientBundle.of(metric, samples.x, samples.y))
        for k in range(len(samples)):
            one = _bundle_parts(AmbientBundle.of(metric, samples.x[k : k + 1], samples.y[k : k + 1]))
            for got, want in zip(stacked, one):
                assert got[k].tobytes() == want[0].tobytes(), (case, k)

    def test_blocks_match_the_energy_jet(self):
        # g, dg/dx, C and the spray's bracket are the y-blocks of E = F^2, scaled by
        # 1/2, 1/2, 1/4 and 1/4; the bundle forms them from F alone by the product rule
        cases = [(lambda name=name: make_metric(name), n) for name in builtin_names() for n in (2, 3, 4)]
        cases += [AMBIENT_CASES["family"], AMBIENT_CASES["anisotropic"]]
        for build, n in cases:
            metric = build()
            spec = SampleSpec.for_metric(n=n, count=3, seed=7, domain_radius=metric.domain_radius)
            rows = sample_domain(spec)
            x, y = rows.x, rows.y
            f = AmbientBundle.of(metric, x, y).f
            e = Jet(f.nvars, 3, f.coeffs) * Jet(f.nvars, 3, f.coeffs)
            e2, e3 = (np.moveaxis(e.partials(*[range(2 * n)] * k), -1, 0) for k in (2, 3))
            bracket = np.einsum("nkl,nk->nl", e2[:, :n, n:], y) - e.coeffs[1 : 1 + n].T
            spray = 0.25 * np.linalg.solve(e2[:, n:, n:] / 2.0, bracket[:, :, None])[:, :, 0]
            b = AmbientBundle.of(metric, x, y)
            g_scale = np.abs(b.g()).reshape(len(x), -1).max(axis=1)  # for blocks that vanish (euclidean)
            for got, want in (
                (b.g(), e2[:, n:, n:] / 2.0),
                (b.dg_dx(), e3[:, :n, n:, n:] / 2.0),
                (b.cartan(), e3[:, n:, n:, n:] / 4.0),
                (b.spray(), spray),
            ):
                scale = np.maximum(np.abs(want).reshape(len(x), -1).max(axis=1), g_scale)
                error = np.abs(got - want).reshape(len(x), -1).max(axis=1) / scale
                assert error.max() <= 1e-14, (metric.name, n, error)

    def test_tensors_are_built_once(self):
        metric = make_metric("bryant")
        rows = samples_for(metric, n=3, count=2)
        b = AmbientBundle.of(metric, rows.x, rows.y)
        assert b.g() is b.g() and b.dg_dx() is b.dg_dx() and b.cartan() is b.cartan()


CHUNKED_CASES = {
    **AMBIENT_CASES,
    "constant": (lambda: GeneralMetric.from_expression("1.5", 2), 2),  # a one-point jet per chunk
}


def _ambient_widths(monkeypatch):
    """Record how many samples each ambient_jet call lifts (1 for one point)."""
    widths = []
    for cls in (SphericalMetric, GeneralMetric):
        original = cls.ambient_jet

        def counting(self, x, y, order, *columns, original=original):
            widths.append(np.shape(x)[1] if np.ndim(x) == 2 else 1)
            return original(self, x, y, order, *columns)

        monkeypatch.setattr(cls, "ambient_jet", counting)
    return widths


class TestChunkedAmbientBundle:
    @pytest.mark.parametrize("case", sorted(CHUNKED_CASES))
    def test_columns_equal_one_sample_bundles(self, case):
        build, n = CHUNKED_CASES[case]
        metric = build()
        chunk = AMBIENT_CHUNK
        spec = SampleSpec.for_metric(n=n, count=2 * chunk + 1, seed=11, domain_radius=metric.domain_radius)
        samples = sample_domain(spec)
        spray = case != "constant"  # F = 1.5 has g = 0
        ones = [
            _bundle_parts(AmbientBundle.of(metric, x[None], y[None]), spray) for x, y in zip(samples.x, samples.y)
        ]
        for count in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            chunked = _bundle_parts(AmbientBundle.of(metric, samples.x[:count], samples.y[:count]), spray)
            for k in range(count):
                for got, want in zip(chunked, ones[k]):
                    assert got[k].tobytes() == want[0].tobytes(), (case, count, k)

    def test_failing_chunk_names_its_first_failing_sample(self, monkeypatch):
        # log(x1 + 1) has no value where x1 <= -1: samples chunk + 5 and chunk + 16,
        # both in the second chunk
        from finslercheck.expr import EvalDomainError

        chunk = AMBIENT_CHUNK
        metric = GeneralMetric.from_expression("sqrt(y1^2+y2^2)*log(x1+1)", 2)
        rng = np.random.default_rng(5)
        xs, ys = rng.uniform(-0.9, 0.9, (2 * chunk + 10, 2)), rng.uniform(-1.0, 1.0, (2 * chunk + 10, 2))
        xs[[chunk + 5, chunk + 16], 0] = -1.5
        samples = MetricSample.of(xs, ys)
        widths = _ambient_widths(monkeypatch)
        with pytest.raises(EvalDomainError, match="log requires a positive argument") as err:
            Run(metric, samples).ambient
        assert same_pair(err.value.sample, samples[chunk + 5])
        # the first chunk, the failing second, then its rows chunk..chunk+4 before the bad one
        assert widths == [chunk, chunk, 5]

    def test_indexed_error_in_a_later_chunk_names_its_sample(self, monkeypatch):
        # a family profile error with an index counts triples of the bundle's one
        # phi_jets call over all rows; only the rows before it are evaluated again,
        # as one batch, and no chunk is composed
        from finslercheck.family import FamilyProfile, QuadratureError

        metric = AMBIENT_CASES["family"][0]()
        original, evaluated = FamilyProfile.jet, []

        def jet(self, r, u, v, order):
            evaluated.append(np.size(r))
            far = np.atleast_1d(r) > 0.6
            if far.any():
                err = QuadratureError("no convergence")
                err.index = int(far.argmax())
                raise err
            return original(self, r, u, v, order)

        monkeypatch.setattr(FamilyProfile, "jet", jet)
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(-0.3, 0.3, (40, 2)), rng.uniform(0.5, 1.0, (40, 2))
        xs[30] = [0.7, 0.0]
        samples = MetricSample.of(xs, ys)
        widths = _ambient_widths(monkeypatch)
        with pytest.raises(QuadratureError) as err:
            Run(metric, samples).ambient
        assert same_pair(err.value.sample, samples[30])
        assert evaluated == [40, 30] and widths == []

    def test_no_ambient_jet_lifts_more_than_a_chunk(self, monkeypatch):
        chunk = AMBIENT_CHUNK
        count = 2 * chunk + 10
        widths = _ambient_widths(monkeypatch)
        bryant = make_metric("bryant")
        rows = samples_for(bryant, n=4, count=count)
        AmbientBundle.of(bryant, rows.x, rows.y)
        assert widths == [chunk, chunk, 10]
        widths.clear()
        anisotropic = GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2)
        b = bundle_of(anisotropic, np.ones((count, 2)), np.ones((count, 2)))
        assert isinstance(b, AmbientBundle) and b.f.coeffs.shape[1] == count
        assert widths == [chunk, chunk, 10] and max(widths) == AMBIENT_CHUNK


SURFACE_CASES = {
    "funk": (lambda: builtin("funk"), 2),
    "klein": (lambda: builtin("klein"), 2),
    "bryant_n3": (lambda: make_metric("bryant"), 3),
    "family": AMBIENT_CASES["family"],
    # not projective: its Rapcsak residuals are O(1)
    "curved_control": (
        lambda: SphericalMetric("curved_control", ClosedFormProfile(lambda r, u, v: u * (1.0 + r * r))),
        2,
    ),
}


def _agree(a, b, rtol=1e-10):
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


class TestSharedSurface:
    @pytest.mark.parametrize("case", sorted(SURFACE_CASES))
    def test_profile_and_ambient_bundles_agree(self, case):
        build, n = SURFACE_CASES[case]
        metric = build()
        spec = SampleSpec.for_metric(n=n, count=6, seed=7, domain_radius=metric.domain_radius)
        samples = sample_domain(spec)
        profile = bundle_of(metric, samples.x, samples.y)
        ambient = AmbientBundle.of(metric, samples.x, samples.y, 2)
        assert isinstance(profile, ProfileBundle)
        for got, want in zip(profile.first_derivatives(), ambient.first_derivatives()):
            assert _agree(got, want), case
        assert _agree(profile.g(), ambient.g()), case
        assert _agree(profile.spray(), ambient.spray()), case
        assert _agree(profile.f_xy(), ambient.f_xy()), case
        # one Rapcsak definition over the two F_xy: the scale-free residuals agree to
        # rounding, O(1) for the curved control and rounding noise for the rest
        gap = np.abs(profile.rapcsak_residuals() - ambient.rapcsak_residuals()).max()
        assert gap <= 1e-10, case

    def test_general_metric_gets_an_order_2_ambient_bundle(self):
        metric = GeneralMetric.from_expression("sqrt(2*y1^2 + y2^2)", 2)
        rows = samples_for(builtin("euclidean"), count=3)
        b = bundle_of(metric, rows.x, rows.y)
        assert isinstance(b, AmbientBundle) and b.f.order == 2
