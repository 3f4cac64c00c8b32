"""Reductions behind the check records: no check may pass vacuously."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import samples_for
from finslercheck import geodesics as geo
from finslercheck.checks import CHECKS, ConfigError, Run, run_check
from finslercheck.cli import run_config
from finslercheck.jets import EvaluationError
from finslercheck.metrics import (
    AMBIENT_CHUNK,
    AmbientBundle,
    ClosedFormProfile,
    ExpressionProfile,
    GeneralMetric,
    MetricSample,
    ProfileBundle,
    SphericalMetric,
    builtin,
    positive_definite,
    worst_residual,
)
from finslercheck.report import Report, to_json, to_text
from finslercheck.sampling import SampleSpec, sample_domain

residuals = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e3),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
    min_size=1,
    max_size=30,
)


@given(residuals)
def test_worst_residual_puts_non_finite_first(values):
    worst, at, non_finite = worst_residual(values)
    bad = [i for i, v in enumerate(values) if not math.isfinite(v)]
    finite = [v for v in values if math.isfinite(v)]
    assert non_finite == len(bad)
    assert math.isfinite(worst)
    assert worst == (max(finite) if finite else 0.0)
    # the first non-finite entry, else the first maximum
    assert at == (bad[0] if bad else values.index(max(values)))


def _overflowing_metric():
    """A rotation-invariant F whose jets overflow: every residual is NaN."""
    return GeneralMetric.from_expression("sqrt(y1^2 + y2^2) * 1e200 * 1e200", 2, name="overflow")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_nan_residuals_fail_every_reduction():
    metric = _overflowing_metric()
    samples = sample_domain(SampleSpec.for_metric(n=2, count=6, seed=3))
    report = Report(metric=metric.name, dimension=2, seed=3, count=len(samples))
    for check in ("symmetry", "symmetry_tensor", "cartan"):
        [record] = run_check(check, Run(metric, samples), {})
        assert not record.passed, check
        # one residual per sample (and per field: n = 2 has one), every one NaN
        assert record.detail["non_finite_residuals"] == len(samples), check
        assert record.worst_x == list(samples[0].x), check
        report.records.append(record)
    assert json.loads(to_json(report))["overall_pass"] is False


def test_geodesic_that_stops_early_fails():
    # klein's profile leaves its domain at |x| = 1, but with an unbounded
    # domain radius the horizon is not shortened, so the path stops early
    unbounded = SphericalMetric("klein_unbounded", builtin("klein").profile)
    sample = MetricSample.of([[0.9, 0.0]], [[1.9, 0.1]])
    [record] = run_check("geodesics", Run(unbounded, sample), {"count": 1, "steps": 10, "horizon": 5.0})
    assert record.max_residual <= 1e-6
    assert not record.passed
    assert record.detail["min_steps_completed"] == 0
    assert record.detail["first_exit_time"] == 0.0


def test_completed_geodesics_pass_and_say_so():
    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=3, seed=11, domain_radius=1.0))
    [record] = run_check("geodesics", Run(funk, samples), {"count": 2, "steps": 20})
    assert record.passed
    assert record.detail["min_steps_completed"] == 20
    assert record.detail["first_exit_time"] is None
    assert record.detail["steps_completed"] == [20, 20]
    assert record.detail["exit_times"] == [None, None]
    assert np.isfinite(record.max_residual)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("params", [{}, {"lambda": -0.25}])
def test_overflowing_curvature_fails_both_records(params):
    funk = builtin("funk").profile.fn
    huge = SphericalMetric("huge_funk", ClosedFormProfile(lambda r, u, v: funk(r, u, v) * 1e200 * 1e200), 1.0)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=5, seed=7, domain_radius=1.0))
    records = run_check("curvature", Run(huge, samples), params)
    assert [r.check for r in records] == ["curvature", "curvature_pde"]
    for record in records:
        assert not record.passed, record.check
        assert record.detail["non_finite_residuals"] == len(samples), record.check
        assert record.worst_x == list(samples[0].x), record.check
    assert records[0].detail["lambda_estimate"] is None
    report = Report(metric=huge.name, dimension=2, seed=7, count=len(samples), records=records)
    assert json.loads(to_json(report))["overall_pass"] is False


def _write(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_non_positive_general_metric_fails(tmp_path):
    # |y| + 3 x1 y1 satisfies Rapcsak's equation exactly but is negative
    # wherever 3 x1 y1 < -|y|, so it is no Finsler metric there
    cfg = {
        "metric": {"general": {"F": "sqrt(y1^2+y2^2) + 3*x1*y1", "name": "negative"}},
        "dimension": 2,
        "sampling": {"count": 50, "seed": 7},
        "checks": ["rapcsak", "symmetry", "cartan"],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 1
    samples = sample_domain(SampleSpec.for_metric(n=2, count=50, seed=7))
    f = np.array([np.linalg.norm(s.y) + 3.0 * s.x[0] * s.y[0] for s in samples])
    assert (f <= 0.0).any() and (f > 0.0).any()
    first = int(np.argmax(f <= 0.0))
    rapcsak = report.records[0]
    assert rapcsak.max_residual <= 1e-12  # the residual alone would pass
    for record in report.records:
        assert not record.passed, record.check
        assert record.detail["non_positive_F"] == int((f <= 0.0).sum()), record.check
        assert record.worst_x == list(samples[first].x), record.check


def test_convexity_fails_a_negative_F():
    # phi = -u has the positive definite g of |y| (g is read from F^2) but is no metric
    metric = SphericalMetric("negative", ExpressionProfile("-u"), 1.0)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=5, seed=7, domain_radius=1.0))
    [record] = run_check("convexity", Run(metric, samples), {})
    assert record.max_residual == 0.0  # the fraction of samples whose g does not factorise
    assert not record.passed
    assert record.detail["non_positive_F"] == 5
    assert record.worst_x == list(samples[0].x)


@pytest.mark.parametrize("phi", ["0*u", "-u"])
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_every_check_fails_where_F_is_not_positive(check, phi):
    # F = 0 and F = -u have every value the checks' formulas need, and passed 7 records
    # in all (det_g on both; curvature, curvature_pde, homogeneity, reversibility and
    # conjecture on -u); five checks divided 0 by 0 on F = 0
    metric = SphericalMetric("non_positive", ExpressionProfile(phi), 1.0)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=10, seed=7, domain_radius=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_check(check, Run(metric, samples), {})
    for record in records:
        assert not record.passed, record.check
        assert record.detail["non_positive_F"] == 10, record.check
        assert (record.worst_x, record.worst_y) == (list(samples[0].x), list(samples[0].y)), record.check


def test_convexity_names_the_first_sample_whose_g_does_not_factorise():
    # u + v^2/u > 0 has phi_u < 0 where |v| > u, so from n = 3 on its g fails there: the
    # stacked factorisation fails, and the fraction and the named sample are those of
    # a Cholesky row by row
    metric = SphericalMetric("wide", ExpressionProfile("u + v*v/u"))
    samples = sample_domain(SampleSpec.for_metric(n=3, count=30, seed=7))
    failed = [not positive_definite(g) for g in ProfileBundle.of(metric, samples.x, samples.y).g()]
    assert any(failed) and not all(failed)
    [record] = run_check("convexity", Run(metric, samples), {})
    assert not record.passed
    assert record.max_residual == sum(failed) / len(samples)
    assert record.worst_x == list(samples[failed.index(True)].x)


def test_run_config_builds_one_ambient_jet_per_sample(tmp_path, monkeypatch):
    # the bundle is built once: every sample composed exactly once, in chunks of at
    # most AMBIENT_CHUNK, from the profile columns the run evaluated once over all samples
    chunk = AMBIENT_CHUNK
    lifted = []
    original = SphericalMetric.ambient_jet

    def counting(self, x, y, order, *columns):
        lifted.append((np.asarray(x).T.reshape(-1, 4), order, [c.shape for c in columns]))
        return original(self, x, y, order, *columns)

    monkeypatch.setattr(SphericalMetric, "ambient_jet", counting)
    cfg = {
        "metric": {"name": "bryant", "params": {"alpha": 0.5235987755982988}},
        "dimension": 4,
        "sampling": {"count": 2 * chunk + 10, "seed": 7},
        "checks": ["symmetry_tensor", "cartan", "fundamental_ad"],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 0
    assert [(len(x), order, shapes) for x, order, shapes in lifted] == [
        (chunk, 3, [(20, chunk)]),
        (chunk, 3, [(20, chunk)]),
        (10, 3, [(20, 10)]),
    ]
    samples = sample_domain(SampleSpec.for_metric(n=4, count=2 * chunk + 10, seed=7))
    assert np.array_equal(np.concatenate([x for x, _, _ in lifted]), samples.x)


BRYANT_N4_PROFILE_CHECKS = [
    "symmetry",
    "rapcsak",
    {"name": "curvature", "params": {"lambda": 1.0}},
    "det_g",
    "convexity",
    "homogeneity",
]


@pytest.mark.parametrize(
    "checks, order",
    [
        (BRYANT_N4_PROFILE_CHECKS + ["symmetry_tensor", "cartan", "fundamental_ad"], 3),
        (["symmetry_tensor"] + BRYANT_N4_PROFILE_CHECKS, 3),
        (BRYANT_N4_PROFILE_CHECKS, 2),
    ],
)
def test_run_config_evaluates_the_profile_once(tmp_path, monkeypatch, checks, order):
    # both bundles read one phi_jets call over all samples, at order 3 when a check
    # reads the ambient bundle and at order 2 otherwise; the records are those of
    # the checks run one config each
    cfg = {
        "metric": {"name": "bryant", "params": {"alpha": 0.5235987755982988}},
        "dimension": 4,
        "sampling": {"count": 60, "seed": 7},
        "checks": checks,
    }
    alone = [run_config(_write(tmp_path, dict(cfg, checks=[c])))[0].records[0] for c in checks]
    calls = []
    original = SphericalMetric.phi_jets

    def counting(self, r, u, v, order=2):
        calls.append((len(r), order))
        return original(self, r, u, v, order)

    monkeypatch.setattr(SphericalMetric, "phi_jets", counting)
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 0
    assert calls == [(60, order)]
    assert [r for r in report.records if r.check != "curvature_pde"] == alone


def test_order_3_failure_fails_every_bundle_check(monkeypatch):
    # sqrt(q) at q = 1e-150 (sample 3, r = 0.5): h''' = 0.375 / (sqrt(q) q^2) overflows
    # and h'' does not, and q's jet there has no first-order part, so the order-3 jet
    # is not finite and the order-2 jet is.  The run evaluates the profile once, at
    # order 3, so the profile checks fail with the ambient checks and name sample 3
    metric = SphericalMetric("near_kink", ExpressionProfile("u*(1 + sqrt((r - 0.5)^2 + 1e-150)) + 0*v"))
    rng = np.random.default_rng(2)
    xs, ys = rng.uniform(0.2, 0.4, (8, 2)), rng.uniform(0.5, 1.0, (8, 2))
    xs[3] = [0.3, 0.4]
    samples = MetricSample.of(xs, ys)
    names = ("homogeneity", "convexity", "det_g", "symmetry_tensor", "cartan")
    calls = []
    original = SphericalMetric.phi_jets

    def counting(self, r, u, v, order=2):
        calls.append((len(r), order))
        return original(self, r, u, v, order)

    monkeypatch.setattr(SphericalMetric, "phi_jets", counting)
    run = Run(metric, samples, checks=names)
    records = {name: run_check(name, run, {}) for name in names}
    errors = set()
    for name in names:
        [record] = records[name]
        assert not record.passed and record.worst_x == [0.3, 0.4], name
        assert "non-finite jet coefficients" in record.detail["evaluation_error"], name
        errors.add(record.detail["evaluation_error"])
    assert len(errors) == 1
    # the one order-3 call and the rerun confirming samples 0..2; nothing is retried
    assert calls == [(8, 3), (3, 3)]


@pytest.mark.parametrize("origin", [1, 5])
def test_order_3_failure_or_an_earlier_origin_fails_the_ambient_checks(origin):
    # the failure of the shared order-3 call above (sample 3), and x = 0 at sample
    # ``origin``: the ambient checks name whichever comes first, as the ambient
    # bundle's own evaluation does
    metric = SphericalMetric("near_kink", ExpressionProfile("u*(1 + sqrt((r - 0.5)^2 + 1e-150)) + 0*v"))
    rng = np.random.default_rng(2)
    xs, ys = rng.uniform(0.2, 0.4, (8, 2)), rng.uniform(0.5, 1.0, (8, 2))
    xs[3], xs[origin] = [0.3, 0.4], [0.0, 0.0]
    samples = MetricSample.of(xs, ys)
    with pytest.raises(EvaluationError) as own:
        AmbientBundle.of(metric, xs, ys)
    run = Run(metric, samples, checks=("symmetry_tensor", "cartan"))
    for name in run.checks:
        [record] = run_check(name, run, {})
        assert not record.passed
        assert record.worst_x == list(xs[min(origin, 3)])
        assert record.detail["evaluation_error"] == str(own.value)


def test_evaluation_failure_is_a_failed_check(tmp_path):
    # log(x1+1) has no value where x1 <= -1: each check fails at the first such sample
    cfg = {
        "metric": {"general": {"F": "sqrt(y1^2+y2^2)*log(x1+1)"}},
        "dimension": 2,
        "sampling": {"count": 20, "seed": 7},
        "checks": ["symmetry", "rapcsak"],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 1
    samples = sample_domain(SampleSpec.for_metric(n=2, count=20, seed=7))
    first = next(s for s in samples if s.x[0] + 1.0 <= 0.0)
    assert [r.check for r in report.records] == ["symmetry", "rapcsak"]
    for record in report.records:
        assert not record.passed, record.check
        assert math.isfinite(record.max_residual), record.check
        assert record.worst_x == list(first.x) and record.worst_y == list(first.y), record.check
        assert "log requires a positive argument" in record.detail["evaluation_error"]
    assert json.loads(to_json(report))["overall_pass"] is False


@given(st.floats(min_value=0.5, max_value=2.5))
def test_evaluation_failures_name_their_first_sample(shift):
    metric = GeneralMetric.from_expression(f"sqrt(y1^2+y2^2)*log(x1+{shift!r})", 2)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=8, seed=5))
    bad = [s for s in samples if s.x[0] + shift <= 0.0]
    run = Run(metric, samples)
    for check in ("symmetry", "rapcsak", "cartan"):
        [record] = run_check(check, run, {})
        assert ("evaluation_error" in record.detail) == bool(bad), check
        if bad:
            assert not record.passed, check
            assert record.worst_x == list(bad[0].x), check


def test_profile_evaluation_failure_fails_each_check_once():
    # sqrt(1.5 - r) has no value beyond r = 1.5, inside the sampled ball of radius 2
    metric = SphericalMetric("root", ExpressionProfile("u*sqrt(1.5 - r) + 0.1*v"))
    samples = sample_domain(SampleSpec.for_metric(n=2, count=30, seed=7))
    first = next(s for s in samples if s.r >= 1.5)
    run = Run(metric, samples)
    for check in ("homogeneity", "reversibility", "curvature", "symmetry_tensor", "conjecture"):
        [record] = run_check(check, run, {})
        assert not record.passed, check
        assert record.worst_x == list(first.x), check
        assert "sqrt requires a positive argument" in record.detail["evaluation_error"], check


def test_smoothness_probe_failure_names_its_sample():
    # phi has a value at every sample (|v| > 3.2e-6) but none at the conjecture's
    # smoothness probe, v = +-1e-6 off the samples: the record fails at the probed sample
    profile = ExpressionProfile("sqrt(u^2*(1-r^2)+v^2)/(1-r^2) + 0*sqrt(v^2 - 1e-11)")
    metric = SphericalMetric("klein_expr", profile, 1.0, -1.0)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=20, seed=3, domain_radius=1.0))
    run = Run(metric, samples)
    for check in ("reversibility", "curvature"):
        assert all(record.passed for record in run_check(check, run, {})), check
    [record] = run_check("conjecture", run, {})
    assert not record.passed
    assert record.worst_x == list(samples[0].x) and record.worst_y == list(samples[0].y)
    assert "sqrt requires a positive argument" in record.detail["evaluation_error"]


def test_conjecture_probe_reads_the_runs_ambient_bundle(monkeypatch):
    # klein is reversible, of constant curvature and Riemannian: the probe reads the
    # Cartan size at every sample from the ambient bundle composed from the run's one
    # order-3 profile evaluation, which the homogeneity gate builds first; the other
    # calls are reversibility's and the kink probe's
    klein = builtin("klein")
    samples = samples_for(klein, n=2, count=25)
    calls = []
    original = SphericalMetric.phi_jets

    def counting(self, r, u, v, order=2):
        calls.append((len(r), order))
        return original(self, r, u, v, order)

    monkeypatch.setattr(SphericalMetric, "phi_jets", counting)
    run = Run(klein, samples, checks=("conjecture",))
    [record] = run_check("conjecture", run, {})
    assert record.passed and record.detail["riemannian"]
    assert record.max_residual == record.detail["probe_deviation"] <= 1e-12
    assert calls == [(25, 3), (50, 0), (8, 1)]  # the mirrored calls evaluate two triples a row
    assert "ambient" in run._built


@pytest.mark.parametrize("value", [math.nan, 0.5])
def test_conjecture_probe_fails_and_names_its_worst_sample(monkeypatch, value):
    # a y-dependent g, or a probe with no value, at sample 3 of klein: the record
    # fails there, and a non-finite value is counted, not lost to the finite max
    from finslercheck import symmetry

    klein = builtin("klein")
    samples = samples_for(klein, n=2, count=25)

    def planted(b):
        sizes = np.zeros(len(b.x))
        sizes[3] = value
        return sizes

    monkeypatch.setattr(symmetry, "cartan_size_of", planted)
    [record] = run_check("conjecture", Run(klein, samples), {})
    assert not record.passed and not record.detail["riemannian"]
    assert record.worst_x == list(samples[3].x) and record.worst_y == list(samples[3].y)
    assert record.detail.get("non_finite_residuals", 0) == (0 if value == 0.5 else 1)
    assert record.max_residual == (value if value == 0.5 else 0.0)
    assert record.detail["conclusion"].startswith("inconsistent" if value == 0.5 else "undecided")


@pytest.mark.parametrize("count, origin", [(4, 2), (2 * AMBIENT_CHUNK + 10, AMBIENT_CHUNK + 5)])
def test_origin_at_a_later_row_fails_the_ambient_checks(count, origin):
    # the order-3 profile evaluates at x = 0, and the ambient bundle, composed from
    # its columns, refuses that row: each chunk's rebuild of the rows before it reads
    # only their columns
    funk = builtin("funk")
    rng = np.random.default_rng(4)
    xs, ys = rng.uniform(-0.3, 0.3, (count, 2)), rng.uniform(0.5, 1.0, (count, 2))
    xs[origin] = [0.0, 0.0]
    samples = MetricSample.of(xs, ys)
    run = Run(funk, samples, checks=("cartan", "symmetry_tensor", "homogeneity"))
    assert run_check("homogeneity", run, {})[0].passed
    for name in ("cartan", "symmetry_tensor"):
        [record] = run_check(name, run, {})
        assert not record.passed, name
        assert record.worst_x == [0.0, 0.0] and record.worst_y == list(ys[origin]), name
        assert "not differentiable at x = 0" in record.detail["evaluation_error"], name


@pytest.mark.parametrize("phi", ["0*u", "u^2*(r - 0.5)"])
def test_projective_pde_fails_where_F_is_not_positive(phi):
    # phi = 0 passed projective_pde at 0.0: its homogeneity residual is NaN (with no
    # warning), which the gate's finite max passes, so F = 0 fails the record; the
    # gated record of a profile that is not 1-homogeneous fails at F <= 0 as well
    samples = sample_domain(SampleSpec.for_metric(n=2, count=10, seed=7))
    [record] = run_check("projective_pde", Run(SphericalMetric("flat", ExpressionProfile(phi)), samples), {})
    non_positive = samples.r <= (0.5 if "r" in phi else np.inf)
    assert not record.passed
    assert record.detail["non_positive_F"] == int(non_positive.sum()) > 0
    assert record.worst_x == list(samples[int(non_positive.argmax())].x)
    assert ("status" in record.detail) == ("r" in phi)


def test_kink_probe_names_its_first_failing_sample():
    # phi has a value at the samples (|v| >= 0.01), but at the kink probe's
    # v = +-1e-6 only where r < 0.3: samples 0 and 1 probe smooth, sample 2 fails
    profile = ExpressionProfile("sqrt(u^2*(1-r^2)+v^2)/(1-r^2) + 0*sqrt(v^2 - 1e-12*(r + 0.7))")
    metric = SphericalMetric("klein_probe_cut", profile, 1.0, -1.0)
    x = [[0.1, 0.0], [0.2, 0.05], [0.5, 0.1], [0.1, 0.6], [0.4, 0.0]]
    y = [[1.0, 0.3], [0.5, 1.0], [0.2, 1.0], [1.0, 0.5], [0.3, 1.0]]
    run = Run(metric, MetricSample.of(x, y))
    assert all(record.passed for record in run_check("curvature", run, {}))
    [record] = run_check("conjecture", run, {})
    assert not record.passed
    assert record.worst_x == x[2] and record.worst_y == y[2]
    assert "sqrt requires a positive argument" in record.detail["evaluation_error"]


def test_failed_bundle_build_is_cached(tmp_path, monkeypatch):
    # the first bad sample of log(x1+1) is at index 2: the order-2 bundle that
    # symmetry and rapcsak share fails once (its 20-sample chunk, then one bundle
    # of samples 0..1 to confirm they pass), not once per check
    calls = []
    original = GeneralMetric.ambient_jet

    def counting(self, x, y, order):
        calls.append(np.shape(x)[1:])
        return original(self, x, y, order)

    monkeypatch.setattr(GeneralMetric, "ambient_jet", counting)
    cfg = {
        "metric": {"general": {"F": "sqrt(y1^2+y2^2)*log(x1+1)"}},
        "dimension": 2,
        "sampling": {"count": 20, "seed": 7},
        "checks": ["symmetry", "rapcsak"],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 1
    assert calls == [(20,), (2,)]
    first, second = report.records
    assert first.detail["evaluation_error"] == second.detail["evaluation_error"]


def _first_sample_failing_alone(read, metric, samples):
    """The reference naming rule: the first sample whose own one-sample ``Run``
    raises on ``read``, with that error's message (None, None if none does)."""
    for i in range(len(samples)):
        try:
            read(Run(metric, samples[i : i + 1]))
        except EvaluationError as err:
            return samples[i], str(err)
    return None, None


# |x| of each kind of row: inside both limits, past sqrt(1.5 - r), past the domain radius
ROW_RADII = {"in": (0.1, 1.4), "root": (1.55, 1.75), "outside": (1.85, 2.5)}


@given(
    st.dictionaries(st.integers(0, 59), st.sampled_from(["root", "outside"]), min_size=1, max_size=4),
    st.integers(0, 10),
    st.integers(0, 2**32 - 1),
)
def test_a_failed_build_names_the_first_sample_that_fails_alone(failing, tail, seed):
    # two operations fail: the domain test (r >= 1.8) before the profile jet, and
    # sqrt(1.5 - r) inside it; a batch names the sample a per-sample loop names first
    metric = SphericalMetric("root", ExpressionProfile("u*sqrt(1.5 - r) + 0.1*v"), 1.8)
    kinds = [failing.get(i, "in") for i in range(max(failing) + 1 + tail)]
    rng = np.random.default_rng(seed)
    radii = np.array([rng.uniform(*ROW_RADII[k]) for k in kinds])
    turn = rng.uniform(0.0, 2.0 * np.pi, (2, len(kinds)))
    xs = (radii * [np.cos(turn[0]), np.sin(turn[0])]).T
    ys = (rng.uniform(0.2, 1.5, len(kinds)) * [np.cos(turn[1]), np.sin(turn[1])]).T
    samples = MetricSample.of(xs, ys)
    reads = {
        "profile": lambda run: run.profile,
        "reversibility": lambda run: run.reversibility,
        "ambient": lambda run: run.ambient,
    }
    for name, read in reads.items():
        want, message = _first_sample_failing_alone(read, metric, samples)
        with pytest.raises(EvaluationError) as err:
            read(Run(metric, samples))
        named = err.value.sample
        assert [list(named.x), list(named.y)] == [list(want.x), list(want.y)], name
        assert str(err.value) == message, name


def test_non_projective_curvature_record_fails_without_a_pde_record():
    # u (1 + r^2) is not projective: the curvature check stops at the gate
    metric = SphericalMetric("curved_control", ExpressionProfile("u*(1+r*r)"))
    samples = sample_domain(SampleSpec.for_metric(n=2, count=10, seed=7))
    records = run_check("curvature", Run(metric, samples), {"lambda": 0.0})
    [record] = records
    assert record.check == "curvature" and not record.passed
    # the Rapcsak difference against its n + 1 terms per component: nearly all of it
    worst = 0.9998595384881792
    assert record.detail == {"status": "not_projective", "projectivity_residual": worst}
    assert record.max_residual == worst
    text = to_text(Report(metric=metric.name, dimension=2, seed=7, count=10, records=records))
    x = ", ".join(f"{c:.6g}" for c in record.worst_x)
    y = ", ".join(f"{c:.6g}" for c in record.worst_y)
    assert f"worst at x = ({x}), y = ({y})" in text
    assert "status = not_projective" in text and "overall: FAIL" in text


# the checks whose formulas presume F(x, ty) = t F(x, y), with their params
HOMOGENEITY_GATED = {
    "curvature": {"lambda": 0.0},
    "rapcsak": {},
    "projective_pde": {},
    "convexity": {},
    "geodesics": {},
    "conjecture": {},
}


@pytest.mark.parametrize(
    "check,phi,degree",
    [
        # the curvature cases keep the ids they had before the other checks were gated
        pytest.param(check, phi, degree, id=f"{'' if check == 'curvature' else check + '-'}{phi}-{degree}")
        for check in HOMOGENEITY_GATED
        for phi, degree in [("u^2", 2.0), ("sqrt(u^3)", 1.5)]
    ],
)
def test_curvature_refuses_a_profile_that_is_not_1_homogeneous(check, phi, degree):
    # curvature read "constant, lambda = 0" on each of these, rapcsak, projective_pde,
    # convexity and geodesics passed, and conjecture passed with "curvature is not
    # constant, no claim applies", while the homogeneity check failed
    metric = SphericalMetric("inhomogeneous", ExpressionProfile(phi))
    run = Run(metric, sample_domain(SampleSpec.for_metric(n=2, count=10, seed=7)))
    [homogeneity] = run_check("homogeneity", run, {})
    [record] = run_check(check, run, HOMOGENEITY_GATED[check])
    assert not record.passed and record.detail["status"] == "not_homogeneous"
    # the Euler residual |u phi_u - phi| / |phi| is degree - 1 at every sample
    assert record.max_residual == homogeneity.max_residual == pytest.approx(degree - 1.0)
    assert record.detail["homogeneity_residual"] == record.max_residual
    assert (record.worst_x, record.worst_y) == (homogeneity.worst_x, homogeneity.worst_y)


@pytest.mark.parametrize("formula", ["y1^2 + y2^2", "(y1^2 + y2^2)*(x1 - 0.3)"])
def test_rapcsak_refuses_a_general_metric_that_is_not_1_homogeneous(formula):
    # the ambient Euler residual |F_y . y - F| / |F| is 2 - 1 at every sample; the
    # gated record still fails where F <= 0 and names the first such sample
    samples = sample_domain(SampleSpec.for_metric(n=2, count=20, seed=7))
    [record] = run_check("rapcsak", Run(GeneralMetric.from_expression(formula, 2), samples), {})
    assert not record.passed and record.detail["status"] == "not_homogeneous"
    assert record.max_residual == record.detail["homogeneity_residual"] == pytest.approx(1.0)
    non_positive = samples.x[:, 0] <= 0.3 if "x1" in formula else np.zeros(len(samples), dtype=bool)
    assert record.detail.get("non_positive_F", 0) == int(non_positive.sum())
    if non_positive.any():  # 14 of the 20 samples
        assert record.worst_x == list(samples.x[non_positive.argmax()])


@pytest.mark.parametrize("formula, passed", [("sqrt(y1^2 + y2^2) + 0.3*x1*y1", True), ("y1^2 + y2^2", False)])
def test_homogeneity_reads_a_general_metrics_euler_residual(formula, passed):
    # the ambient Euler residual |F_y . y - F| / |F|: rounding for a Randers metric,
    # 2 - 1 at every sample for a quadratic F (a config error before it was read)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=20, seed=7))
    [record] = run_check("homogeneity", Run(GeneralMetric.from_expression(formula, 2), samples), {})
    assert record.passed == passed
    assert record.max_residual == pytest.approx(0.0 if passed else 1.0, abs=1e-15)


def _funk_integrand():
    from finslercheck.family import ProjectiveFamilySpec, build_projective_metric

    return build_projective_metric(ProjectiveFamilySpec(f="1/sqrt(1+t)"))


@pytest.mark.parametrize(
    "build, constant",
    [
        # builtin funk is not reversible, so its conjecture record reads no curvature;
        # the integrand alone gives a reversible metric of the same lambda, -1/4
        (_funk_integrand, True),
        (lambda: builtin("klein"), True),
        (lambda: SphericalMetric("curved_control", ExpressionProfile("u*(1+r^2)")), False),
    ],
    ids=["funk_integrand", "klein", "curved_control"],
)
def test_conjecture_reads_the_curvature_record(build, constant):
    metric = build()
    spec = SampleSpec.for_metric(n=2, count=25, seed=7, domain_radius=metric.domain_radius)
    run = Run(metric, sample_domain(spec))
    [conjecture] = run_check("conjecture", run, {})
    curvature = run_check("curvature", run, {})[0]
    assert conjecture.detail["reversible"]
    assert conjecture.detail["constant_curvature"] is curvature.passed is constant
    assert conjecture.detail.get("lambda_estimate") == curvature.detail.get("lambda_estimate")
    if constant:
        assert curvature.detail["status"] == "constant" and "lambda_estimate" in conjecture.detail
    else:
        assert curvature.detail["status"] == "not_projective" and "lambda_estimate" not in conjecture.detail
        assert conjecture.detail["conclusion"] == "consistent: curvature is not constant, no claim applies"


def test_failed_build_reraises_the_same_error():
    metric = SphericalMetric("root", ExpressionProfile("u*sqrt(1.5 - r) + 0.1*v"))
    run = Run(metric, sample_domain(SampleSpec.for_metric(n=2, count=30, seed=7)))
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            run.profile
        errors.append(err.value)
    assert errors[0] is errors[1]


@pytest.mark.parametrize(
    "params,name",
    [
        ({"count": 0}, "count"),
        ({"steps": 0}, "steps"),
        ({"horizon": 0}, "horizon"),
        ({"horizon": -0.5}, "horizon"),
        ({"count": 2.5}, "count"),
        ({"steps": True}, "steps"),
        ({"horizon": math.inf}, "horizon"),
        ({"horizon": "0.5"}, "horizon"),
    ],
)
def test_degenerate_geodesic_params_are_config_errors(tmp_path, capsys, params, name):
    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=3, seed=11, domain_radius=1.0))
    with pytest.raises(ConfigError, match=f"^'geodesics.{name}' must be "):
        run_check("geodesics", Run(funk, samples), params)
    cfg = {
        "metric": {"name": "funk"},
        "dimension": 2,
        "sampling": {"count": 5, "seed": 7},
        "checks": [{"name": "geodesics", "params": params}],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert report is None and code == 2
    assert capsys.readouterr().err.startswith(f"error: 'checks[0].params.{name}' must be ")


@pytest.mark.parametrize(
    "check,params,message",
    [
        # each ran as if the key were absent: curvature tested no hypothesis and
        # passed as "constant", geodesics ran its default 400 steps.  The ids name
        # the messages before they named the key's path, so the cases keep their names
        pytest.param(
            "curvature",
            {"lamda": 3},
            "unknown key '{}.lamda' (did you mean 'lambda'?)",
            id="curvature-params0-unknown param 'lamda' of check 'curvature' (did you mean 'lambda'?)",
        ),
        pytest.param(
            "geodesics",
            {"step": 10},
            "unknown key '{}.step' (did you mean 'steps'?)",
            id="geodesics-params1-unknown param 'step' of check 'geodesics' (did you mean 'steps'?)",
        ),
        pytest.param(
            "symmetry",
            {"lambda": 3},
            "unknown key '{}.lambda'",
            id="symmetry-params2-unknown param 'lambda' of check 'symmetry'",
        ),
    ],
)
def test_undeclared_check_params_are_config_errors(tmp_path, capsys, check, params, message):
    # run_check names the key under the check's name, verify under its entry's path
    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=3, seed=11, domain_radius=1.0))
    with pytest.raises(ConfigError) as err:
        run_check(check, Run(funk, samples), params)
    assert str(err.value) == message.format(check)
    cfg = {
        "metric": {"name": "funk"},
        "dimension": 2,
        "sampling": {"count": 5, "seed": 7},
        "checks": [{"name": check, "params": params}],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert report is None and code == 2
    assert capsys.readouterr().err == f"error: {message.format('checks[0].params')}\n"


def test_geodesic_params_default_to_the_declared_ones(monkeypatch):
    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=3, seed=11, domain_radius=1.0))
    requested = []
    safe_horizon = geo.safe_horizon

    def spy(metric, x, y, horizon):
        requested.append(horizon)
        return safe_horizon(metric, x, y, horizon)

    monkeypatch.setattr(geo, "safe_horizon", spy)
    [record] = run_check("geodesics", Run(funk, samples), {})
    assert requested == [0.5] and type(requested[0]) is float
    assert record.detail["steps"] == 400 and record.detail["geodesics"] == 3  # count 20 > 3 samples
    assert record.detail["steps_completed"] == [400] * 3
    [explicit] = run_check("geodesics", Run(funk, samples), {"count": 20, "steps": 400, "horizon": 0.5})
    assert explicit == record


def test_integer_lambda_reports_as_its_float(tmp_path):
    # the declared type converts 1 to 1.0, so the text report prints its
    # lambda_hypothesis (a float detail) as it does for 1.0
    reports = []
    for lam in (1, 1.0):
        cfg = {
            "metric": {"name": "bryant", "params": {"alpha": 0.5235987755982988}},
            "dimension": 3,
            "sampling": {"count": 20, "seed": 7},
            "checks": [{"name": "curvature", "params": {"lambda": lam}}],
        }
        report, code = run_config(_write(tmp_path, cfg))
        assert code == 0
        reports.append(report)
    assert type(reports[0].records[0].detail["lambda_hypothesis"]) is float
    assert to_json(reports[0]) == to_json(reports[1])
    assert to_text(reports[0]) == to_text(reports[1])
    assert "lambda_hypothesis = 1" in to_text(reports[0])


def test_quadrature_failure_stops_its_geodesic(monkeypatch):
    # a family profile whose quadrature fails past r = 0.6 (funk's closed form
    # below): the path that crosses it stops, and the record names its launch
    from finslercheck.family import (
        FamilyProfile,
        ProjectiveFamilySpec,
        QuadratureError,
        _CompiledFamily,
    )

    funk = builtin("funk")

    def jet(self, r, u, v, order):  # one point or a batch of points, as the family's own jet
        far = np.atleast_1d(r) > 0.6
        if far.any():  # the index of the first failing triple, as the real quadrature sets it
            raise QuadratureError(f"no convergence at r={r}", int(far.argmax()))
        return funk.profile.jet(r, u, v, order)

    monkeypatch.setattr(FamilyProfile, "jet", jet)
    profile = FamilyProfile(_CompiledFamily(ProjectiveFamilySpec(f="1/sqrt(1+t)")))
    metric = SphericalMetric("family_cutoff", profile, 1.0)
    samples = MetricSample.of(
        [[0.1, 0.2], [0.5, 0.0], [0.0, 0.55], [-0.2, 0.1]], [[0.2, -0.1], [1.0, 0.1], [0.1, 1.0], [-0.1, 0.3]]
    )
    params = {"count": 4, "steps": 20, "horizon": 0.3}
    [record] = run_check("geodesics", Run(metric, samples), params)
    assert not record.passed
    assert 0 < record.detail["min_steps_completed"] < 20
    assert record.worst_x == list(samples[1].x) and record.worst_y == list(samples[1].y)
    # per path: the two that cross r = 0.6 stop there, the others run every step
    completed, exit_times = record.detail["steps_completed"], record.detail["exit_times"]
    assert completed[0] == completed[3] == 20 and exit_times[0] is exit_times[3] is None
    for i in (1, 2):
        assert 0 < completed[i] < 20
        assert exit_times[i] == pytest.approx(completed[i] * 0.3 / 20)
    assert min(completed) == record.detail["min_steps_completed"]
    assert exit_times[1] == record.detail["first_exit_time"]
    # each stopped path keeps the text of the quadrature error that stopped it
    reasons = record.detail["stop_reasons"]
    assert reasons[0] is reasons[3] is None
    for i in (1, 2):
        assert reasons[i].startswith("no convergence at r=")


def test_launch_point_near_the_boundary_fails_geodesics(tmp_path):
    # safe_horizon refuses a launch at |x| >= 0.95 of funk's radius: a failed record, not exit 2
    sampling = {"count": 5, "seed": 7, "r_range": [0.96, 0.99]}
    cfg = {
        "metric": {"name": "funk"},
        "dimension": 2,
        "sampling": sampling,
        "checks": [{"name": "geodesics", "params": {"count": 2, "steps": 10}}],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 1
    spec = SampleSpec.for_metric(n=2, count=5, seed=7, domain_radius=1.0, r_range=sampling["r_range"])
    first = sample_domain(spec)[0]
    [record] = report.records
    assert not record.passed
    assert record.worst_x == list(first.x) and record.worst_y == list(first.y)
    assert "start point already at |x| >= 0.95" in record.detail["evaluation_error"]
    assert json.loads(to_json(report))["overall_pass"] is False


@given(st.floats(min_value=-2.5, max_value=2.5))
def test_non_positive_F_fails_and_names_its_first_sample(shift):
    # F = |y| (x1 + c) is positive exactly where x1 > -c
    metric = GeneralMetric.from_expression(f"sqrt(y1^2+y2^2)*(x1+{shift!r})", 2)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=8, seed=5))
    bad = [i for i, s in enumerate(samples) if s.x[0] + shift <= 0.0]
    run = Run(metric, samples)
    for check in ("symmetry", "rapcsak", "cartan"):
        [record] = run_check(check, run, {})
        assert record.detail.get("non_positive_F", 0) == len(bad), check
        if bad:
            assert not record.passed, check
            assert record.worst_x == list(samples[bad[0]].x), check


@given(st.floats(min_value=0.0, max_value=2.5))
def test_non_positive_profile_fails_every_check_and_names_its_first_sample(shift):
    # phi = u (r - c) is positive exactly where r > c; each record counts the samples
    # it reads (the launched ones, for geodesics) where r <= c and names the first
    metric = SphericalMetric("shifted", ExpressionProfile(f"u*(r-{shift!r})"))
    samples = sample_domain(SampleSpec.for_metric(n=2, count=8, seed=5))
    run = Run(metric, samples, checks=tuple(CHECKS))
    for check in CHECKS:
        params = {"count": 3, "steps": 4} if check == "geodesics" else {}
        for record in run_check(check, run, params):
            if "evaluation_error" in record.detail:
                continue
            bad = np.flatnonzero(samples.r[: record.samples] <= shift)
            assert record.detail.get("non_positive_F", 0) == len(bad), record.check
            if bad.size:
                assert not record.passed, record.check
                assert record.worst_x == list(samples[bad[0]].x), record.check
