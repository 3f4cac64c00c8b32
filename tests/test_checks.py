"""Reductions behind the check records: no check may pass vacuously."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finslercheck.checks import run_check
from finslercheck.cli import run_config
from finslercheck.metrics import (
    ClosedFormProfile,
    GeneralMetric,
    MetricSample,
    SphericalMetric,
    builtin,
    worst_residual,
)
from finslercheck.report import Report, to_json
from finslercheck.sampling import SampleSpec, sample_domain
from finslercheck.symmetry import symmetry_verdict

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
    verdict = symmetry_verdict(metric, samples)
    assert not verdict.passed and verdict.non_finite == len(samples)
    assert verdict.worst_sample is samples[0]
    report = Report(metric=metric.name, dimension=2, seed=3, count=len(samples))
    for check in ("symmetry", "symmetry_tensor", "cartan"):
        [record] = run_check(check, metric, samples, {}, {})
        assert not record.passed, check
        assert record.detail["non_finite_residuals"] >= 1, check
        assert record.worst_x == list(samples[0].x), check
        report.records.append(record)
    assert json.loads(to_json(report))["overall_pass"] is False


def test_geodesic_that_stops_early_fails():
    # klein's profile leaves its domain at |x| = 1, but with an unbounded
    # domain radius the horizon is not shortened, so the path stops early
    unbounded = SphericalMetric("klein_unbounded", builtin("klein").profile)
    sample = MetricSample.of([0.9, 0.0], [1.9, 0.1])
    [record] = run_check(
        "geodesics", unbounded, [sample], {"count": 1, "steps": 10, "horizon": 5.0}, {}
    )
    assert record.max_residual <= 1e-6
    assert not record.passed
    assert record.detail["min_steps_completed"] == 0
    assert record.detail["first_exit_time"] == 0.0


def test_completed_geodesics_pass_and_say_so():
    funk = builtin("funk")
    samples = sample_domain(SampleSpec.for_metric(n=2, count=3, seed=11, domain_radius=1.0))
    [record] = run_check("geodesics", funk, samples, {"count": 2, "steps": 20}, {})
    assert record.passed
    assert record.detail["min_steps_completed"] == 20
    assert record.detail["first_exit_time"] is None
    assert np.isfinite(record.max_residual)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("params", [{}, {"lambda": -0.25}])
def test_overflowing_curvature_fails_both_records(params):
    funk = builtin("funk").profile.fn
    huge = SphericalMetric("huge_funk", ClosedFormProfile(lambda r, u, v: funk(r, u, v) * 1e200 * 1e200), 1.0)
    samples = sample_domain(SampleSpec.for_metric(n=2, count=5, seed=7, domain_radius=1.0))
    records = run_check("curvature", huge, samples, params, {})
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


def test_run_config_builds_one_ambient_jet_per_sample(tmp_path, monkeypatch):
    calls = []
    original = SphericalMetric.ambient_jet

    def counting(self, x, y, order):
        calls.append(order)
        return original(self, x, y, order)

    monkeypatch.setattr(SphericalMetric, "ambient_jet", counting)
    cfg = {
        "metric": {"name": "bryant", "params": {"alpha": 0.5235987755982988}},
        "dimension": 4,
        "sampling": {"count": 12, "seed": 7},
        "checks": ["symmetry_tensor", "cartan", "fundamental_ad"],
    }
    report, code = run_config(_write(tmp_path, cfg))
    assert code == 0
    assert calls == [3] * 12
