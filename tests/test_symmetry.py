import math

import numpy as np
import pytest

from conftest import make_metric, samples_for
from finslercheck.checks import Run, run_check
from finslercheck.metrics import (
    AmbientBundle,
    GeneralMetric,
    MetricSample,
    builtin,
    bundle_of,
    fundamental_tensor,
    worst_residual,
)
from finslercheck.sampling import SampleSpec, sample_domain
from finslercheck.symmetry import (
    RotationField,
    cartan_contraction_of,
    killing_tensor_max_residual,
    killing_tensor_residuals,
    killing_tensor_terms,
    rotation_fields,
    scalar_residuals_of,
)


def anisotropic(n):
    """F^2 = |y|^2 + (y^1)^2: rotation-invariant only around axis 0."""
    terms = " + ".join(["2*y1^2"] + [f"y{i}^2" for i in range(2, n + 1)])
    return GeneralMetric.from_expression(f"sqrt({terms})", n, name="anisotropic")


def pairs(*xy):
    """One sample row per (x, y) pair."""
    return MetricSample.of([x for x, _ in xy], [y for _, y in xy])


def scalar_residuals(metric, field, samples):
    """The contracted Killing residual of the field at each sample, from one bundle."""
    return scalar_residuals_of(bundle_of(metric, samples.x, samples.y), [field])[:, 0]


def tensor_residual(metric, field, x, y):
    """The full Killing residual matrix of the field at one point-direction pair."""
    p = pairs((x, y))
    return killing_tensor_residuals(AmbientBundle.of(metric, p.x, p.y), [field])[0, 0]


def cartan(metric, *xy):
    """C_ijp at each (x, y) pair, (k, n, n, n)."""
    p = pairs(*xy)
    return AmbientBundle.of(metric, p.x, p.y).cartan()


def jacobian(field, n):
    """dX^p/dx^q of the rotation field as a dense (n, n) matrix."""
    a = np.zeros((n, n))
    a[field.i, field.j] = 1.0
    a[field.j, field.i] = -1.0
    return a


class TestRotationField:
    def test_vector_and_jacobian(self):
        f = RotationField(0, 2)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(f.vector(x), [3.0, 0.0, -1.0])
        # X is linear: its Jacobian reproduces it
        assert np.array_equal(jacobian(f, 3) @ x, f.vector(x))

    def test_distinct_axes_required(self):
        with pytest.raises(ValueError):
            RotationField(1, 1)

    def test_field_count(self):
        assert len(rotation_fields(2)) == 1
        assert len(rotation_fields(3)) == 3
        assert len(rotation_fields(4)) == 6


class TestScalarResidual:
    def test_funk_invariant(self):
        metric = builtin("funk")
        samples = samples_for(metric, n=2, count=40)
        for got in scalar_residuals(metric, RotationField(0, 1), samples):
            assert got <= 1e-10

    def test_euclidean_exact_zero(self):
        sample = pairs(([0.3, 0.2], [1.0, 0.5]))
        [got] = scalar_residuals(builtin("euclidean"), RotationField(0, 1), sample)
        assert got == 0.0

    def test_anisotropic_hand_value(self):
        # F = sqrt(2 y1^2 + y2^2) at y=(1,1): F_y = (2, 1)/sqrt(3); X-terms vanish.
        # residual = |F_y1*y2 - F_y2*y1| = 1/sqrt(3); scale = 3/sqrt(3) -> 1/3.
        metric = anisotropic(2)
        [got] = scalar_residuals(metric, RotationField(0, 1), pairs(([0.3, 0.2], [1.0, 1.0])))
        assert abs(got - 1.0 / 3.0) < 1e-14
        assert got > 0.1
        # raw (unnormalized) value via an independent chain rule
        f = math.sqrt(3.0)
        raw = abs((2.0 / f) * 1.0 - (1.0 / f) * 1.0)
        assert abs(raw - 1.0 / math.sqrt(3.0)) < 1e-15


class TestTensorResidual:
    def test_euclidean_zero_matrix(self):
        got = tensor_residual(
            builtin("euclidean"), RotationField(0, 1), np.array([0.3, 0.2]), np.array([1.0, 0.5])
        )
        assert np.abs(got).max() <= 1e-15

    def test_funk_point(self):
        got = tensor_residual(
            builtin("funk"), RotationField(0, 1), np.array([0.3, 0.2]), np.array([1.0, 0.5])
        )
        assert np.abs(got).max() <= 1e-8

    def test_anisotropic_fails(self):
        got = tensor_residual(
            anisotropic(2), RotationField(0, 1), np.array([0.3, 0.2]), np.array([1.0, 0.5])
        )
        assert np.abs(got).max() > 0.05

    def test_matches_flow_finite_difference(self):
        # oracle: the equation's left side is d/dt of the rotated pullback of g
        h = 1e-6
        for metric in (anisotropic(2), builtin("funk")):
            x = np.array([0.3, 0.2])
            y = np.array([1.0, 0.5])
            field = RotationField(0, 1)

            def pullback(t):
                c, s = math.cos(t), math.sin(t)
                rot = np.array([[c, s], [-s, c]])  # exp(t * jacobian)
                g = fundamental_tensor(metric, rot @ x, rot @ y)
                return rot.T @ g @ rot

            fd = (pullback(h) - pullback(-h)) / (2.0 * h)
            blocks_resid = tensor_residual(metric, field, x, y)
            # reconstruct the unnormalized equation left side for comparison
            p = pairs((x, y))
            terms = killing_tensor_terms(AmbientBundle.of(metric, p.x, p.y), [field])
            total = sum(terms)[0, 0]
            assert np.abs(total - fd).max() < 1e-6
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(total - fd).max() / scale < 1e-5
            assert blocks_resid.shape == (2, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["general", "spherical"])
    def test_terms_equal_the_dense_jacobian_einsums(self, kind, n):
        # the terms move rows of g and read X's two nonzero components; the dense
        # form contracts with every component of X and its whole Jacobian.  Both
        # give the same values (zeros may differ in sign only)
        if kind == "general":
            terms = ["2*y1^2"] + [f"y{i}^2" for i in range(2, n + 1)] + ["(x1*y2)^2"]
            metric = GeneralMetric.from_expression(f"sqrt({' + '.join(terms)}) + 0.1*x2*y1", n)
        else:
            metric = make_metric("bryant")
        rows = sample_domain(SampleSpec.for_metric(n=n, count=30, seed=7, domain_radius=metric.domain_radius))
        b = AmbientBundle.of(metric, rows.x, rows.y)
        fields = rotation_fields(n)
        a = np.stack([jacobian(f, n) for f in fields])
        want = (
            np.einsum("kpij,mkp->mkij", b.dg_dx(), np.stack([f.vector(b.x) for f in fields])),
            np.einsum("kpj,mpi->mkij", b.g(), a),
            np.einsum("kip,mpj->mkij", b.g(), a),
            2.0 * np.einsum("kijp,mkp->mkij", b.cartan(), np.stack([f.vector(b.y) for f in fields])),
        )
        got = killing_tensor_terms(b, fields)
        for k, (term, dense) in enumerate(zip(got, want)):
            assert np.count_nonzero(dense) and np.array_equal(term, dense), k

    def test_jacobian_exponential_is_rotation(self):
        # exp(t A) for A = jacobian(0,1) is the rotation used by the oracle above
        a = jacobian(RotationField(0, 1), 2)
        t = 0.3
        series = np.eye(2) + t * a + (t * a) @ (t * a) / 2 + (t * a) @ (t * a) @ (t * a) / 6
        c, s = math.cos(t), math.sin(t)
        assert np.abs(series - np.array([[c, s], [-s, c]])).max() < 1e-3


class TestCartan:
    @pytest.mark.parametrize("name", ["euclidean", "klein", "spherical"])
    def test_riemannian_builtins_vanish(self, name):
        metric = make_metric(name)
        [c] = cartan(metric, (np.array([0.5, 0.1]), np.array([0.8, 0.6])))
        assert np.abs(c).max() <= 1e-12

    def test_funk_nonzero_generic_direction(self):
        [c] = cartan(builtin("funk"), (np.array([0.5, 0.0]), np.array([0.8, 0.6])))
        assert np.abs(c).max() > 0.01

    def test_funk_contraction_vanishes(self):
        rows = samples_for(builtin("funk"), n=2, count=30)
        b = AmbientBundle.of(builtin("funk"), rows.x, rows.y)
        for got in cartan_contraction_of(b):
            assert got <= 1e-9

    def test_scaling_degree_minus_one(self):
        metric = builtin("funk")
        x = np.array([0.5, 0.0])
        y = np.array([0.8, 0.6])
        lam = 3.0
        c1, c2 = cartan(metric, (x, y), (x, lam * y))
        assert np.abs(c2 - c1 / lam).max() <= 1e-9

    def test_fully_symmetric(self):
        [c] = cartan(builtin("funk"), (np.array([0.5, 0.0]), np.array([0.8, 0.6])))
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.abs(c - np.transpose(c, perm)).max() < 1e-14


def symmetry_record(metric, samples):
    [record] = run_check("symmetry", Run(metric, samples), {})
    return record


class TestVerdict:
    """The symmetry check's record: its verdict, worst sample and field."""

    @pytest.mark.parametrize("name", ["euclidean", "klein", "funk", "berwald", "spherical", "bryant"])
    def test_builtins_pass(self, name):
        metric = make_metric(name)
        record = symmetry_record(metric, samples_for(metric, n=3, count=25))
        assert record.passed
        assert record.max_residual <= 1e-9
        assert record.detail["fields_tested"] == 3
        assert "consistent" in record.detail["conclusion"]
        assert "proved" not in record.detail["conclusion"]

    def test_two_dimensions_single_field(self):
        metric = builtin("funk")
        record = symmetry_record(metric, samples_for(metric, n=2, count=5))
        assert record.detail["fields_tested"] == 1
        assert record.detail["worst_field"] == [0, 1]

    def test_anisotropic_fails_with_worst_field(self):
        metric = anisotropic(3)
        samples = samples_for(builtin("spherical"), n=3, count=25)
        record = symmetry_record(metric, samples)
        assert not record.passed
        assert record.max_residual > 0.1
        assert 0 in record.detail["worst_field"]  # a plane moving the special axis
        assert "not spherically symmetric" in record.detail["conclusion"]
        # the first maximum over (sample, field) in sample-major order
        fields = rotation_fields(3)
        worst, index, _ = worst_residual(scalar_residuals_of(bundle_of(metric, samples.x, samples.y), fields))
        at, m = divmod(index, len(fields))
        assert record.max_residual == worst
        assert record.worst_x == list(samples[at].x) and record.worst_y == list(samples[at].y)
        assert record.detail["worst_field"] == [fields[m].i, fields[m].j]

    def test_ties_go_to_the_first_sample(self):
        # |y| exp(x1) is invariant under rotations of axes 1 and 2 only; the second row
        # swaps those axes of the first (every value exact in binary), so its (0, 1)
        # residual equals the first row's (0, 2) residual bit for bit, the largest:
        # sample-major order names the first row and field (0, 2)
        metric = GeneralMetric.from_expression("sqrt(y1^2 + y2^2 + y3^2)*exp(x1)", 3)
        rows = pairs(([0.125, 0.25, 0.75], [1.0, 0.75, 0.25]), ([0.125, 0.75, 0.25], [1.0, 0.25, 0.75]))
        values = scalar_residuals_of(bundle_of(metric, rows.x, rows.y), rotation_fields(3))
        assert values[1, 0] == values[0, 1] == values.max()
        record = symmetry_record(metric, rows)
        assert record.worst_x == list(rows[0].x) and record.detail["worst_field"] == [0, 2]

    def test_anisotropic_axis_fixing_field_passes(self):
        metric = anisotropic(3)
        field = RotationField(1, 2)  # rotates the isotropic plane only
        samples = samples_for(builtin("spherical"), n=3, count=25)
        for got in scalar_residuals(metric, field, samples):
            assert got <= 1e-9
        field_moving = RotationField(0, 1)
        worst = max(scalar_residuals(metric, field_moving, samples))
        assert worst > 0.1

    def test_max_residual_helper_consistent(self):
        metric = builtin("funk")
        s = samples_for(metric, n=3, count=3)[0]
        per_field = max(
            float(tensor_residual(metric, f, s.x, s.y).max())
            for f in rotation_fields(3)
        )
        assert killing_tensor_max_residual(metric, s.x, s.y) == per_field
