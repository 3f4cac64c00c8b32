import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finslercheck.jets import (
    DIVISION_GUARD,
    Jet,
    JetDomainError,
    absval,
    compose_multivariate,
    cos,
    exp,
    lift_var,
    log,
    powc,
    sin,
    sqrt,
)


class TestLiftVar:
    def test_seed_definition(self):
        j = lift_var(0, 4.0, 3, 2)
        assert j.value == 4.0
        assert np.array_equal(j.gradient(), [1.0, 0.0, 0.0])
        assert np.all(j.hessian() == 0.0)

    def test_higher_orders_zero(self):
        j = lift_var(2, -1.5, 3, 3)
        assert j.value == -1.5
        assert np.array_equal(j.gradient(), [0.0, 0.0, 1.0])
        assert np.all(j.hessian() == 0.0)
        assert np.all(j.third_tensor() == 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            lift_var(5, 1.0, 3, 2)

    def test_partial_beyond_order_rejected(self):
        j = lift_var(0, 1.0, 2, 2)
        with pytest.raises(ValueError, match="no.*derivative"):
            j.partial(0, 0, 1)


class TestArithmetic:
    def test_square_polynomial_exact(self):
        x = lift_var(0, 3.0, 1, 2)
        j = x * x
        assert (j.value, j.partial(0), j.partial(0, 0)) == (9.0, 6.0, 2.0)

    def test_self_division_is_one(self):
        x = lift_var(0, 2.0, 1, 2)
        j = x / x
        assert (j.value, j.partial(0), j.partial(0, 0)) == (1.0, 0.0, 0.0)

    def test_difference_of_squares(self):
        x = lift_var(0, 2.0, 2, 2)
        y = lift_var(1, 1.0, 2, 2)
        j = (x + y) * (x - y)
        assert j.value == 3.0
        assert np.array_equal(j.gradient(), [4.0, -2.0])
        assert np.array_equal(j.hessian(), [[2.0, 0.0], [0.0, -2.0]])

    def test_scalar_mixing(self):
        x = lift_var(0, 2.0, 1, 2)
        j = 3.0 - 2.0 * x + x / 4.0 + (1.0 + x) * 2.0
        assert j.value == 3.0 - 4.0 + 0.5 + 6.0
        assert j.partial(0) == -2.0 + 0.25 + 2.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lift_var(0, 1.0, 2, 2) + lift_var(0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            lift_var(0, 1.0, 2, 2) * lift_var(0, 1.0, 2, 3)

    def test_division_guard(self):
        x = lift_var(0, 0.0, 1, 2)
        with pytest.raises(JetDomainError):
            (1.0 + x) / x
        with pytest.raises(JetDomainError):
            (1.0 + x) / Jet.constant(DIVISION_GUARD / 2, 1, 2)

    def test_scalar_over_jet(self):
        x = lift_var(0, 2.0, 1, 2)
        j = 1.0 / x
        assert j.value == 0.5
        assert j.partial(0) == -0.25
        assert j.partial(0, 0) == 0.25


class TestFunctions:
    def test_sqrt_analytic(self):
        j = sqrt(lift_var(0, 4.0, 1, 2))
        assert j.value == 2.0
        assert j.partial(0) == 0.25
        assert j.partial(0, 0) == -1.0 / 32.0

    def test_half_power_analytic(self):
        t = lift_var(0, 0.0, 1, 2)
        j = powc(1.0 + t, -0.5)
        assert j.value == 1.0
        assert j.partial(0) == -0.5
        assert j.partial(0, 0) == 0.75

    def test_log_domain_error(self):
        with pytest.raises(JetDomainError):
            log(lift_var(0, -1.0, 1, 2))

    def test_sqrt_domain_error(self):
        with pytest.raises(JetDomainError):
            sqrt(lift_var(0, 0.0, 1, 2))

    def test_abs_refuses_kink(self):
        with pytest.raises(JetDomainError):
            absval(lift_var(0, 0.0, 1, 1))

    def test_abs_away_from_zero(self):
        j = absval(lift_var(0, -2.0, 1, 2) * lift_var(0, -2.0, 1, 2) * 0.5 - 5.0)
        # |x^2/2 - 5| at x=-2 -> |-3| = 3, d/dx = -(x) = 2, d2 = -1
        assert (j.value, j.partial(0), j.partial(0, 0)) == (3.0, 2.0, -1.0)

    def test_trig_derivatives(self):
        t = lift_var(0, 0.7, 1, 3)
        s, c = sin(t), cos(t)
        assert abs(s.partial(0) - math.cos(0.7)) < 1e-15
        assert abs(s.partial(0, 0) + math.sin(0.7)) < 1e-15
        assert abs(c.partial(0, 0, 0) - math.sin(0.7)) < 1e-15

    def test_exp_log_inverse(self):
        t = lift_var(0, 1.3, 1, 3)
        j = log(exp(t))
        assert abs(j.value - 1.3) < 1e-15
        assert abs(j.partial(0) - 1.0) < 1e-14
        assert abs(j.partial(0, 0)) < 1e-14

    def test_integer_power_negative_base(self):
        x = lift_var(0, -2.0, 1, 2)
        j = powc(x, 3)
        assert (j.value, j.partial(0), j.partial(0, 0)) == (-8.0, 12.0, -12.0)
        j = powc(x, -2)
        assert j.value == 0.25

    def test_fractional_power_negative_base_rejected(self):
        with pytest.raises(JetDomainError):
            powc(lift_var(0, -2.0, 1, 2), 0.5)

    def test_never_nan_without_error(self):
        # drive sqrt toward its edges: either a domain error or finite output
        for value in [1e-120, 1e-10, 1.0, 1e120]:
            j = sqrt(lift_var(0, value, 1, 3))
            assert np.isfinite(j.coeffs).all()
        with pytest.raises(JetDomainError):
            sqrt(lift_var(0, 1e-300, 1, 3))  # derivative coefficients overflow
        with pytest.raises(JetDomainError):
            exp(lift_var(0, 1e9, 1, 2))


def test_degree_three_monomials_exact_to_4_ulps():
    rng = random.Random(20240811)
    for m in range(2, 9):
        for _ in range(10):
            i, j, k = (rng.randrange(m) for _ in range(3))
            coeff = rng.uniform(-3.0, 3.0)
            point = [rng.uniform(-2.0, 2.0) or 0.5 for _ in range(m)]
            xs = [lift_var(v, point[v], m, 3) for v in range(m)]
            jet = coeff * xs[i] * xs[j] * xs[k]
            # analytic third derivative of coeff * x_i x_j x_k
            counts = {}
            for v in (i, j, k):
                counts[v] = counts.get(v, 0) + 1
            expected = coeff
            for v, c in counts.items():
                expected *= math.factorial(c)
            got = jet.partial(i, j, k)
            tol = 4 * math.ulp(max(abs(expected), 1.0))
            assert abs(got - expected) <= tol
            # value check too
            expected_val = coeff * point[i] * point[j] * point[k]
            assert abs(jet.value - expected_val) <= 4 * math.ulp(max(abs(expected_val), 1.0))


@given(
    coeffs=st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
    x0=st.floats(min_value=-2, max_value=2, allow_nan=False),
    y0=st.floats(min_value=-2, max_value=2, allow_nan=False),
)
def test_quadratic_polynomial_derivatives_exact(coeffs, x0, y0):
    a, b, c, d, e, f = coeffs
    x = lift_var(0, x0, 2, 2)
    y = lift_var(1, y0, 2, 2)
    j = a * x * x + b * x * y + c * y * y + d * x + e * y + f
    assert math.isclose(j.partial(0), 2 * a * x0 + b * y0 + d, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(j.partial(1), b * x0 + 2 * c * y0 + e, rel_tol=1e-12, abs_tol=1e-12)
    assert j.partial(0, 0) == 2 * a
    assert j.partial(0, 1) == b
    assert j.partial(1, 1) == 2 * c


def _sample_fn(xs):
    # composite with every function family represented
    return sqrt(xs[0] * xs[0] + 2.0) * sin(xs[1]) + exp(xs[1] * 0.3) / (1.5 + cos(xs[0]))


def test_gradient_matches_value_finite_differences():
    h = 1e-5
    point = [0.8, -0.6]

    def value_at(p):
        return _sample_fn([lift_var(i, p[i], 2, 0) for i in range(2)]).value

    jet = _sample_fn([lift_var(i, point[i], 2, 1) for i in range(2)])
    for i in range(2):
        shifted = list(point)
        shifted[i] = point[i] + h
        up = value_at(shifted)
        shifted[i] = point[i] - h
        down = value_at(shifted)
        fd = (up - down) / (2 * h)
        assert abs(jet.partial(i) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_third_order_matches_hessian_finite_differences():
    h = 1e-5
    point = [0.8, -0.6]
    jet3 = _sample_fn([lift_var(i, point[i], 2, 3) for i in range(2)])

    def hessian_at(p):
        return _sample_fn([lift_var(i, p[i], 2, 2) for i in range(2)]).hessian()

    for k in range(2):
        shifted = list(point)
        shifted[k] = point[k] + h
        up = hessian_at(shifted)
        shifted[k] = point[k] - h
        down = hessian_at(shifted)
        fd = (up - down) / (2 * h)
        ad = jet3.third_tensor()[:, :, k]
        assert np.abs(ad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())


def test_compose_multivariate_matches_direct():
    # outer f(p, q) = p * sin(q) + sqrt(p), inner p = s^2 + t + 2, q = s - t
    s0, t0 = 0.4, -0.9

    def inner_jets(order):
        s = lift_var(0, s0, 2, order)
        t = lift_var(1, t0, 2, order)
        return s * s + t + 2.0, s - t

    def outer_fn(p, q):
        return p * sin(q) + sqrt(p)

    p_jet, q_jet = inner_jets(3)
    direct = outer_fn(p_jet, q_jet)
    outer = outer_fn(lift_var(0, p_jet.value, 2, 3), lift_var(1, q_jet.value, 2, 3))
    composed = compose_multivariate(outer, [p_jet, q_jet])
    assert np.abs(composed.coeffs - direct.coeffs).max() < 1e-12


def test_compose_multivariate_shape_checks():
    outer = lift_var(0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        compose_multivariate(outer, [lift_var(0, 1.0, 3, 2)])
    with pytest.raises(ValueError):
        compose_multivariate(outer, [lift_var(0, 1.0, 3, 2), lift_var(1, 1.0, 3, 1)])


# -- jets over N points ----------------------------------------------------------

BATCH_POINTS = [(0.8, -0.6), (1.7, 0.25), (-0.45, 1.3), (2.2, -1.9), (0.05, 0.9)]


def _variables(points, order, nvars=2):
    """One N-point jet per variable, seeded at every point."""
    out = []
    for i in range(nvars):
        c = np.zeros((len(lift_var(0, 0.0, nvars, order).coeffs), len(points)))
        c[0] = [p[i] for p in points]
        c[1 + i] = 1.0
        out.append(Jet(nvars, order, c))
    return out


def _exact_ops(x, y):
    return [
        (x + y) * (x - y) / (x * x + 1.5) - 2.0 * y,
        3.0 / (y * y + 0.25) + x * Jet.constant(1.7, x.nvars, x.order),
        Jet.constant(0.5, x.nvars, x.order) * y - Jet.constant(2.0, x.nvars, x.order) / x,
        sqrt(x * x + y * y + 0.5),
        powc(x, 3) * powc(y + 3.0, -2),
        absval(x - 0.1) * powc(y * y + 1.0, 2),
    ]


def _series_ops(x, y):
    return [log(x * x + 1.0), exp(y * 0.3), sin(x), cos(y), powc(x * x + 1.0, 1.5)]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_batched_columns_equal_scalar_jets(order):
    xb, yb = _variables(BATCH_POINTS, order)
    batched_exact, batched_series = _exact_ops(xb, yb), _series_ops(xb, yb)
    for k, (x0, y0) in enumerate(BATCH_POINTS):
        xs, ys = lift_var(0, x0, 2, order), lift_var(1, y0, 2, order)
        for b, s in zip(batched_exact, _exact_ops(xs, ys)):
            assert np.array_equal(b.coeffs[:, k], s.coeffs)
        for b, s in zip(batched_series, _series_ops(xs, ys)):
            assert np.abs(b.coeffs[:, k] - s.coeffs).max() <= 1e-15 * np.abs(s.coeffs).max()


def test_batched_accessors_are_arrays():
    x, y = _variables(BATCH_POINTS, 2)
    j = x * x * y
    assert np.array_equal(j.value, [p[0] ** 2 * p[1] for p in BATCH_POINTS])
    assert np.array_equal(j.partial(0, 1), [2.0 * p[0] for p in BATCH_POINTS])
    assert j.hessian().shape == (2, 2, len(BATCH_POINTS))
    assert np.array_equal(j.hessian()[:, :, 1], (lift_var(0, 1.7, 2, 2) ** 2 * lift_var(1, 0.25, 2, 2)).hessian())


def test_batched_domain_error_names_first_bad_point():
    x, _ = _variables([(1.0, 0.0), (-2.0, 0.0), (-3.0, 0.0)], 2)
    with pytest.raises(JetDomainError) as err:
        sqrt(x)
    assert err.value.value == -2.0
    with pytest.raises(JetDomainError):
        log(x)
    with pytest.raises(JetDomainError):
        1.0 / (x - 1.0)


@pytest.mark.parametrize("nvars,order", [(1, 3), (3, 2), (3, 3), (8, 3)])
def test_product_sums_each_slot_in_table_order(nvars, order):
    # the reference: one term at a time into its slot, in product_table order
    from finslercheck._multi_index import coeff_count, product_table

    rng = random.Random(nvars * 100 + order)
    n = coeff_count(nvars, order)
    for width in (None, 4):
        shape = (n,) if width is None else (n, width)
        a = np.array([rng.uniform(-3.0, 3.0) for _ in range(np.prod(shape))]).reshape(shape)
        b = np.array([rng.uniform(-3.0, 3.0) for _ in range(np.prod(shape))]).reshape(shape)
        expected = np.zeros(shape)
        for left, right, target in zip(*product_table(nvars, order)):
            expected[target] = expected[target] + a[left] * b[right]
        got = (Jet(nvars, order, a) * Jet(nvars, order, b)).coeffs
        assert np.array_equal(got, expected)
