import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finslercheck.jets import (
    DIVISION_GUARD,
    _reciprocal,
    EvaluationError,
    Jet,
    JetDomainError,
    absval,
    compose_multivariate,
    cos,
    exp,
    first_failure,
    lift_var,
    log,
    powc,
    refuse,
    sin,
    sqrt,
)


class TestLiftVar:
    def test_seed_definition(self):
        j = lift_var(0, 4.0, 3, 2)
        assert j.value == 4.0
        assert np.array_equal(j.coeffs[1:4], [1.0, 0.0, 0.0])
        assert np.all(j.partials(range(3), range(3)) == 0.0)

    def test_higher_orders_zero(self):
        j = lift_var(2, -1.5, 3, 3)
        assert j.value == -1.5
        assert np.array_equal(j.coeffs[1:4], [0.0, 0.0, 1.0])
        assert np.all(j.partials(*[range(3)] * 2) == 0.0)
        assert np.all(j.partials(*[range(3)] * 3) == 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            lift_var(5, 1.0, 3, 2)

    def test_partial_beyond_order_rejected(self):
        j = lift_var(0, 1.0, 2, 2)
        with pytest.raises(ValueError, match="no.*derivative"):
            j.partial(0, 0, 1)
        with pytest.raises(ValueError, match="no partials of degree 3"):
            j.partials(*[range(2)] * 3)


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
        assert np.array_equal(j.coeffs[1:3], [4.0, -2.0])
        assert np.array_equal(j.partials(range(2), range(2)), [[2.0, 0.0], [0.0, -2.0]])

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
        return _sample_fn([lift_var(i, p[i], 2, 2) for i in range(2)]).partials(range(2), range(2))

    for k in range(2):
        shifted = list(point)
        shifted[k] = point[k] + h
        up = hessian_at(shifted)
        shifted[k] = point[k] - h
        down = hessian_at(shifted)
        fd = (up - down) / (2 * h)
        ad = jet3.partials(*[range(2)] * 3)[:, :, k]
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
def test_batched_jet_columns_equal_scalar_jets(order):
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
    one = lift_var(0, 1.7, 2, 2) ** 2 * lift_var(1, 0.25, 2, 2)
    assert j.partials(range(2), range(2)).shape == (2, 2, len(BATCH_POINTS))
    assert np.array_equal(j.partials(range(2), range(2))[:, :, 1], one.partials(range(2), range(2)))


@pytest.mark.parametrize("points", [1, 4])
def test_partials_blocks_equal_each_partial(points):
    # a block over any variable ranges holds, at each point, partial(*t) bit for bit,
    # the dense all-variables blocks included
    rng = np.random.default_rng(3)
    xs = [lift_var(i, rng.uniform(0.5, 1.5, points), 4, 3) for i in range(4)]
    f = sqrt(xs[0] * xs[1] + xs[2] * xs[3] * xs[0] + 2.0) * exp(xs[3] * xs[1] * 0.2)
    if points == 1:
        f = Jet(4, 3, f.coeffs[:, 0])
    blocks = [(range(2), range(2, 4)), (range(1, 3), range(4), range(3, 4)), (range(4),) * 2, (range(4),) * 3]
    for block, ranges in ((f.partials(*r), r) for r in blocks):
        assert block.shape == tuple(map(len, ranges)) + f.coeffs.shape[1:]
        for index in np.ndindex(*map(len, ranges)):
            t = [r[k] for r, k in zip(ranges, index)]
            assert np.array_equal(block[index], f.partial(*t)), (ranges, t)


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
    # the reference: one term at a time into its slot, in product_table order;
    # widths up to 64 take the cached scatter, 65 builds its own
    from finslercheck._multi_index import coeff_count, product_table

    rng = random.Random(nvars * 100 + order)
    n = coeff_count(nvars, order)
    for width in (None, 1, 2, 4, 64, 65):
        shape = (n,) if width is None else (n, width)
        a = np.array([rng.uniform(-3.0, 3.0) for _ in range(np.prod(shape))]).reshape(shape)
        b = np.array([rng.uniform(-3.0, 3.0) for _ in range(np.prod(shape))]).reshape(shape)
        expected = np.zeros(shape)
        for left, right, target in zip(*product_table(nvars, order)):
            expected[target] = expected[target] + a[left] * b[right]
        got = (Jet(nvars, order, a) * Jet(nvars, order, b)).coeffs
        assert np.array_equal(got, expected)


_SERIES = {
    "sqrt": sqrt,
    "log": log,
    "exp": exp,
    "sin": sin,
    "reciprocal": _reciprocal,
    "powc": lambda a: powc(a, -0.75),
}


def _full_table_series(fn, a):
    """fn(a) as the series h + h' d + (h''/2) d^2 + (h'''/6) d^3 with d^2 and d^3
    multiplied through the whole product table, from fn's own h, h', h'', h'''."""
    from unittest import mock

    from finslercheck import jets

    seen = []
    with mock.patch.object(jets, "_compose", lambda a, derivatives: seen.append(derivatives)):
        fn(a)
    with np.errstate(all="ignore"):
        h0, h1, h2, h3 = seen[0](a.coeffs[0])
        d = a.coeffs.copy()
        d[0] = 0.0
        out = h1 * d
        out[0] += h0
        if a.order >= 2:
            p2 = Jet(a.nvars, a.order, d) * Jet(a.nvars, a.order, d)
            out += (h2 / 2.0) * p2.coeffs
            if a.order >= 3:
                out += (h3() / 6.0) * (p2 * Jet(a.nvars, a.order, d)).coeffs
    if not np.isfinite(out).all():
        jets._reject("non-finite jet coefficients after composition", a.coeffs[0], ~np.isfinite(out).all(axis=0))
    return out


@st.composite
def _series_arguments(draw):
    """A jet in 1-3 variables of order 0-3 at one point or up to 4, its value slots
    positive, the rest from a mix of signed zeros, moderate and huge values, and
    sometimes one infinite coefficient."""
    from finslercheck._multi_index import coeff_count

    nvars, order = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    width = draw(st.sampled_from([None, 1, 2, 4]))
    shape = (coeff_count(nvars, order),) + (() if width is None else (width,))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e155]), st.floats(-3.0, 3.0))
    c = np.array(draw(st.lists(entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)
    c[0] = np.reshape(draw(st.lists(st.floats(0.1, 3.0), min_size=c[0].size, max_size=c[0].size)), c[0].shape)
    if order >= 1 and draw(st.booleans()):
        flat = c[1:].reshape(-1)
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from([math.inf, -math.inf]))
    return Jet(nvars, order, c)


@pytest.mark.parametrize("name", list(_SERIES))
@given(_series_arguments())
def test_compositions_over_live_slots_equal_the_full_table(name, a):
    # the kernel multiplies only slots of degree >= 1 (and >= 2 for d^2 in d^3);
    # results must be the full-table series bit for bit, signed zeros included,
    # and a column that is not finite must be refused with the same index and text
    fn = _SERIES[name]
    try:
        want, want_err = _full_table_series(fn, a), None
    except JetDomainError as err:
        want_err = err
    if want_err is None:
        got = fn(a)
        assert got.coeffs.shape == want.shape
        assert got.coeffs.tobytes() == want.tobytes()
        return
    with pytest.raises(JetDomainError) as err:
        fn(a)
    assert (err.value.index, err.value.value, str(err.value)) == (want_err.index, want_err.value, str(want_err))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_copy_free_composition_at_a_negative_zero_value(order):
    # sin(-0.0) = -0.0, and the copy-and-zero series gives the value slot
    # cos(-0.0) * 0.0 + sin(-0.0) = +0.0; the kernel, which reads d in place,
    # must round that slot the same way, at one point and at N
    from finslercheck._multi_index import coeff_count

    n = coeff_count(3, order)
    c = np.linspace(-1.5, 1.5, 3 * n).reshape(n, 3)
    c[0] = [-0.0, 0.25, -0.0]
    for a in (Jet(3, order, c), Jet(3, order, c[:, 0].copy())):
        got, want = sin(a).coeffs, _full_table_series(sin, a)
        assert got.tobytes() == want.tobytes()
        assert math.copysign(1.0, np.ravel(got[0])[0]) == 1.0
        assert np.array_equal(a.coeffs, c if a.coeffs.ndim == 2 else c[:, 0])  # the argument is untouched


@pytest.mark.parametrize("order", [1, 2, 3])
def test_reciprocal_overflowing_past_the_division_guard_is_refused_at_its_column(order):
    # 2e-300 passes DIVISION_GUARD, but h' = -1/w^2 overflows: h' * 0.0 is NaN in
    # that column's value slot, as h' * d with d[0] = 0.0 was, so the constant
    # N-point jet is refused at that column with the same text
    from finslercheck._multi_index import coeff_count

    c = np.zeros((coeff_count(3, order), 4))
    c[0] = [1.0, -3.0, 2.0 * DIVISION_GUARD, 4.0]
    a = Jet(3, order, c)
    with pytest.raises(JetDomainError) as want:
        _full_table_series(_reciprocal, a)
    for fn in (_reciprocal, lambda a: Jet.constant(1.0, 3, order) / a):
        with pytest.raises(JetDomainError) as got:
            fn(a)
        assert (got.value.index, got.value.value, str(got.value)) == (2, want.value.value, str(want.value))
        assert want.value.index == 2


def test_product_plans_share_the_live_tables():
    # a cached plan adds one scatter array per width; its factor rows are the
    # live table's own arrays, not copies
    from finslercheck import jets

    for low in (0, 1, 2):
        left, right, _ = jets._live_table(3, 3, low)
        for width in (1, 2, 7):
            plan = jets._cached_plan(3, 3, low, width)
            assert plan[0] is left and plan[1] is right
            assert plan[2].shape == (width * len(left),)


class TestFailingRowRule:
    def test_refuse_raises_at_the_first_bad_row(self):
        with pytest.raises(EvaluationError) as err:
            refuse(np.array([False, False, True, True]), lambda i: EvaluationError(f"row {i}", i))
        assert (str(err.value), err.value.index) == ("row 2", 2)

    def test_refuse_passes_a_clean_mask_and_reads_one_point(self):
        refuse(np.zeros(5, dtype=bool), lambda i: EvaluationError("never", i))
        with pytest.raises(EvaluationError) as err:
            refuse(np.bool_(True), lambda i: EvaluationError("one point", i))
        assert err.value.index == 0

    def test_first_failure_names_a_row_that_fails_a_later_operation(self):
        # rows 1 and 3 fail the first operation; row 0 passes it but fails the second,
        # so a loop over single rows would meet row 0 first
        def build(a):
            refuse(a < 0.0, lambda i: EvaluationError(f"negative at {i}", i))
            refuse(a > 5.0, lambda i: EvaluationError(f"large at {i}", i))
            return a

        a = np.array([9.0, -1.0, 2.0, -3.0])
        with pytest.raises(EvaluationError) as err:
            first_failure(build, a, start=10)
        assert (str(err.value), err.value.index) == ("large at 0", 10)
        assert first_failure(build, a[2:3]).tolist() == [2.0]
