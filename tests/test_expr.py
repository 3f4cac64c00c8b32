import math
import random

import pytest

from finslercheck import expr
from finslercheck.expr import (
    BinOp,
    Call,
    Const,
    EvalDomainError,
    Neg,
    ParseError,
    Pow,
    UnknownFunctionError,
    UnknownVariableError,
    Var,
)
from finslercheck.jets import Jet, lift_var


class TestParse:
    def test_reciprocal_sqrt(self):
        ast = expr.parse("1/sqrt(1+t)", {"t"})
        assert ast == BinOp("/", Const(1.0), Call("sqrt", BinOp("+", Const(1.0), Var("t"))))

    def test_power_binds_before_times(self):
        ast = expr.parse("2*r^2 - 1", {"r"})
        assert ast == BinOp("-", BinOp("*", Const(2.0), Pow(Var("r"), 2.0)), Const(1.0))

    def test_power_right_associative(self):
        ast = expr.parse("2 ^ 3 ^ 2", set())
        assert ast == Pow(Const(2.0), 9.0)

    def test_power_binds_tighter_than_unary_minus(self):
        ast = expr.parse("-r^2", {"r"})
        assert ast == Neg(Pow(Var("r"), 2.0))

    def test_negative_exponent(self):
        ast = expr.parse("r ^ -0.5", {"r"})
        assert ast == Pow(Var("r"), -0.5)

    def test_unknown_variable_named(self):
        with pytest.raises(UnknownVariableError) as err:
            expr.parse("1/sqrt(1+s)", {"t"})
        assert err.value.name == "s"

    def test_unknown_function_named(self):
        with pytest.raises(UnknownFunctionError) as err:
            expr.parse("tanh(t)", {"t"})
        assert err.value.name == "tanh"

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            expr.parse("1 + * 2", set())
        assert err.value.offset == 4

    def test_unexpected_character_offset(self):
        with pytest.raises(ParseError) as err:
            expr.parse("1 + $", set())
        assert err.value.offset == 4

    def test_empty_source(self):
        with pytest.raises(ParseError):
            expr.parse("", set())
        with pytest.raises(ParseError):
            expr.parse("   ", set())

    def test_variable_exponent_rejected(self):
        with pytest.raises(ParseError):
            expr.parse("r ^ t", {"r", "t"})

    def test_scientific_notation(self):
        ast = expr.parse("1.5e-3 + .25", set())
        assert ast == BinOp("+", Const(1.5e-3), Const(0.25))

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            expr.parse("2 r", {"r"})


class TestBounds:
    # each of these once ended in a RecursionError, OverflowError or ValueError
    # traceback instead of a ParseError
    @pytest.mark.parametrize(
        "source, message",
        [
            ("(" * 200 + "t" + ")" * 200, "formula nests more than 50 levels deep"),
            ("-" * 1000 + "t", "formula nests more than 50 levels deep"),
            ("sqrt(" * 60 + "t" + ")" * 60, "formula nests more than 50 levels deep"),
            (" + ".join(["t"] * 1500), "formula is more than 400 levels deep"),
            ("t" + "^2" * 11, "exponent must fold to a finite number"),
            ("t^1e400", "exponent must fold to a finite number"),
            ("t^(1e400-1e400)", "exponent must fold to a finite number"),
            ("t^(1/0)", "exponent must fold to a finite number"),
            ("t^((-8)^0.5)", "exponent must fold to a finite number"),
            ("t^(" + " + ".join(["1"] * 1500) + ")", "formula is more than 400 levels deep"),
        ],
    )
    def test_refused_as_a_parse_error(self, source, message):
        with pytest.raises(ParseError, match=message):
            expr.parse(source, {"t"})

    def test_parse_error_names_the_formula(self):
        with pytest.raises(ParseError) as err:
            expr.parse("1/(1+t", {"t"}, "f")
        assert str(err.value) == "expected ')' (at offset 6) in formula f"
        assert err.value.offset == 6

    def test_formulas_at_the_bounds_parse_and_evaluate(self):
        t = lift_var(0, 0.5, 1, 2)
        nested = expr.parse("(" * 50 + "t" + ")" * 50, {"t"})
        assert expr.evaluate(nested, {"t": t}).value == 0.5
        calls = expr.parse("abs(" * 50 + "t" + ")" * 50, {"t"})
        assert expr.evaluate(calls, {"t": t}).value == 0.5
        long_sum = expr.parse(" + ".join(["t"] * 400), {"t"})
        assert expr.evaluate(long_sum, {"t": t}).value == 200.0
        # serialize brackets each operation but the left operand of a chain (trees this
        # deep are compared as text: dataclass equality recurses more than once a level)
        text = expr.serialize(long_sum)
        assert text.count("(") == 1 and expr.serialize(expr.parse(text, {"t"})) == text
        text = expr.serialize(expr.parse(" - ".join(["t * 2 / t"] * 130), {"t"}))
        assert text.count("(") == 131 and expr.serialize(expr.parse(text, {"t"})) == text
        with pytest.raises(ParseError, match="more than 400 levels"):
            expr.parse(" + ".join(["t"] * 401), {"t"})

    def test_exponent_with_a_zero_operand_folds(self):
        # the fold formed all four results of an operation, so 1 + 0 divided by zero
        assert expr.parse("t^(1+0)", {"t"}) == Pow(Var("t"), 1.0)
        assert expr.parse("t^(2*0)", {"t"}) == Pow(Var("t"), 0.0)


class TestEvaluate:
    def test_reciprocal_sqrt_jet(self):
        ast = expr.parse("1/sqrt(1+t)", {"t"})
        j = expr.evaluate(ast, {"t": lift_var(0, 0.0, 1, 2)})
        assert j.value == 1.0
        assert j.partial(0) == -0.5

    def test_square_jet(self):
        ast = expr.parse("r^2", {"r"})
        j = expr.evaluate(ast, {"r": lift_var(0, 3.0, 1, 2)})
        assert (j.value, j.partial(0), j.partial(0, 0)) == (9.0, 6.0, 2.0)

    def test_domain_error_carries_node_offset(self):
        ast = expr.parse("1 + sqrt(t - 2)", {"t"})
        with pytest.raises(EvalDomainError) as err:
            expr.evaluate(ast, {"t": lift_var(0, 1.0, 1, 2)})
        assert err.value.offset == 4  # the sqrt call site

    def test_variable_free_needs_shape(self):
        ast = expr.parse("2 + 3", set())
        with pytest.raises(ValueError):
            expr.evaluate(ast, {})

    def test_bindings_are_freed_without_a_gc_pass(self):
        # a family quadrature round's integrand argument must not outlive its round
        import gc
        import weakref

        import numpy as np

        ast = expr.parse("1/sqrt(1+t)", {"t"})
        t = lift_var(0, np.linspace(0.1, 2.0, 50), 2, 2)
        freed = weakref.ref(t.coeffs)
        enabled = gc.isenabled()
        gc.disable()
        try:
            expr.evaluate(ast, {"t": t})
            del t
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_mixed_binding_shapes_rejected(self):
        ast = expr.parse("a + b", {"a", "b"})
        with pytest.raises(ValueError):
            expr.evaluate(ast, {"a": lift_var(0, 1.0, 2, 2), "b": lift_var(0, 1.0, 2, 1)})


# -- random round-trip and order-0 agreement ----------------------------------

_VARS = ["r", "t", "w"]


def _random_ast(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return Const(round(rng.uniform(0.1, 4.0), 3))
        return Var(rng.choice(_VARS))
    if roll < 0.45:
        return BinOp(rng.choice("+-*"), _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))
    if roll < 0.55:
        # keep denominators away from zero: constant offset
        return BinOp(
            "/",
            _random_ast(rng, depth - 1),
            BinOp("+", Call("abs", _random_ast(rng, depth - 1)), Const(1.5)),
        )
    if roll < 0.67:
        return Neg(_random_ast(rng, depth - 1))
    if roll < 0.82:
        return Pow(
            BinOp("+", Call("abs", _random_ast(rng, depth - 1)), Const(1.0)),
            rng.choice([2.0, 3.0, -1.0, 0.5, -0.5, 1.5]),
        )
    fn = rng.choice(["sin", "cos", "exp"])
    arg = _random_ast(rng, depth - 1)
    if fn == "exp":
        arg = BinOp("*", Const(0.3), arg)
    return Call(fn, arg)


def test_parse_serialize_roundtrip_100_random_asts():
    rng = random.Random(1234)
    for _ in range(100):
        ast = _random_ast(rng, 4)
        text = expr.serialize(ast)
        again = expr.parse(text, set(_VARS))
        assert again == ast, text


def _plain_eval(node, env):
    """Independent float interpreter used as the order-0 oracle."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_plain_eval(node.arg, env)
    if isinstance(node, BinOp):
        a = _plain_eval(node.left, env)
        b = _plain_eval(node.right, env)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
    if isinstance(node, Pow):
        base = _plain_eval(node.base, env)
        e = node.exponent
        if e == int(e):
            # binary exponentiation over floats, the exact-arithmetic route
            n, acc, result = abs(int(e)), base, None
            if n == 0:
                return 1.0
            while n:
                if n & 1:
                    result = acc if result is None else result * acc
                n >>= 1
                if n:
                    acc = acc * acc
            return 1.0 / result if e < 0 else result
        return base**e
    if isinstance(node, Call):
        fn = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
              "exp": math.exp, "log": math.log, "abs": abs}[node.fn]
        return fn(_plain_eval(node.arg, env))
    raise TypeError(node)


def test_order0_eval_matches_plain_interpreter_within_2_ulps():
    rng = random.Random(987)
    trials = 0
    while trials < 100:
        ast = _random_ast(rng, 4)
        env = {name: rng.uniform(0.2, 2.5) for name in _VARS}
        try:
            want = _plain_eval(ast, env)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        bindings = {name: Jet.constant(val, 1, 0) for name, val in env.items()}
        try:
            got = expr.evaluate(ast, bindings).value
        except EvalDomainError:
            continue
        assert abs(got - want) <= 2 * math.ulp(max(abs(want), 1e-30)), expr.serialize(ast)
        trials += 1
