"""Parsing and jet evaluation of user-supplied scalar formulas.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' unary)?           right-associative; the exponent folds to a finite number
    atom     := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

NUMBER is a decimal or scientific-notation literal.  A bare NAME must be
one of the declared variables; NAME '(' ... ')' must be one of the
functions sqrt, sin, cos, exp, log, abs.  '^' binds tighter than unary
minus and takes a constant exponent, so jets stay exact for the
half-integer powers that metric formulas use.

Parsing and evaluation recurse, so a formula is bounded: parentheses, function
calls, unary minuses and exponents nest at most ``MAX_NESTING`` = 50 deep inside
one another, and the parse tree has at most ``MAX_DEPTH`` = 400 levels (each
operator of a chain such as a sum adds one, so a sum of 400 terms is the most).
A formula beyond either bound is a ``ParseError``.

This text format is the public contract for the f/g/h and F fields of
config files.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

from .jets import EvaluationError, Jet, JetDomainError, absval, cos, exp, log, powc, sin, sqrt

FUNCTIONS = {"sqrt": sqrt, "sin": sin, "cos": cos, "exp": exp, "log": log, "abs": absval}
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
MAX_NESTING = 50  # parentheses, calls, unary minuses and exponents inside one another
MAX_DEPTH = 400  # levels of a parse tree, one per node that evaluation recurses through


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownVariableError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown variable '{name}'", offset)
        self.name = name


class UnknownFunctionError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown function '{name}'", offset)
        self.name = name


class EvalDomainError(EvaluationError):
    """A jet domain error, annotated with where in the source it happened."""

    def __init__(self, message: str, offset: int, index: int = 0):
        super().__init__(f"{message} (at offset {offset})", index)
        self.offset = offset


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    offset: int = field(default=0, compare=False)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, source: str, allowed_vars: set[str]):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # the nesting of the construct being parsed
        self.allowed = set(allowed_vars)

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _eat_op(self, *ops: str):
        t = self._peek()
        if t is not None and t[0] == "op" and t[1] in ops:
            self.pos += 1
            return t
        return None

    def _expect_op(self, op: str):
        if self._eat_op(op) is None:
            t = self._peek()
            offset = t[2] if t else len(self.source)
            raise ParseError(f"expected '{op}'", offset)

    def parse(self):
        if not self.tokens:
            raise ParseError("empty expression", 0)
        node = self.expr()
        t = self._peek()
        if t is not None:
            raise ParseError(f"unexpected token {t[1]!r}", t[2])
        return node

    def expr(self):
        node = self.term()
        while True:
            t = self._eat_op("+", "-")
            if t is None:
                return node
            node = BinOp(t[1], node, self.term(), offset=t[2])

    def term(self):
        node = self.unary()
        while True:
            t = self._eat_op("*", "/")
            if t is None:
                return node
            node = BinOp(t[1], node, self.unary(), offset=t[2])

    def _nested(self, parse, offset: int):
        """parse() one level deeper, refusing a formula nested more than MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nests more than {MAX_NESTING} levels deep", offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def unary(self):
        t = self._eat_op("-")
        if t is not None:
            return Neg(self._nested(self.unary, t[2]), offset=t[2])
        return self.power()

    def power(self):
        base = self.atom()
        t = self._eat_op("^")
        if t is None:
            return base
        exponent_node = _bounded(self._nested(self.unary, t[2]))
        try:
            exponent = _fold_constant(exponent_node)
        except ArithmeticError:  # a division by zero, or a power out of range
            exponent = math.nan
        if not (isinstance(exponent, float) and math.isfinite(exponent)):  # (-8)^0.5 is complex
            raise ParseError("exponent must fold to a finite number", t[2])
        return Pow(base, exponent, offset=t[2])

    def atom(self):
        t = self._peek()
        if t is None:
            raise ParseError("unexpected end of input", len(self.source))
        kind, text, offset = t
        if kind == "num":
            self.pos += 1
            return Const(float(text), offset=offset)
        if kind == "name":
            self.pos += 1
            if self._eat_op("("):
                if text not in FUNCTIONS:
                    raise UnknownFunctionError(text, offset)
                arg = self._nested(self.expr, offset)
                self._expect_op(")")
                return Call(text, arg, offset=offset)
            if text not in self.allowed:
                raise UnknownVariableError(text, offset)
            return Var(text, offset=offset)
        if text == "(":
            self.pos += 1
            node = self._nested(self.expr, offset)
            self._expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", offset)


def _fold_constant(node) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        return -_fold_constant(node.arg)
    if isinstance(node, BinOp):
        return OPERATORS[node.op](_fold_constant(node.left), _fold_constant(node.right))
    if isinstance(node, Pow):
        return _fold_constant(node.base) ** node.exponent
    offset = getattr(node, "offset", 0)
    raise ParseError("exponent must be a constant", offset)


def _bounded(node):
    """node, refused when its tree has more than MAX_DEPTH levels (counted level by
    level, without recursion), at the offset of a node below the last level."""
    level = [node]
    for _ in range(MAX_DEPTH):
        level = [getattr(n, k) for n in level for k in ("arg", "left", "right", "base") if hasattr(n, k)]
        if not level:
            return node
    raise ParseError(f"formula is more than {MAX_DEPTH} levels deep", level[0].offset)


def parse(source: str, allowed_vars: set[str], name: str | None = None):
    """Parse a formula into an AST over the declared variable names.  A ``ParseError``
    names the formula as ``name``, when given."""
    try:
        return _bounded(_Parser(source, allowed_vars).parse())
    except ParseError as err:
        if name is not None:
            err.args = (f"{err} in formula {name}",)
        raise


def serialize(node) -> str:
    """Canonical text form; parse(serialize(e)) is structurally identical to e unless
    the text nests deeper than MAX_NESTING.  Every operation is bracketed but the left
    operand of a chain of sums or of products, so a long sum nests one level."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{serialize(node.arg)})"
    if isinstance(node, BinOp):
        left = serialize(node.left)
        if isinstance(node.left, BinOp) and (node.left.op in "+-") == (node.op in "+-"):
            left = left[1:-1]  # left-associative: a + b - c is (a + b) - c
        return f"({left} {node.op} {serialize(node.right)})"
    if isinstance(node, Pow):
        return f"({serialize(node.base)} ^ {repr(node.exponent)})"
    if isinstance(node, Call):
        return f"{node.fn}({serialize(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def evaluate(node, bindings: dict[str, Jet]):
    """Evaluate an AST over jet bindings by structural recursion.

    The bindings (at least one) share one jet shape, which constants take.
    """
    if not bindings:
        raise ValueError("need a bound jet to evaluate an expression over")
    sample = next(iter(bindings.values()))
    for v in bindings.values():
        if v.nvars != sample.nvars or v.order != sample.order:
            raise ValueError("all bound jets must share nvars and order")
    return _evaluate(node, bindings, sample.nvars, sample.order)


def _evaluate(n, bindings: dict[str, Jet], nvars: int, order: int):
    try:
        if isinstance(n, Const):
            return Jet.constant(n.value, nvars, order)
        if isinstance(n, Var):
            try:
                return bindings[n.name]
            except KeyError:
                raise UnknownVariableError(n.name, n.offset) from None
        if isinstance(n, Neg):
            return -_evaluate(n.arg, bindings, nvars, order)
        if isinstance(n, BinOp):
            a, b = _evaluate(n.left, bindings, nvars, order), _evaluate(n.right, bindings, nvars, order)
            return OPERATORS[n.op](a, b)
        if isinstance(n, Pow):
            return powc(_evaluate(n.base, bindings, nvars, order), n.exponent)
        if isinstance(n, Call):
            return FUNCTIONS[n.fn](_evaluate(n.arg, bindings, nvars, order))
    except JetDomainError as err:
        raise EvalDomainError(str(err), n.offset, err.index) from err
    raise TypeError(f"not an AST node: {n!r}")
