"""Small expression language for coefficient matrices, forcings and nonlinearities.

Grammar (standard precedence, ``^`` binds tightest and is right-associative)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are either one of the known function names (called with
parentheses), one of the constants ``pi``/``e``, or a free variable such as
``t`` or ``x1``.  Trees are immutable; evaluation is a pure function, so
parsed expressions are safe to share across threads.

Evaluation has one arithmetic, numpy's, for floats and arrays alike: a value
at one time has the bits of that time's element of an evaluation over an
array of times.  A domain error names the first offending value in C order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Const",
    "Neg",
    "Bin",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "EvalError",
    "parse",
    "eval_expr",
    "eval_stack",
    "free_vars",
]


class ExprError(Exception):
    """Base class for expression-language failures."""


class ExprSyntaxError(ExprError):
    """Parse failure; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Evaluation failure: unbound variable, domain violation or overflow."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, Bin, Call]

FUNCTIONS = (
    "sin",
    "cos",
    "tan",
    "atan",
    "exp",
    "ln",
    "sqrt",
    "abs",
    "tanh",
    "cosh",
    "sinh",
    "sign",
)

CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(
                f"unexpected character {stripped[0]!r}", len(source) - len(stripped)
            )
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        return self.next()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.next()
                node = Bin(value, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.next()
                node = Bin(value, node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            # right-associative; exponent may start with unary minus
            return Bin("^", node, self.parse_unary())
        return node

    def parse_atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return Num(value)
        if kind == "ident":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", offset)
                self.next()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in FUNCTIONS:
                raise ExprSyntaxError(
                    f"expected '(' after function name {value!r}", offset
                )
            if value in CONSTANTS:
                return Const(value)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ExprSyntaxError(f"expected a value, found {shown!r}", offset)


def parse(source: str) -> Expr:
    """Parse ``source`` into an expression tree.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input or
    unknown function names.
    """
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", offset)
    return node


def _first(v, bad) -> float:
    """The first value of ``v`` (a float or an array, in C order) where ``bad`` holds."""
    return float(np.broadcast_to(v, np.shape(bad))[bad][0])


def _apply_fn(fn: str, v):
    if fn == "ln":
        bad = v <= 0.0
        if np.any(bad):
            raise EvalError(f"ln of non-positive value {_first(v, bad):g}")
        return np.log(v)
    if fn == "sqrt":
        bad = v < 0.0
        if np.any(bad):
            raise EvalError(f"sqrt of negative value {_first(v, bad):g}")
        return np.sqrt(v)
    if fn in ("atan", "abs", "sign"):  # finite on finite input; NaN and inf pass on
        return getattr(np, "arctan" if fn == "atan" else fn)(v)
    with np.errstate(over="ignore", invalid="ignore"):
        result = getattr(np, fn)(v)
    if not np.all(np.isfinite(result)):
        raise EvalError(f"non-finite result from {fn}")
    return result


def _pow(a, b):
    if np.any(np.equal(a, 0.0) & np.less(b, 0.0)):
        raise EvalError("0 raised to a negative power")
    bad = np.less(a, 0.0) & np.not_equal(b, np.floor(b))
    if np.any(bad):
        raise EvalError(f"negative base {_first(a, bad):g} "
                        f"with non-integer exponent {_first(b, bad):g}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = np.power(a, b, dtype=float)
    if not np.all(np.isfinite(result)):
        raise EvalError("non-finite result from ^")
    return result


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _arithmetic(op: str, a, b):
    """``a op b`` for + - * /, under :func:`eval_expr`'s raising errstate: an
    overflow or an invalid operation (inf - inf, 0 * inf) is an EvalError
    naming ``op``, while an infinite operand alone passes on, as through atan."""
    if op == "/" and np.any(np.equal(b, 0.0)):
        raise EvalError("division by zero")
    try:
        return _ARITHMETIC[op](a, b)
    except FloatingPointError:
        raise EvalError(f"non-finite result from {op}") from None


def _eval(e: Expr, env: dict):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.arg, env)
    if isinstance(e, Call):
        return _apply_fn(e.fn, _eval(e.arg, env))
    if isinstance(e, Bin):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "^":
            return _pow(a, b)
        return _arithmetic(e.op, a, b)
    raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e: Expr, env: dict):
    """Evaluate ``e`` with variables bound by ``env``.

    Values may be floats or numpy arrays (broadcast elementwise); every
    function and operator is numpy's, so a float gives the bits of the
    matching element of an array.  Domain violations (``ln`` of a
    non-positive number, ``sqrt`` of a negative one, division by zero,
    ``0^negative``, negative base with non-integer exponent) and non-finite
    results of functions, ``^`` and the operators ``+ - * /`` raise
    :class:`EvalError`, with no warning; a domain message names the first
    offending value as a plain float, for example ``ln of non-positive
    value -5``, and a non-finite one its function or operator, for example
    ``non-finite result from *``.
    """
    with np.errstate(over="raise", invalid="raise"):
        return _eval(e, env)


def eval_stack(exprs, env, shape) -> np.ndarray:
    """The expressions evaluated under ``env``, each broadcast to ``shape``
    as floats and stacked on a last axis: shape + (len(exprs),)."""
    out = np.empty(shape + (len(exprs),))
    with np.errstate(over="raise", invalid="raise"):
        for i, e in enumerate(exprs):
            out[..., i] = _eval(e, env)
    return out


def free_vars(e: Expr) -> set:
    """Exact set of variable names occurring in ``e``."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (Num, Const)):
        return set()
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, Bin):
        return free_vars(e.left) | free_vars(e.right)
    raise TypeError(f"not an expression node: {e!r}")
