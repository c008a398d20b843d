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


def _is_integral(v) -> bool:
    return float(v) == math.floor(v)


def _apply_fn(fn: str, v):
    scalar = not isinstance(v, np.ndarray)
    if fn == "ln":
        if scalar:
            if v <= 0.0:
                raise EvalError(f"ln of non-positive value {float(v):g}")
            return math.log(v)
        if np.any(v <= 0.0):
            raise EvalError("ln of non-positive value in array argument")
        return np.log(v)
    if fn == "sqrt":
        if scalar:
            if v < 0.0:
                raise EvalError(f"sqrt of negative value {float(v):g}")
            return math.sqrt(v)
        if np.any(v < 0.0):
            raise EvalError("sqrt of negative value in array argument")
        return np.sqrt(v)
    if fn == "abs":
        return abs(v) if scalar else np.abs(v)
    if fn == "sign":
        return float(np.sign(v)) if scalar else np.sign(v)
    if fn == "atan":
        return math.atan(v) if scalar else np.arctan(v)
    try:
        result = getattr(math if scalar else np, fn)(v)
    except OverflowError as exc:
        raise EvalError(f"overflow in {fn}") from exc
    if scalar and not math.isfinite(result):
        raise EvalError(f"non-finite result from {fn}")
    if not scalar and not np.all(np.isfinite(result)):
        raise EvalError(f"non-finite result from {fn} in array argument")
    return result


def _pow(a, b):
    scalar = not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray))
    if scalar:
        if a == 0.0 and b < 0.0:
            raise EvalError("0 raised to a negative power")
        if a < 0.0 and not _is_integral(b):
            raise EvalError(f"negative base {float(a):g} with non-integer exponent {float(b):g}")
        try:
            result = math.pow(a, b)
        except OverflowError as exc:
            raise EvalError("overflow in ^") from exc
        if not math.isfinite(result):
            raise EvalError("non-finite result from ^")
        return result
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.any((a_arr == 0.0) & (b_arr < 0.0)):
        raise EvalError("0 raised to a negative power in array argument")
    if np.any((a_arr < 0.0) & (b_arr != np.floor(b_arr))):
        raise EvalError("negative base with non-integer exponent in array argument")
    result = np.power(a_arr, b_arr)
    if not np.all(np.isfinite(result)):
        raise EvalError("non-finite result from ^ in array argument")
    return result


def _div(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if np.any(np.asarray(b) == 0.0):
            raise EvalError("division by zero in array argument")
        return a / b
    if b == 0.0:
        raise EvalError("division by zero")
    return a / b


def eval_expr(e: Expr, env: dict):
    """Evaluate ``e`` with variables bound by ``env``.

    Values may be floats or numpy arrays (broadcast elementwise).  Domain
    violations (``ln`` of a non-positive number, division by zero,
    ``0^negative``, negative base with non-integer exponent) raise
    :class:`EvalError` instead of producing non-finite numbers.
    """
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
        return -eval_expr(e.arg, env)
    if isinstance(e, Call):
        return _apply_fn(e.fn, eval_expr(e.arg, env))
    if isinstance(e, Bin):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return _div(a, b)
        if e.op == "^":
            return _pow(a, b)
    raise TypeError(f"not an expression node: {e!r}")


def eval_stack(exprs, env, shape) -> np.ndarray:
    """The expressions evaluated under ``env``, each broadcast to ``shape``
    as floats and stacked on a last axis: shape + (len(exprs),)."""
    out = np.empty(shape + (len(exprs),))
    for i, e in enumerate(exprs):
        out[..., i] = eval_expr(e, env)
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
