"""Expression language: parsing and evaluation, with the tests' printer and
substitution as oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trichotomy.expr import (
    FUNCTIONS,
    Bin,
    Call,
    Const,
    EvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    eval_expr,
    free_vars,
    parse,
)
from trichotomy.propagator import CoefficientMatrix

from conftest import substitute, to_source


def ev(src, **env):
    return eval_expr(parse(src), env)


class TestEvaluation:
    def test_affine(self):
        assert ev("2*t + 1", t=3.0) == 7.0

    def test_pythagorean_identity(self):
        assert abs(ev("sin(t)^2 + cos(t)^2", t=0.7) - 1.0) <= 1e-15

    def test_arctangent(self):
        assert ev("atan(t)", t=1.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_exp_abs(self):
        assert ev("exp(-abs(t))", t=2.0) == pytest.approx(0.1353352832, abs=1e-9)

    def test_cubic(self):
        assert ev("x1 - 0.5*x1^3", x1=1.0) == 0.5

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e
        assert free_vars(parse("2*pi")) == set()

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-t^2", t=3.0) == -9.0

    def test_scientific_literals(self):
        assert ev("1e-3 + 2.5E2") == pytest.approx(250.001)

    def test_vectorized_numpy_env(self):
        t = np.linspace(-1.0, 1.0, 7)
        out = ev("sin(t) + t^2", t=t)
        assert np.allclose(out, np.sin(t) + t**2, atol=1e-15)


class TestErrors:
    def test_log_of_negative(self):
        with pytest.raises(EvalError):
            ev("ln(t)", t=-1.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/t", t=0.0)

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            ev("t^(-1)", t=0.0)

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(EvalError):
            ev("t^0.5", t=-4.0)

    @pytest.mark.parametrize("src, message", [
        ("ln(t)", "ln of non-positive value -5"),
        ("sqrt(t)", "sqrt of negative value -5"),
        ("t^0.5", "negative base -5 with non-integer exponent 0.5"),
    ])
    def test_messages_print_plain_floats(self, src, message):
        # a numpy scalar, as a state component of LipschitzSpec's pointwise call
        with pytest.raises(EvalError) as err:
            ev(src, t=np.float64(-5.0))
        assert str(err.value) == message

    @pytest.mark.parametrize("src, op", [
        ("1e200*1e200*sin(t)", "*"),
        ("1e300/1e-300*sin(t)", "/"),
        ("1e308 + 1e308*cos(t)", "+"),
        ("-1e308 - 1e308*cos(t)", "-"),
    ])
    def test_non_finite_operator_result_names_the_operator(self, src, op):
        # a float and an array give the one message, and numpy warns of nothing
        for t in (0.5, np.linspace(-1.0, 1.0, 5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EvalError) as err:
                    ev(src, t=t)
            assert str(err.value) == f"non-finite result from {op}"

    def test_unbound_variable(self):
        with pytest.raises(EvalError, match="x2"):
            ev("t + x2", t=1.0)

    def test_unknown_function(self):
        with pytest.raises((ExprSyntaxError, EvalError)):
            ev("frob(t)", t=1.0)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("2*+t")
        assert "offset" in str(err.value)
        assert err.value.offset is not None

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExprSyntaxError):
            parse("sin(t")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("t t")


class TestFreeVars:
    def test_mixed(self):
        assert free_vars(parse("t*x2")) == {"t", "x2"}

    def test_nested_calls(self):
        assert free_vars(parse("sin(t) + sin(sqrt(2)*t)")) == {"t"}


class TestTransforms:
    def test_substitute_shift(self):
        shifted = substitute(parse("sin(t) + x1"), "t", parse("t + 0.5"))
        assert eval_expr(shifted, {"t": 1.0, "x1": 2.0}) == pytest.approx(
            math.sin(1.5) + 2.0
        )

    def test_print_parse_round_trip_exact(self):
        srcs = ["2*t + 1", "-t^2", "2^3^2", "sin(t)*cos(x1) - t/(1 + t^2)"]
        for src in srcs:
            tree = parse(src)
            again = parse(to_source(tree))
            for t in (-2.0, -0.3, 0.0, 0.7, 3.1):
                env = {"t": t, "x1": 0.4 * t}
                assert eval_expr(again, env) == eval_expr(tree, env)


def _leaf():
    return st.one_of(
        st.floats(min_value=-3.0, max_value=3.0).map(lambda v: Num(round(v, 3))),
        st.sampled_from([Var("t"), Var("x1")]),
    )


def _node(children):
    binary = st.tuples(st.sampled_from("+-*"), children, children).map(
        lambda args: Bin(args[0], args[1], args[2])
    )
    call = st.tuples(
        st.sampled_from(["sin", "cos", "tanh", "abs", "atan"]), children
    ).map(lambda args: Call(args[0], args[1]))
    return st.one_of(binary, call, children.map(lambda c: Bin("-", Num(0.0), c)))


expr_trees = st.recursive(_leaf(), _node, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(expr_trees, st.floats(-4, 4), st.floats(-4, 4))
def test_round_trip_is_evaluation_identical(tree, t, x1):
    env = {"t": t, "x1": x1}
    reparsed = parse(to_source(tree))
    assert eval_expr(reparsed, env) == eval_expr(tree, env)


@settings(max_examples=60, deadline=None)
@given(expr_trees, st.floats(-4, 4), st.floats(-4, 4))
def test_evaluation_is_deterministic(tree, t, x1):
    env = {"t": t, "x1": x1}
    assert eval_expr(tree, env) == eval_expr(tree, env)


def _outcome(tree, t):
    """``eval_expr`` of ``tree`` at ``t`` broadcast to t's shape, or its EvalError's message."""
    try:
        return np.broadcast_to(eval_expr(tree, {"t": t}), np.shape(t))
    except EvalError as exc:
        return str(exc)


def _element(outcome, k):
    return outcome if isinstance(outcome, str) else outcome[k]


def _same(a, b) -> bool:
    """Equal messages, or float arrays of one shape with equal bits (NaNs and signed zeros too)."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _trees(depth):
    """Trees of at most ``depth`` operator levels over every function, operator and constant, in t."""
    leaf = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 750.0]).map(Num),
        st.floats(-4.0, 4.0).map(lambda v: Num(round(v, 3))),
        st.sampled_from([Const("pi"), Const("e"), Var("t"), Var("t")]),
    )
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda args: Bin(*args)),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(lambda args: Call(*args)),
        sub.map(Neg),
    )


drawn_trees = _trees(4)
drawn_times = st.lists(st.one_of(st.floats(-6.0, 6.0), st.sampled_from([-5.0, -2.0, 0.0, 2.0])),
                       min_size=1, max_size=9)


@settings(max_examples=400, deadline=None)
@given(drawn_trees, drawn_times)
@example(Call("ln", Var("t")), [2.0, -5.0, 0.0])
@example(Bin("^", Var("t"), Num(0.5)), [2.0, -2.0])
@example(Bin("/", Num(1.0), Bin("-", Var("t"), Num(2.0))), [0.0, 2.0])
@example(Call("exp", Bin("*", Num(750.0), Var("t"))), [0.0, 2.0])
@example(Call("tanh", Var("t")), [0.3, 1.7, -2.9])
def test_scalar_evaluation_is_its_array_element(tree, ts):
    # one arithmetic: a float t gives the bits of its element of the array
    # evaluation (and of a one-element array), or the same error message; an
    # array's error is the error of one of its times
    times = np.array(ts)
    whole = _outcome(tree, times)
    scalars = [_outcome(tree, t) for t in ts]
    for k in range(len(ts)):
        assert _same(scalars[k], _element(_outcome(tree, times[k : k + 1]), 0))
        if not isinstance(whole, str):
            assert _same(scalars[k], whole[k])
    if isinstance(whole, str):
        assert whole in scalars


@settings(max_examples=150, deadline=None)
@given(st.lists(drawn_trees, min_size=4, max_size=4), st.floats(-6.0, 6.0))
def test_coefficient_value_is_its_array_element(entries, t):
    A = CoefficientMatrix([entries[:2], entries[2:]])

    def outcome(fn, arg):
        try:
            return fn(arg)
        except EvalError as exc:
            return str(exc)

    assert _same(outcome(A.value, t), _element(outcome(A.values, np.array([t])), 0))
