"""Transition operators for x' = A(t) x."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trichotomy.propagator import CoefficientMatrix, TransitionOperator


class TestPropagate:
    def test_quarter_turn(self, rotor_A):
        out = TransitionOperator(rotor_A).matrix(0.0, np.pi / 2) @ [1.0, 0.0]
        assert np.allclose(out, [0.0, -1.0], atol=1e-8)

    def test_zero_length_is_identity(self, rotor_A):
        v = np.array([0.3, -1.2])
        assert np.array_equal(TransitionOperator(rotor_A).matrix(1.5, 1.5) @ v, v)

    def test_scalar_decay(self):
        A = CoefficientMatrix.from_strings([["-1"]])
        out = TransitionOperator(A).matrix(0.0, 1.0) @ [1.0]
        assert out[0] == pytest.approx(0.3678794412, abs=1e-9)

    def test_backward_inverts_forward(self, rotation_A):
        op = TransitionOperator(rotation_A)
        v = np.array([1.0, 2.0])
        there = op.matrix(0.0, 3.0) @ v
        back = op.matrix(3.0, 0.0) @ there
        assert np.linalg.norm(back - v) < 1e-7


class TestTransitionMatrix:
    def test_diagonal_saddle(self, saddle_A):
        M = TransitionOperator(saddle_A).matrix(0.0, 1.0)
        assert np.allclose(
            M, np.diag([np.exp(-1.0), np.exp(1.0)]), rtol=1e-8, atol=1e-10
        )

    def test_cocycle_identity(self, rotation_A):
        op = TransitionOperator(rotation_A)
        lhs = op.matrix(1.0, 2.0) @ op.matrix(0.0, 1.0)
        rhs = op.matrix(0.0, 2.0)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-8

    def test_liouville_determinant(self, rotation_A):
        # det Phi(t, 0) = exp(int_0^t trace A); trace here is -2*cos(0.6 s) + ...
        from scipy.integrate import quad

        tr = lambda s: np.trace(rotation_A.value(s))
        t = 2.5
        M = TransitionOperator(rotation_A).matrix(0.0, t)
        expected = np.exp(quad(tr, 0.0, t, epsabs=1e-12)[0])
        assert abs(np.linalg.det(M) - expected) <= 1e-6 * abs(expected)

    def test_shifted_coefficient(self, rotation_A):
        sh = rotation_A.shifted(0.7)
        assert np.allclose(sh.value(1.0), rotation_A.value(1.7), atol=1e-14)
        M1 = TransitionOperator(sh).matrix(0.0, 1.0)
        M2 = TransitionOperator(rotation_A).matrix(0.7, 1.7)
        assert np.linalg.norm(M1 - M2, 2) < 1e-7

    def test_reversed_coefficient(self, saddle_A):
        rev = saddle_A.reversed()
        assert np.allclose(rev.value(2.0), -saddle_A.value(-2.0))
        M = TransitionOperator(rev).matrix(0.0, 1.0)
        assert np.allclose(M, np.diag([np.exp(1.0), np.exp(-1.0)]), rtol=1e-7)


class TestCoefficientMatrix:
    def test_entries_must_be_square(self):
        with pytest.raises(ValueError):
            CoefficientMatrix.from_strings([["1", "0"]])

    def test_only_t_allowed(self):
        with pytest.raises(Exception, match="x1"):
            CoefficientMatrix.from_strings([["x1"]])

    def test_value_at_time(self, trich_A):
        V = trich_A.value(0.5)
        assert V[2, 2] == pytest.approx(-np.tanh(0.5), abs=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
def test_cocycle_through_intermediate_time(rotor_A, a, b, c):
    op = TransitionOperator(rotor_A)
    lhs = op.matrix(b, c) @ op.matrix(a, b)
    rhs = op.matrix(a, c)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-7
