"""Transition operators for x' = A(t) x."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution
from scipy.linalg import expm

from trichotomy.cli import load_problem
from trichotomy.expr import Bin, Num, Var
from trichotomy.propagator import CoefficientMatrix, ExactLeg, TransitionOperator

from conftest import problem_path, shifted_coefficient


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
        sh = shifted_coefficient(rotation_A, 0.7)
        assert np.allclose(sh.value(1.0), rotation_A.value(1.7), atol=1e-14)
        M1 = TransitionOperator(sh).matrix(0.0, 1.0)
        M2 = TransitionOperator(rotation_A).matrix(0.7, 1.7)
        assert np.linalg.norm(M1 - M2, 2) < 1e-7


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


def with_zero_t(A):
    """The same matrix with a syntactic ``0*t`` in each entry: an RK45 leg."""
    zero_t = Bin("*", Num(0.0), Var("t"))
    return CoefficientMatrix([[Bin("+", e, zero_t) for e in row] for row in A.entries])


def seeded_matrix(seed):
    """V diag(lam) V^-1 with cond(V) <= 1e3 and real rates in [-2, 2]."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    while True:
        V = rng.normal(size=(n, n))
        if np.linalg.cond(V) <= 1e3:
            break
    lam = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    M = V @ np.diag(lam) @ np.linalg.inv(V)
    return CoefficientMatrix.from_strings([[repr(float(x)) for x in row] for row in M])


CONSTANT_MATRICES = [
    *(load_problem(problem_path(name)).A
      for name in ("atan_forced", "c1_cubic", "diag_cos", "scalar_sin")),
    *(seeded_matrix(seed) for seed in range(4)),
    CoefficientMatrix.from_strings([["-0.5", "2"], ["-2", "-0.5"]]),
    CoefficientMatrix.from_strings([["-1", "8"], ["0", "1"]]),
]


class TestExactLegs:
    @pytest.mark.parametrize("A", CONSTANT_MATRICES)
    @pytest.mark.parametrize("t0, t1", [(-0.4, 1.3), (2.0, 0.5)])
    def test_exact_leg_matches_rk45_leg(self, A, t0, t1):
        exact = TransitionOperator(A).solve_leg(t0, t1)
        rk45 = TransitionOperator(with_zero_t(A)).solve_leg(t0, t1)
        assert isinstance(exact, ExactLeg)
        assert isinstance(rk45, OdeSolution)
        s = np.linspace(t0, t1, 23)
        assert exact(s).shape == rk45(s).shape == (A.n**2, s.size)
        assert exact(t1).shape == rk45(t1).shape == (A.n**2,)
        # RK45 runs at rel tol 1e-9, so its error scales with the entries
        scale = max(1.0, np.max(np.abs(rk45(s))))
        assert np.max(np.abs(exact(s) - rk45(s))) <= 1e-8 * scale

    @pytest.mark.parametrize("A", CONSTANT_MATRICES)
    @pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0), (-2.5, 0.7), (3.0, -1.0)])
    def test_matrix_is_the_matrix_exponential(self, A, t0, t1):
        M = TransitionOperator(A).matrix(t0, t1)
        ref = expm(A.value(0.0) * (t1 - t0))
        assert np.max(np.abs(M - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_jordan_block_is_integrated(self):
        A = CoefficientMatrix.from_strings([["-1", "1"], ["0", "-1"]])
        op = TransitionOperator(A)
        assert isinstance(op.solve_leg(0.0, 2.0), OdeSolution)
        for t in (0.5, 1.0, 2.0):
            ref = np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.max(np.abs(op.matrix(0.0, t) - ref)) <= 1e-8

    def test_time_dependent_leg_is_integrated(self, rotation_A):
        assert isinstance(TransitionOperator(rotation_A).solve_leg(0.0, 1.0), OdeSolution)

    def test_leg_is_cached_hashable_and_weakly_referenced(self, saddle_A):
        # the benchmark tracer tells integrations from cache hits with a WeakSet
        op = TransitionOperator(saddle_A)
        leg = op.solve_leg(0.0, 1.0)
        assert isinstance(leg, ExactLeg)
        assert op.solve_leg(0.0, 1.0) is leg
        assert op.solve_leg(1.0, 0.0) is not leg
        seen = weakref.WeakSet([leg])
        assert leg in seen and hash(leg) == hash(leg)
