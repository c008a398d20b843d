"""Transition operators for x' = A(t) x."""

import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution
from scipy.linalg import expm

import trichotomy.propagator as propagator
from trichotomy.cli import load_problem
from trichotomy.expr import Bin, Num, Var
from trichotomy.propagator import (
    CoefficientMatrix,
    ExactLeg,
    MagnusLeg,
    PropagationError,
    TransitionOperator,
)
from trichotomy.solvers import _grid_values

from conftest import problem_path, rk45_leg, shifted_coefficient


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

    @pytest.mark.parametrize("name", ["rotation", "trich_tanh", "arctan", "diag_cos"])
    def test_values_on_an_array(self, name):
        A = load_problem(problem_path(name)).A
        times = np.linspace(-3.0, 4.0, 24).reshape(4, 6)
        V = A.values(times)
        assert V.shape == (4, 6, A.n, A.n)
        for idx in np.ndindex(times.shape):
            assert np.allclose(V[idx], A.value(times[idx]), rtol=1e-15, atol=1e-15)
        # the residual check's former grid evaluation, bit for bit
        entries = [e for row in A.entries for e in row]
        flat = times.ravel()
        assert np.array_equal(V.reshape(-1, A.n, A.n),
                              _grid_values(entries, {"t": flat}, flat.shape).reshape(-1, A.n, A.n))


@settings(max_examples=20, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
def test_cocycle_through_intermediate_time(rotor_A, a, b, c):
    op = TransitionOperator(rotor_A)
    lhs = op.matrix(b, c) @ op.matrix(a, b)
    rhs = op.matrix(a, c)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-7


def with_zero_t(A):
    """The same matrix with a syntactic ``0*t`` in each entry: a Magnus leg."""
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
        magnus = TransitionOperator(with_zero_t(A)).solve_leg(t0, t1)
        rk45 = rk45_leg(A, t0, t1)
        assert isinstance(exact, ExactLeg)
        assert isinstance(magnus, MagnusLeg)
        assert isinstance(rk45, OdeSolution)
        s = np.linspace(t0, t1, 23)
        assert exact(s).shape == magnus(s).shape == rk45(s).shape == (A.n**2, s.size)
        assert exact(t1).shape == magnus(t1).shape == rk45(t1).shape == (A.n**2,)
        # both integrators run at rel tol 1e-9, so their error scales with the entries
        for leg in (rk45, magnus):
            scale = max(1.0, np.max(np.abs(leg(s))))
            assert np.max(np.abs(exact(s) - leg(s))) <= 1e-8 * scale

    @pytest.mark.parametrize("A", CONSTANT_MATRICES)
    @pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0), (-2.5, 0.7), (3.0, -1.0)])
    def test_matrix_is_the_matrix_exponential(self, A, t0, t1):
        M = TransitionOperator(A).matrix(t0, t1)
        ref = expm(A.value(0.0) * (t1 - t0))
        assert np.max(np.abs(M - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_jordan_block_is_integrated(self):
        A = CoefficientMatrix.from_strings([["-1", "1"], ["0", "-1"]])
        op = TransitionOperator(A)
        assert isinstance(op.solve_leg(0.0, 2.0), MagnusLeg)
        for t in (0.5, 1.0, 2.0):
            ref = np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.max(np.abs(op.matrix(0.0, t) - ref)) <= 1e-8

    def test_time_dependent_leg_is_integrated(self, rotation_A):
        assert isinstance(TransitionOperator(rotation_A).solve_leg(0.0, 1.0), MagnusLeg)

    def test_leg_is_cached_hashable_and_weakly_referenced(self, saddle_A):
        # the benchmark tracer tells integrations from cache hits with a WeakSet
        op = TransitionOperator(saddle_A)
        leg = op.solve_leg(0.0, 1.0)
        assert isinstance(leg, ExactLeg)
        assert op.solve_leg(0.0, 1.0) is leg
        assert op.solve_leg(1.0, 0.0) is not leg
        seen = weakref.WeakSet([leg])
        assert leg in seen and hash(leg) == hash(leg)


class TestBatchedExpm:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_scipy_at_step_sizes(self, n):
        # 1-norms from 1e-3 to 2 reach every Pade degree below 13
        rng = np.random.default_rng(n)
        X = rng.normal(size=(7, 40, n, n))
        X *= np.geomspace(1e-3, 2.0, 7)[:, None, None, None] / np.abs(X).sum(axis=-2).max(
            axis=-1)[..., None, None]
        E = propagator.expm(X)
        assert E.shape == X.shape
        ref = np.array([[scipy.linalg.expm(x) for x in row] for row in X])
        rel = np.max(np.abs(E - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
        assert rel.max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_squaring_matches_the_symmetric_closed_form(self, n):
        # 1-norms up to 40 scale each matrix by its own power of 2; a
        # symmetric X has exp(X) = V diag(e^w) V^T to rounding
        rng = np.random.default_rng(10 + n)
        X = rng.normal(size=(60, n, n))
        X = X + X.swapaxes(1, 2)
        X *= np.geomspace(1e-3, 40.0, 60)[:, None, None] / np.abs(X).sum(axis=-2).max(
            axis=-1)[:, None, None]
        w, V = np.linalg.eigh(X)
        ref = (V * np.exp(w)[:, None, :]) @ V.swapaxes(1, 2)
        err = np.max(np.abs(propagator.expm(X) - ref), axis=(1, 2))
        assert (err / np.max(np.abs(ref), axis=(1, 2))).max() <= 1e-13

    def test_single_matrix_and_zero(self):
        X = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(propagator.expm(X), scipy.linalg.expm(X), rtol=1e-15, atol=1e-15)
        assert np.array_equal(propagator.expm(np.zeros((3, 2, 2))), np.stack([np.eye(2)] * 3))


class TestMagnusLegs:
    @pytest.mark.parametrize("name", ["rotation", "trich_tanh", "arctan"])
    def test_batched_legs_match_the_rk45_reference(self, name):
        A = load_problem(problem_path(name)).A
        op = TransitionOperator(A)
        spans = [(float(k), k + 1.0) for k in range(-6, 6)] + [(2.5, 3.0), (4.0, 1.5)]
        legs = op.solve_legs(spans)
        assert all(isinstance(leg, MagnusLeg) for leg in legs)
        assert all(op.solve_leg(*span) is leg for span, leg in zip(spans, legs))
        for (t0, t1), leg in zip(spans, legs):
            ref = rk45_leg(A, t0, t1)
            s = np.linspace(t0, t1, 17)
            scale = np.max(np.abs(ref(s)))
            assert np.max(np.abs(leg(s) - ref(s))) <= 1e-8 * scale
            assert np.max(np.abs(leg(t1) - ref(t1))) <= 1e-8 * scale
            # nodes are returned as integrated, and a leg starts at I
            assert np.array_equal(leg(leg.ts[3]), leg.Y[3].reshape(-1))
            assert np.array_equal(leg(t0), np.eye(A.n).reshape(-1))

    def test_one_batch_per_call(self, monkeypatch, rotation_A):
        batches = []
        magnus_legs = propagator._magnus_legs
        monkeypatch.setattr(propagator, "_magnus_legs",
                            lambda A, spans: batches.append(list(spans)) or magnus_legs(A, spans))
        op = TransitionOperator(rotation_A)
        op.solve_legs([(0.0, 1.0), (1.0, 2.0), (0.0, 1.0)])
        op.solve_legs([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
        op.solve_leg(3.0, 4.0)
        assert batches == [[(0.0, 1.0), (1.0, 2.0)], [(2.0, 3.0), (3.0, 4.0)]]

    def test_fast_coefficient_forces_refinement(self):
        # x' = cos(40 t) x: Phi(t, 0) = exp(sin(40 t) / 40)
        op = TransitionOperator(CoefficientMatrix.from_strings([["cos(40*t)"]]))
        slow = TransitionOperator(CoefficientMatrix.from_strings([["cos(t)"]]))
        leg = op.solve_leg(0.0, 1.0)
        assert len(leg.ts) - 1 > len(slow.solve_leg(0.0, 1.0).ts) - 1
        assert len(leg.ts) - 1 > 2 * propagator.FIRST_STEPS
        s = np.linspace(0.0, 1.0, 41)
        ref = np.exp(np.sin(40.0 * s) / 40.0)
        assert np.max(np.abs(leg(s)[0] - ref)) <= 1e-9 * np.max(ref)

    def test_unresolved_leg_raises(self):
        op = TransitionOperator(CoefficientMatrix.from_strings([["1000*cos(100000*t)"]]))
        with pytest.raises(PropagationError, match=r"Magnus leg \[0, 1\] unresolved at 4096 "
                           r"steps: Richardson error estimate .* exceeds ATOL \+ RTOL \|Y\|"):
            op.solve_leg(0.0, 1.0)

    def test_overflow_raises(self):
        op = TransitionOperator(CoefficientMatrix.from_strings([["1000 + 0*t"]]))
        with pytest.raises(PropagationError, match=r"Magnus leg \[0, 1\] overflowed"):
            op.solve_leg(0.0, 1.0)


def _rotating_saddle(omega, a, b):
    """R(wt) diag(-a, b) R(wt)^T + wJ, whose Phi(t, s) is R(wt) e^{diag(-a, b)(t - s)} R(ws)^T."""
    c, s, w = f"cos({omega!r}*t)", f"sin({omega!r}*t)", repr(omega)
    return CoefficientMatrix.from_strings([
        [f"-{a!r}*{c}^2 + {b!r}*{s}^2", f"-{a + b!r}*{c}*{s} - {w}"],
        [f"-{a + b!r}*{c}*{s} + {w}", f"-{a!r}*{s}^2 + {b!r}*{c}^2"],
    ])


def _rotating_saddle_phi(omega, a, b, t, s):
    def R(x):
        return np.array([[np.cos(x), -np.sin(x)], [np.sin(x), np.cos(x)]])

    return R(omega * t) @ np.diag(np.exp(np.array([-a, b]) * (t - s))) @ R(omega * s).T


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.integers(-20, 20))
def test_rotating_saddle_legs_match_the_closed_form(omega, a, b, k):
    op = TransitionOperator(_rotating_saddle(omega, a, b))
    spans = [(float(k), k + 1.0), (k + 1.0, k + 2.0), (k + 2.0, k + 0.5)]
    for (t0, t1), leg in zip(spans, op.solve_legs(spans)):
        s = np.linspace(t0, t1, 9)
        ref = np.stack([_rotating_saddle_phi(omega, a, b, x, t0).reshape(-1) for x in s], axis=1)
        assert np.max(np.abs(leg(s) - ref)) <= 1e-8 * np.max(np.abs(ref))
