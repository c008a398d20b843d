"""Transition operators for x' = A(t) x."""

import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution
from scipy.linalg import expm

import trichotomy.propagator as propagator
from trichotomy.cli import load_problem
from trichotomy.expr import eval_expr, eval_stack
from trichotomy.propagator import (
    CoefficientMatrix,
    MagnusLeg,
    PropagationError,
    TransitionOperator,
)
from trichotomy.solvers import LipschitzSpec, _state_env

from conftest import problem_path, rk45_leg, shifted_coefficient, transition_matrix

BUNDLED = sorted(path.stem for path in Path(problem_path("diag_cos")).parent.glob("*.json")
                 if path.stem != "problem.schema")


def _assigned(exprs, env, shape):
    """The former forcing sampler's loop: each expression assigned into its column."""
    out = np.zeros(shape + (len(exprs),))
    for i, e in enumerate(exprs):
        out[..., i] = eval_expr(e, env)
    return out


def _column_stacked(exprs, env, shape):
    """The former grid evaluation of the residual check, the audit and F."""
    return np.column_stack(
        [np.broadcast_to(np.asarray(eval_expr(e, env), dtype=float), shape) for e in exprs])


class TestPropagate:
    def test_quarter_turn(self, rotor_A):
        out = transition_matrix(TransitionOperator(rotor_A), 0.0, np.pi / 2) @ [1.0, 0.0]
        assert np.allclose(out, [0.0, -1.0], atol=1e-8)

    def test_zero_length_is_identity(self, rotor_A):
        v = np.array([0.3, -1.2])
        assert np.array_equal(transition_matrix(TransitionOperator(rotor_A), 1.5, 1.5) @ v, v)

    def test_scalar_decay(self):
        A = CoefficientMatrix.from_strings([["-1"]])
        out = transition_matrix(TransitionOperator(A), 0.0, 1.0) @ [1.0]
        assert out[0] == pytest.approx(0.3678794412, abs=1e-9)

    def test_backward_inverts_forward(self, rotation_A):
        op = TransitionOperator(rotation_A)
        v = np.array([1.0, 2.0])
        there = transition_matrix(op, 0.0, 3.0) @ v
        back = transition_matrix(op, 3.0, 0.0) @ there
        assert np.linalg.norm(back - v) < 1e-7


class TestTransitionMatrix:
    def test_diagonal_saddle(self, saddle_A):
        M = transition_matrix(TransitionOperator(saddle_A), 0.0, 1.0)
        assert np.allclose(
            M, np.diag([np.exp(-1.0), np.exp(1.0)]), rtol=1e-8, atol=1e-10
        )

    def test_cocycle_identity(self, rotation_A):
        op = TransitionOperator(rotation_A)
        lhs = transition_matrix(op, 1.0, 2.0) @ transition_matrix(op, 0.0, 1.0)
        rhs = transition_matrix(op, 0.0, 2.0)
        assert np.linalg.norm(lhs - rhs, 2) < 1e-8

    def test_liouville_determinant(self, rotation_A):
        # det Phi(t, 0) = exp(int_0^t trace A); trace here is -2*cos(0.6 s) + ...
        from scipy.integrate import quad

        tr = lambda s: np.trace(rotation_A.value(s))
        t = 2.5
        M = transition_matrix(TransitionOperator(rotation_A), 0.0, t)
        expected = np.exp(quad(tr, 0.0, t, epsabs=1e-12)[0])
        assert abs(np.linalg.det(M) - expected) <= 1e-6 * abs(expected)

    def test_shifted_coefficient(self, rotation_A):
        sh = shifted_coefficient(rotation_A, 0.7)
        assert np.allclose(sh.value(1.0), rotation_A.value(1.7), atol=1e-14)
        M1 = transition_matrix(TransitionOperator(sh), 0.0, 1.0)
        M2 = transition_matrix(TransitionOperator(rotation_A), 0.7, 1.7)
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

    @pytest.mark.parametrize("name", BUNDLED)
    def test_values_on_an_array(self, name):
        """A, f and F through the one stacked evaluator give the former
        per-expression loops' bits, at 0-d, 1-D and 2-D times."""
        spec = load_problem(problem_path(name))
        A, n = spec.A, spec.dim
        entries = [e for row in A.entries for e in row]
        grid = np.linspace(-3.0, 4.0, 24)
        states = np.random.default_rng(0).uniform(-2.0, 2.0, (24, n))
        # on_grid does not read L; a large one passes the sampling of c1_cubic's cubic
        F = LipschitzSpec(spec.F_exprs, 1e6) if spec.F_exprs is not None else None
        for shape in ((), (24,), (4, 6)):
            times = grid[7:8].reshape(shape) if shape == () else grid.reshape(shape)
            V = A.values(times)
            assert V.shape == shape + (n, n)
            assert np.array_equal(V, _assigned(entries, {"t": times}, shape).reshape(V.shape))
            for idx in np.ndindex(shape):
                assert np.allclose(V[idx], A.value(times[idx]), rtol=1e-15, atol=1e-15)
            f = spec.forcing_fn()(times)
            f_ref = np.zeros(shape + (n,)) if spec.f_exprs is None else \
                _assigned(spec.f_exprs, {"t": times}, shape)
            assert np.array_equal(f, f_ref)
            env = _state_env(times, states[: max(times.size, 1)].reshape(shape + (n,)))
            if F is not None:
                assert np.array_equal(eval_stack(F.exprs, env, shape),
                                      _assigned(F.exprs, env, shape))
            if shape == ():
                continue
            flat = times.ravel()
            assert np.array_equal(V.reshape(-1, n * n),
                                  _column_stacked(entries, {"t": flat}, flat.shape))
            if F is not None and shape == (24,):
                assert np.array_equal(F.on_grid(times, states),
                                      _column_stacked(F.exprs, env, shape))


@settings(max_examples=20, deadline=None)
@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
def test_cocycle_through_intermediate_time(rotor_A, a, b, c):
    op = TransitionOperator(rotor_A)
    lhs = transition_matrix(op, b, c) @ transition_matrix(op, a, b)
    rhs = transition_matrix(op, a, c)
    assert np.linalg.norm(lhs - rhs, 2) < 1e-7


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


def drawn_modes(rng, n, pair, im):
    """(V, lam) of a real diagonalizable A = V diag(lam) V^-1 of size ``n``.

    V = W U with cond(W) <= 1e3 and U unitary, so cond(V) <= 1e3, and every
    |Re lam| is in [0.2, 3].  With ``pair`` (n >= 2) the first two
    eigenvalues are a +- i ``im``, whose eigenvectors W (1, +-i) / sqrt(2)
    span a rotating plane.
    """
    while True:
        W = rng.normal(size=(n, n))
        if np.linalg.cond(W) <= 1e3:
            break
    lam = (rng.uniform(0.2, 3.0, n) * rng.choice([-1.0, 1.0], n)).astype(complex)
    U = np.eye(n, dtype=complex)
    if pair:
        lam[1] = lam[0].real
        lam[:2] += np.array([1j, -1j]) * im
        U[:2, :2] = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
    return W @ U, lam


class TestConstantLegs:
    """A constant A has Magnus legs too; Omega = hA, so they are exact to rounding."""

    # the leg spans both directions; the times are its nodes and draws between them
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.0, 3.0),
           st.floats(-3.0, 3.0), st.floats(0.1, 2.0), st.booleans())
    def test_constant_leg_matches_the_eigendecomposition(self, n, seed, pair, im, t0, length,
                                                         backward):
        rng = np.random.default_rng(seed)
        V, lam = drawn_modes(rng, n, pair and n >= 2, im)
        A = ((V * lam) @ np.linalg.inv(V)).real
        coeff = CoefficientMatrix.from_strings([[repr(float(x)) for x in row] for row in A])
        op = TransitionOperator(coeff)
        assert op.eig is not None
        t1 = t0 - length if backward else t0 + length
        leg = op.solve_leg(t0, t1)
        assert isinstance(leg, MagnusLeg)

        def closed_form(s):
            E = np.exp(np.multiply.outer(s - t0, lam))
            return ((V * E[:, None, :]) @ np.linalg.inv(V)).real.reshape(len(s), -1).T

        off = t0 + (t1 - t0) * rng.uniform(size=23)
        assert not np.isin(off, leg.ts).any()
        assert leg(off).shape == (n * n, off.size) and leg(t1).shape == (n * n,)
        for s in (leg.ts, off):
            ref = closed_form(s)
            # the integrator runs at rel tol 1e-9, so its error scales with the entries
            assert np.max(np.abs(leg(s) - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("A", CONSTANT_MATRICES)
    @pytest.mark.parametrize("t0, t1", [(-0.4, 1.3), (2.0, 0.5)])
    def test_constant_leg_matches_rk45_leg(self, A, t0, t1):
        leg = TransitionOperator(A).solve_leg(t0, t1)
        rk45 = rk45_leg(A, t0, t1)
        assert isinstance(leg, MagnusLeg)
        assert isinstance(rk45, OdeSolution)
        s = np.linspace(t0, t1, 23)
        assert leg(s).shape == rk45(s).shape == (A.n**2, s.size)
        assert leg(t1).shape == rk45(t1).shape == (A.n**2,)
        # both integrators run at rel tol 1e-9, so their error scales with the entries
        scale = max(1.0, np.max(np.abs(rk45(s))))
        assert np.max(np.abs(leg(s) - rk45(s))) <= 1e-8 * scale

    @pytest.mark.parametrize("A", CONSTANT_MATRICES)
    @pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, 0.0), (-2.5, 0.7), (3.0, -1.0)])
    def test_transition_matrix_is_the_matrix_exponential(self, A, t0, t1):
        M = transition_matrix(TransitionOperator(A), t0, t1)
        ref = expm(A.value(0.0) * (t1 - t0))
        assert np.max(np.abs(M - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_jordan_block_is_integrated(self):
        A = CoefficientMatrix.from_strings([["-1", "1"], ["0", "-1"]])
        op = TransitionOperator(A)
        assert op.eig is None
        assert isinstance(op.solve_leg(0.0, 2.0), MagnusLeg)
        for t in (0.5, 1.0, 2.0):
            ref = np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
            assert np.max(np.abs(transition_matrix(op, 0.0, t) - ref)) <= 1e-8

    def test_time_dependent_leg_is_integrated(self, rotation_A):
        assert isinstance(TransitionOperator(rotation_A).solve_leg(0.0, 1.0), MagnusLeg)

    def test_leg_is_cached_hashable_and_weakly_referenced(self, saddle_A):
        # the benchmark tracer tells integrations from cache hits with a WeakSet
        op = TransitionOperator(saddle_A)
        leg = op.solve_leg(0.0, 1.0)
        assert isinstance(leg, MagnusLeg)
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

    # one drawn 1-norm inside the reach of each Pade degree 3, 5, 7, 9 and
    # past 9's, where degree 13 scales and squares; then any further norms
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1),
           st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.lists(st.floats(-4.0, 1.8), max_size=12))
    def test_stack_gives_each_matrix_its_own_bits(self, n, seed, where, extra):
        bands = [(1e-4, 0.0149), (0.0151, 0.25), (0.26, 0.95), (0.96, 2.09), (2.1, 60.0)]
        norms = [lo * (hi / lo) ** w for (lo, hi), w in zip(bands, where)] + [10**e for e in extra]
        rng = np.random.default_rng(seed)
        kinds = rng.permutation(np.resize([0, 1, 2], len(norms)))
        X = np.empty((len(norms), n, n))
        for x, norm, kind in zip(X, norms, kinds):
            if kind == 0:
                x[:] = rng.normal(size=(n, n))
            elif kind == 1:  # a rotation generator in the first plane
                x[:] = 0.0
                x[0, 1], x[1, 0] = 1.0, -1.0
            else:  # strictly upper triangular, so nilpotent
                x[:] = np.triu(rng.normal(size=(n, n)), 1)
            x *= norm / np.abs(x).sum(axis=0).max()
        E = propagator.expm(X)
        for x, e, kind in zip(X, E, kinds):
            assert np.array_equal(e, propagator.expm(x))
            if kind == 1:
                theta = x[0, 1]
                ref = np.eye(n)
                ref[:2, :2] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
                assert np.max(np.abs(e - ref)) <= 2e-15 * max(1.0, theta)
            elif kind == 2:
                ref = np.eye(n) + x + x @ x / 2.0
                assert np.max(np.abs(e - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_a_leg_has_the_same_bits_in_any_batch(self):
        # leg [60, 61] has the larger 1-norms, which once set the degree of
        # the whole stack
        A = CoefficientMatrix.from_strings([["-0.1*t", "1"], ["0", "0.5"]])
        (alone,) = propagator._magnus_legs(A, [(0.0, 1.0)])
        shared, _ = propagator._magnus_legs(A, [(0.0, 1.0), (60.0, 61.0)])
        assert np.array_equal(alone.ts, shared.ts) and np.array_equal(alone.Y, shared.Y)
        s = np.linspace(0.0, 1.0, 7) + 0.01
        assert np.array_equal(alone(s), shared(s))


class TestMagnusLegs:
    @pytest.mark.parametrize("name", ["rotation", "trich_tanh", "arctan"])
    def test_batched_legs_match_the_rk45_reference(self, name, monkeypatch):
        A = load_problem(problem_path(name)).A
        op = TransitionOperator(A)
        spans = [(float(k), k + 1.0) for k in range(-6, 6)] + [(2.5, 3.0), (4.0, 1.5)]
        legs = op.solve_legs(spans)
        assert all(isinstance(leg, MagnusLeg) for leg in legs)
        assert all(op.solve_leg(*span) is leg for span, leg in zip(spans, legs))
        # legs come with their nodes only, and one batched evaluation fits them all
        assert all(leg.C is None for leg in legs)
        op.leg_values(spans, np.arange(len(spans)), [t0 + 0.3 * (t1 - t0) for t0, t1 in spans])
        assert all(2 * propagator.FIRST_STEPS <= len(leg.C) - 1 <= propagator.MAX_STEPS
                   for leg in legs)
        # a dense call on a fitted leg takes no Magnus step
        steps = []
        monkeypatch.setattr(propagator, "_magnus_steps", lambda *args: steps.append(args))
        rng = np.random.default_rng(0)
        for (t0, t1), leg in zip(spans, legs):
            ref = rk45_leg(A, t0, t1)
            s = np.linspace(t0, t1, 17)
            scale = np.max(np.abs(ref(s)))
            assert np.max(np.abs(leg(s) - ref(s))) <= 1e-8 * scale
            assert np.max(np.abs(leg(t1) - ref(t1))) <= 1e-8 * scale
            # between the nodes a leg is its Chebyshev interpolant; the gap to
            # RK45 is RK45's own, up to 2.0e-9 of the scale (arctan), as at the nodes
            off = t0 + (t1 - t0) * rng.uniform(size=32)
            assert not np.isin(off, leg.ts).any()
            assert np.max(np.abs(leg(off) - ref(off))) <= 1e-8 * scale
            # nodes are returned as integrated, and a leg starts at I
            assert np.array_equal(leg(leg.ts), leg.Y.reshape(len(leg.ts), -1).T)
            assert np.array_equal(leg(leg.ts[3]), leg.Y[3].reshape(-1))
            assert np.array_equal(leg(t0), np.eye(A.n).reshape(-1))
        assert steps == []

    def test_legs_are_fitted_on_first_use_off_their_nodes(self, monkeypatch, rotation_A):
        fits = []
        chebyshev_fits = propagator._chebyshev_fits
        monkeypatch.setattr(propagator, "_chebyshev_fits",
                            lambda A, t0, t1, nodes: fits.append(list(zip(t0, t1)))
                            or chebyshev_fits(A, t0, t1, nodes))
        op = TransitionOperator(rotation_A)
        spans = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 2.5)]
        legs = op.solve_legs(spans)
        # node reads fit nothing
        assert np.array_equal(transition_matrix(op, 0.0, 1.0), legs[0].Y[-1])
        assert np.array_equal(legs[1](legs[1].ts), legs[1].Y.reshape(len(legs[1].ts), -1).T)
        assert fits == [] and all(leg.C is None for leg in legs)
        # one batch fits the legs asked off their nodes, and only those
        which = np.array([0, 0, 2, 3, 1])
        s = np.array([0.3, 1.0, 2.7, 2.9, 1.0])
        first = op.leg_values(spans, which, s)
        assert fits == [[(0.0, 1.0), (2.0, 3.0), (3.0, 2.5)]]
        assert legs[1].C is None and all(legs[i].C is not None for i in (0, 2, 3))
        assert np.array_equal(op.leg_values(spans, which, s), first)
        assert len(fits) == 1
        for k, (i, t) in enumerate(zip(which, s)):
            one = legs[i](t)
            assert np.max(np.abs(first[k].reshape(-1) - one)) <= 1e-14 * np.max(np.abs(one))

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
        assert 2 * propagator.FIRST_STEPS < len(leg.C) - 1 <= propagator.MAX_STEPS

    def test_unresolved_interpolant_raises(self, monkeypatch):
        # the cos(40 t) leg resolves at 64 steps, and its interpolant at degree 128;
        # the fit, and so its refusal, waits for the first time off the nodes
        monkeypatch.setattr(propagator, "MAX_STEPS", 64)
        op = TransitionOperator(CoefficientMatrix.from_strings([["cos(40*t)"]]))
        leg = op.solve_leg(0.0, 1.0)
        assert np.array_equal(transition_matrix(op, 0.0, 1.0), leg.Y[-1]) and leg.C is None
        with pytest.raises(PropagationError, match=r"Magnus leg \[0, 1\] unresolved by its "
                           r"degree-64 Chebyshev interpolant: node error .* exceeds ATOL "
                           r"\+ RTOL \|Y\|"):
            leg(0.5 + 1e-3)

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


# up to omega = 12 the entries of Phi cross zero many times per unit leg
# while |Phi| is e^5, which the entrywise Richardson test must still resolve
@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 12.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.integers(-20, 20))
def test_rotating_saddle_legs_match_the_closed_form(omega, a, b, k):
    op = TransitionOperator(_rotating_saddle(omega, a, b))
    spans = [(float(k), k + 1.0), (k + 1.0, k + 2.0), (k + 2.0, k + 0.5)]
    rng = np.random.default_rng(k + 20)
    for (t0, t1), leg in zip(spans, op.solve_legs(spans)):
        nodes = np.linspace(t0, t1, 9)
        off = t0 + (t1 - t0) * rng.uniform(size=16)
        assert not np.isin(off, leg.ts).any()
        for s in (nodes, off):
            ref = np.stack([_rotating_saddle_phi(omega, a, b, x, t0).reshape(-1) for x in s],
                           axis=1)
            assert np.max(np.abs(leg(s) - ref)) <= 1e-8 * np.max(np.abs(ref))


class TestInverseSamples:
    """A fitted leg keeps inv(C) exactly when its interpolant meets the node test."""

    # the rotating saddles of the closed-form test, whose inverse legs grow
    # like e^5 over a unit leg where the legs decay, and cross zero as often
    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 12.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.integers(-20, 20))
    def test_inverse_interpolant_matches_the_inverse_of_the_interpolant(self, omega, a, b, k):
        """Off the nodes, within ATOL + RTOL max |D~^-1| of inv(D~), D~ the leg's interpolant.

        The nodes Y pass the Richardson test ATOL + RTOL |Y|, and both
        interpolants pass the node test, so each of Z~ (the interpolant of
        inv(C)) and inv(D~) is Phi^-1 to the leg's own accuracy, RTOL at the
        inverse leg's scale, between the nodes as at them.
        """
        op = TransitionOperator(_rotating_saddle(omega, a, b))
        spans = [(float(k), k + 1.0), (k + 1.0, k + 2.0), (k + 2.0, k + 0.5)]
        rng = np.random.default_rng(k + 20)
        for (t0, t1), leg in zip(spans, op.solve_legs(spans)):
            s = t0 + (t1 - t0) * rng.uniform(size=16)
            D_inv = np.linalg.inv(leg(s).T.reshape(-1, 2, 2))
            d, M = len(leg.C) - 1, len(leg.ts) - 1
            Z = leg.C_inv if leg.C_inv is not None else np.linalg.inv(leg.C)
            at_nodes = (propagator._cardinals(np.arange(M + 1) / M, d) @ Z.reshape(d + 1, 4))
            Y_inv = np.linalg.inv(leg.Y).reshape(M + 1, 4)
            meets = np.all(np.abs(at_nodes - Y_inv)
                           <= propagator.ATOL + propagator.RTOL * np.abs(Y_inv))
            assert meets == (leg.C_inv is not None)
            if meets:
                x = (s - t0) / (t1 - t0)
                Z_s = (propagator._cardinals(x, d) @ Z.reshape(d + 1, 4)).reshape(-1, 2, 2)
                tol = propagator.ATOL + propagator.RTOL * np.max(np.abs(D_inv))
                assert np.max(np.abs(Z_s - D_inv)) <= tol


    def test_singular_node_keeps_no_inverse_samples(self):
        # e^{-800 t} underflows to 0 at the leg's end, so its last node does not invert
        op = TransitionOperator(CoefficientMatrix.from_strings([["-800 + 0*t"]]))
        leg = op.solve_leg(0.0, 1.0)
        assert leg.Y[-1, 0, 0] == 0.0
        assert leg(0.01)[0] == pytest.approx(np.exp(-8.0), rel=1e-9)
        assert leg.C is not None and leg.C_inv is None


def test_magnus_step_is_sixth_order():
    """On the rotating saddle, uniform legs of M = 8, 16, 32 steps err like M^-6.

    The legs' Richardson estimate |Y_16 - Y_8| / 63 then tracks the true
    error of Y_16; a fourth-order step would make it a fourfold underestimate.
    """
    omega, a, b = 3.0, 2.0, 1.0
    A = _rotating_saddle(omega, a, b)
    ref = _rotating_saddle_phi(omega, a, b, 1.0, 0.0)
    Y = {M: propagator._magnus_nodes(A, np.array([0.0]), np.array([1.0]), M)[0, -1]
         for M in (8, 16, 32)}
    err = {M: np.max(np.abs(Y[M] - ref)) for M in Y}
    assert err[8] / err[16] >= 50.0
    assert err[16] / err[32] >= 50.0
    assert 0.5 <= np.max(np.abs(Y[16] - Y[8])) / 63.0 / err[16] <= 2.0
