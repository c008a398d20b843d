"""Bounded linear/semilinear solvers, Picard iteration and eps continuation."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trichotomy.propagator
import trichotomy.solvers
from conftest import problem_path, run_cli, stable_projector, unstable_projector
from trichotomy.cli import load_problem
from trichotomy.grid import GridFunction
from trichotomy.hyperbolicity import (
    GreenKernel,
    NonHyperbolicError,
    WindowTooSmall,
    _build_families,
    build_trichotomy,
)
from trichotomy.propagator import RTOL, CoefficientMatrix, TransitionOperator
from trichotomy.solvers import (
    ContractionError,
    LipschitzSpec,
    SolverError,
    _contraction_ratio,
    _deviation_bound,
    epsilon_continuation,
    ode_residual,
    picard_solve,
    solve_linear_bounded,
)

SIN_ROOT = 0.5524799869065703  # x = 0.5 + 0.1*sin(x)


def cos_pair(a, b, step=0.02):
    return GridFunction.from_callable(
        lambda t: np.stack([np.cos(t), np.cos(t)], axis=-1), a, b, step
    )


def saddle_solution(t):
    """Whole-line bounded solution for diag(-1, 1) forced by (cos, cos)."""
    return np.stack(
        [(np.cos(t) + np.sin(t)) / 2.0, (np.sin(t) - np.cos(t)) / 2.0], axis=-1
    )


def constant_forcing(W):
    return GridFunction.from_callable(lambda t: 0.5 + 0.0 * t, -W, W, 0.02)


class TestLinearSolve:
    def test_matches_closed_form(self, saddle_kernel, saddle_cos_forcing):
        phi = solve_linear_bounded(saddle_kernel, saddle_cos_forcing).restrict(-10.0, 10.0)
        assert phi.a == pytest.approx(-10.0) and phi.b == pytest.approx(10.0)
        err = np.max(np.abs(phi.values - saddle_solution(phi.times)))
        assert err <= 1e-6
        assert np.allclose(phi(0.0), [0.5, -0.5], atol=1e-6)

    def test_residual_is_small(self, saddle_kernel, saddle_cos_forcing):
        phi = solve_linear_bounded(saddle_kernel, saddle_cos_forcing).restrict(-10.0, 10.0)
        fr = saddle_cos_forcing.restrict(phi.a, phi.b)
        assert float(ode_residual(saddle_kernel.A, phi, fr).max()) <= 1e-5

    def test_zero_forcing_gives_zero(self, saddle_kernel):
        f0 = GridFunction(-30.0, 30.0, np.zeros((601, 2)))
        phi = solve_linear_bounded(saddle_kernel, f0)
        assert phi.sup_norm == 0.0

    def test_green_integral_is_linear(self, scalar_kernel):
        f1 = GridFunction.from_callable(np.cos, -35.0, 35.0, 0.01)
        f2 = GridFunction.from_callable(lambda t: np.sin(0.7 * t), -35.0, 35.0, 0.01)
        combo = GridFunction(-35.0, 35.0, f1.values + 2.0 * f2.values)
        # tight tol so the tail truncation (which adapts to |f| and would
        # otherwise differ between the three solves) stays below the slack
        p1, p2, pc = (solve_linear_bounded(scalar_kernel, f, tol=1e-8).restrict(-5.0, 5.0)
                      for f in (f1, f2, combo))
        diff = np.max(np.abs(pc.values - (p1.values + 2.0 * p2.values)))
        assert diff <= 1e-7 * max(1.0, pc.sup_norm)

    def test_trichotomy_center_pin(self, trich_kernel):
        f = GridFunction.from_callable(
            lambda t: np.stack([np.cos(t)] * 3, axis=-1), -14.0, 14.0, 0.02
        )
        phi = solve_linear_bounded(trich_kernel, f, tol=1e-4)
        assert phi.a <= 0.0 <= phi.b
        pin = np.linalg.norm(trich_kernel.cert.R @ phi(0.0))
        assert pin <= 1e-4

    def test_window_too_small_for_tail(self, scalar_kernel):
        # forcing 0.5 on [-3, 3] raises; the hinted half-width works and 0.95x of it not
        with pytest.raises(WindowTooSmall) as exc:
            solve_linear_bounded(scalar_kernel, constant_forcing(3.0))
        need = exc.value.required
        assert str(exc.value).count("increase window") == 1
        phi = solve_linear_bounded(scalar_kernel, constant_forcing(need))
        assert np.max(np.abs(phi.values - 0.5)) <= 1e-6
        with pytest.raises(WindowTooSmall):
            solve_linear_bounded(scalar_kernel, constant_forcing(0.95 * need))

    def test_certificate_window_covers_the_forcing(self, scalar_kernel):
        # forcing on [-40, 40] past the certificate's [-36, 36]: the hint is
        # the reach of the sweeps, within a grid step of 40, and a
        # certificate of that half-width solves
        with pytest.raises(WindowTooSmall) as exc:
            solve_linear_bounded(scalar_kernel, constant_forcing(40.0))
        assert str(exc.value).startswith("certificate window too small (increase window T to >= ")
        assert 40.0 - 0.02 < exc.value.required <= 40.0
        cert = build_trichotomy(scalar_kernel.A, exc.value.required,
                                P=[[1.0]], Q=[[0.0]], N=1.0, nu=1.0)
        phi = solve_linear_bounded(GreenKernel(cert), constant_forcing(40.0))
        assert np.max(np.abs(phi.values - 0.5)) <= 1e-6

    def test_operator_norm_bound(self, saddle_kernel, saddle_cos_forcing):
        cert = saddle_kernel.cert
        phi = solve_linear_bounded(saddle_kernel, saddle_cos_forcing).restrict(-10.0, 10.0)
        bound = (2.0 * cert.N / cert.nu) * saddle_cos_forcing.sup_norm
        assert phi.sup_norm <= bound * (1.0 + 1e-6)


class TestLipschitzSpec:
    def test_valid_declaration(self):
        spec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        assert spec.report["max_sampled_ratio"] <= 0.1 * (1.0 + 1e-3)
        assert spec.report["max_sampled_ratio"] >= 0.05
        assert spec.report["max_zero_norm"] <= 1e-12

    def test_nonvanishing_at_zero_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            LipschitzSpec(["0.1*sin(x1) + 0.01"], L=0.2)

    def test_underdeclared_constant_rejected(self):
        with pytest.raises(ValueError, match="exceeds declared"):
            LipschitzSpec(["x1"], L=0.5)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="x3"):
            LipschitzSpec(["x3"], L=0.1)

    def test_nonpositive_constant_rejected(self):
        with pytest.raises(ValueError):
            LipschitzSpec(["0"], L=0.0)

    def test_scaling(self):
        spec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        sc = spec.scaled(-0.5)
        assert sc.L == pytest.approx(0.05)
        assert sc.factor == -0.5
        assert sc.scaled(2.0).factor == -1.0

    def test_scaled_evaluation_applies_factor(self):
        spec = LipschitzSpec(["0.1*sin(x1)", "0.05*tanh(x2) + 0.02*x1"], L=0.2)
        sc = spec.scaled(-0.5)
        x = np.array([0.7, -1.3])
        assert np.array_equal(sc(1.5, x), -0.5 * spec(1.5, x))
        times = np.linspace(-1.0, 1.0, 7)
        vals = np.stack([np.cos(times), np.sin(times)], axis=-1)
        assert np.array_equal(sc.on_grid(times, vals), -0.5 * spec.on_grid(times, vals))
        assert np.array_equal(sc.scaled(-2.0)(1.5, x), spec(1.5, x))

    def test_scaling_does_not_revalidate(self, monkeypatch):
        spec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)

        def fail(*args):
            raise AssertionError("scaled() re-ran the validation")

        monkeypatch.setattr(LipschitzSpec, "_validate", fail)
        big = spec.scaled(10.0)
        assert big.L == pytest.approx(1.0)
        assert big.report == spec.report

    def test_grid_evaluation_matches_pointwise(self):
        spec = LipschitzSpec(["0.1*sin(x1)", "0.05*tanh(x2) + 0.02*x1"], L=0.2)
        times = np.linspace(-1.0, 1.0, 7)
        vals = np.stack([np.cos(times), np.sin(times)], axis=-1)
        grid = spec.on_grid(times, vals)
        for k, t in enumerate(times):
            assert np.array_equal(grid[k], spec(t, vals[k]))


@pytest.fixture(scope="module")
def sin_solution(scalar_kernel, scalar_forcing):
    Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
    return picard_solve(scalar_kernel, scalar_forcing, Fspec)


class TestPicard:
    def test_contraction_data(self, sin_solution):
        phi, report = sin_solution
        assert report.alpha == pytest.approx(0.2)
        assert report.r_bound == pytest.approx(0.25)
        assert all(r <= 0.2 + 0.05 for r in report.ratios)

    def test_fixed_point_value(self, sin_solution):
        phi, _ = sin_solution
        assert np.max(np.abs(phi.values - SIN_ROOT)) <= 1e-5

    def test_deviation_within_bound(self, sin_solution):
        _, report = sin_solution
        assert report.measured_deviation <= report.r_bound * (1.0 + 1e-3)
        assert report.measured_deviation == pytest.approx(SIN_ROOT - 0.5, abs=1e-4)

    def test_residual_guard(self, sin_solution):
        _, report = sin_solution
        assert report.ode_residual <= 1e-5

    def test_independent_of_the_forcing_window(self, scalar_kernel, sin_solution):
        # a narrower forcing window moves the clamped edges, and with them
        # every iterate, but not the fixed point on the common output window
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        narrow = GridFunction.from_callable(lambda t: np.full(np.shape(t) + (1,), 0.5),
                                            -33.0, 33.0, 0.02)
        phi_b, _ = picard_solve(scalar_kernel, narrow, Fspec)
        phi_a, _ = sin_solution
        assert phi_a.a < phi_b.a < 0.0 < phi_b.b < phi_a.b
        assert np.max(np.abs(phi_a.restrict(phi_b.a, phi_b.b).values - phi_b.values)) <= 1e-6

    def test_contraction_violation_refused(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.6*sin(x1)"], L=0.6)
        with pytest.raises(ContractionError, match="nu/\\(2N\\)"):
            picard_solve(scalar_kernel, scalar_forcing, Fspec)

    def test_zero_nonlinearity_reproduces_linear(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0*x1"], L=0.1)
        phi, report = picard_solve(scalar_kernel, scalar_forcing, Fspec)
        assert report.iterations == 1
        assert report.measured_deviation == 0.0
        assert np.max(np.abs(phi.values - 0.5)) <= 1e-6

    def test_overflowing_nonlinearity_stops_the_iteration(self, scalar_kernel):
        # 0.01 (e^x - 1) passes the sampled L = 0.13 on the cube |x| <= 2,
        # but around the linear solution 5 the iterates grow until F overflows
        Fspec = LipschitzSpec(["0.01*(exp(x1) - 1)"], L=0.13)
        f = GridFunction.from_callable(lambda t: np.full(np.shape(t) + (1,), 5.0), -35.0, 35.0, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError) as exc:
                picard_solve(scalar_kernel, f, Fspec)
        msg = str(exc.value)
        assert msg.startswith("Picard iteration stopped at iterate 4: F fails on psi_3 "
                              "(non-finite result from exp); ")
        assert "last finite step sup|psi_3 - psi_2| = " in msg
        assert msg.endswith("alpha = 0.26")


class TestContinuation:
    def test_deviation_ladder(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        eps = [0.4, 0.2, 0.1, 0.05]
        out = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, eps)
        assert [e for e, _, _ in out] == eps
        devs = [report.measured_deviation for _, _, report in out]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        N, nu = scalar_kernel.cert.N, scalar_kernel.cert.nu
        fn = scalar_forcing.sup_norm
        phi0 = solve_linear_bounded(scalar_kernel, scalar_forcing, clamp_edges=True)
        for e, phi, report in out:
            bound = 4 * e * N**2 * 0.1 * fn / (nu * (nu - 2 * N * 0.1 * e))
            assert report.measured_deviation <= bound * (1.0 + 1e-3)
            # the report's bound is this one, computed once, at |eps| L
            assert report.r_bound == _deviation_bound(N, nu, e * 0.1, fn)
            assert report.r_bound == pytest.approx(bound, rel=1e-12)
            # and its deviation is measured against the linear solution
            phi0_r = phi0.restrict(phi.a, phi.b)
            assert report.measured_deviation == float(np.max(np.abs(phi.values - phi0_r.values)))

    def test_zero_scaling_is_linear_solution(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        out = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, [0.0])
        e, phi, report = out[0]
        assert e == 0.0 and report.measured_deviation == 0.0
        assert report.r_bound == 0.0 and report.alpha == 0.0 and report.iterations == 1
        assert np.max(np.abs(phi.values - 0.5)) <= 1e-6

    def test_boundary_scaling_refused(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        with pytest.raises(ContractionError):
            epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, [5.0])

    def test_ladder_refused_before_any_solve(
        self, scalar_kernel, scalar_forcing, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(
            trichotomy.solvers, "solve_linear_bounded",
            lambda *args, **kwargs: calls.append(args),
        )
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        refusal = r"nu/\(2N\).*eps = 5.*\|eps\|\*L = 0\.5.*alpha"
        with pytest.raises(ContractionError, match=refusal):
            epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, [0.1, 5.0])
        assert calls == []


def test_contraction_ratio_and_refusal_message():
    assert _contraction_ratio(2.0, 1.0, 0.1, "declared L") == pytest.approx(0.4)
    with pytest.raises(ContractionError) as exc:
        _contraction_ratio(1.0, 1.0, 0.6, "declared L")
    assert str(exc.value) == (
        "contraction requires L < nu/(2N) = 0.5; "
        "declared L = 0.6 gives alpha = 1.2 >= 1"
    )


def fresh(K):
    """A kernel on K's certificate with no quadrature plans yet."""
    return GreenKernel(K.cert)


def swept(K):
    """A kernel on K's certificate without its modes, on sweeps of its own: the plan path."""
    cert = K.cert
    lo, hi = cert.interval
    families = tuple(_build_families(cert.op, [(cert.P, 0.0, hi), (np.eye(K.n) - cert.Q, lo, 0.0)],
                                     cert.nu))
    return GreenKernel(dataclasses.replace(cert, modes=None, families=families))


def count_dense_calls(monkeypatch):
    """A list that collects the point count of every leg evaluation.

    Every dense value of a leg, batched or one leg's call, comes from
    ``propagator._leg_values``.
    """
    calls = []
    orig = trichotomy.propagator._leg_values

    def counted(legs, which, s):
        calls.append(np.size(s))
        return orig(legs, which, s)

    monkeypatch.setattr(trichotomy.propagator, "_leg_values", counted)
    return calls


# The reference that the stacked plan's sweep must match: one plan per
# clipped leg, each evaluating its leg once, and a sweep that runs leg by leg
# and writes each leg's rows in the order it visits the legs.


def _leg_ranges(anchors, lo, hi):
    """Consecutive-anchor legs intersecting [lo, hi], clipped."""
    out = []
    for a0, a1 in zip(anchors[:-1], anchors[1:]):
        s0, s1 = max(a0, lo), min(a1, hi)
        if s1 > s0 + 1e-12:
            out.append((float(a0), float(a1), float(s0), float(s1)))
    return out


def _panel_points(s0, s1, grid_a, h):
    """Panel boundaries: grid points inside (s0, s1) plus the seg ends."""
    i0 = int(math.ceil((s0 - grid_a) / h - 1e-9))
    if grid_a + i0 * h <= s0 + 1e-12:
        i0 += 1
    i1 = int(math.floor((s1 - grid_a) / h + 1e-9))
    if grid_a + i1 * h >= s1 - 1e-12:
        i1 -= 1
    inner = grid_a + h * np.arange(i0, i1 + 1)
    return np.concatenate([[s0], inner, [s1]])


@dataclasses.dataclass
class _LegPlan:
    W: np.ndarray
    cell: np.ndarray
    D_pts: np.ndarray
    proj: dict
    rows: np.ndarray
    idx: np.ndarray


def inverse_leg(leg, s):
    """Phi(s, t0)^-1 on a leg at the times ``s`` as a plan reads it: (len(s), n, n).

    The interpolant of a fitted leg's inverse samples ``C_inv``, and the
    inverse of the leg's value when it has none.
    """
    s = np.asarray(s, dtype=float)
    n = leg.Y.shape[-1]
    if leg.C_inv is None:
        return np.linalg.inv(leg(s).T.reshape(-1, n, n))
    d = len(leg.C_inv) - 1
    x = (s - leg.ts[0]) / (leg.ts[-1] - leg.ts[0])
    return (trichotomy.propagator._cardinals(x, d) @ leg.C_inv.reshape(d + 1, -1)).reshape(-1, n, n)


def _leg_plan(kernel, f, a0, a1, s0, s1):
    """The plan of leg (a0, a1) clipped to (s0, s1) on f's grid, its D^-1 at the
    nodes from :func:`inverse_leg`."""
    n = kernel.n
    sol = kernel.op.solve_leg(a0, a1)
    pts = _panel_points(s0, s1, f.a, f.h)
    widths = np.diff(pts)
    gl_nodes, gl_weights = trichotomy.solvers._plan_rule(kernel, f.h)
    nodes = pts[:-1, None] + np.outer(widths, (gl_nodes + 1.0) / 2.0)
    wts = np.outer(widths, gl_weights / 2.0)
    D = sol(np.concatenate([nodes.ravel(), pts])).T.reshape(-1, n, n)
    D_inv = inverse_leg(sol, nodes.ravel()).reshape(*nodes.shape, n, n)
    cell = np.floor((pts[:-1] + 0.5 * widths - f.a) / f.h).astype(int)
    u = nodes - (f.a + cell[:, None] * f.h)
    moments = wts[..., None] * u[..., None] ** np.arange(4)
    k = np.rint((pts - f.a) / f.h)
    rows = np.flatnonzero(np.abs(f.a + k * f.h - pts) < 1e-9)
    U0 = unstable_projector(kernel, a0)
    return _LegPlan(
        W=np.einsum("kjp,kjab->kpab", moments, D_inv),
        cell=cell,
        D_pts=D[nodes.size :],
        proj={
            "up": (stable_projector(kernel, a0), stable_projector(kernel, a1)),
            "down": (U0, U0),
        },
        rows=rows,
        idx=k[rows].astype(int),
    )


def reference_sweep(kernel, f, lo, hi, direction):
    """The Green sweep on [lo, hi], leg by leg, each leg on its own plan."""
    legs = _leg_ranges(kernel.anchors, lo, hi)
    C = f.coeffs
    out = np.zeros_like(f.values)
    Y = np.zeros(kernel.n)
    for a0, a1, s0, s1 in legs if direction == "up" else legs[::-1]:
        plan = _leg_plan(kernel, f, a0, a1, s0, s1)
        P_panel, P_cross = plan.proj[direction]
        c = C.take(plan.cell, axis=1)
        panel = np.einsum("kpab,pkb->ka", plan.W, c) @ P_panel.T
        D_pts = plan.D_pts
        if direction == "up":
            Z = np.linalg.solve(D_pts[0], Y)
            acc = np.vstack([Z, Z + np.cumsum(panel, axis=0)])
            vals = np.einsum("kij,kj->ki", D_pts, acc)
            Y = P_cross @ vals[-1] if s1 >= a1 - 1e-12 else vals[-1]
        else:
            Z = np.linalg.solve(D_pts[-1], Y)
            back = np.cumsum(panel[::-1], axis=0)[::-1]
            acc = np.vstack([Z + back, Z])
            vals = np.einsum("kij,kj->ki", D_pts, acc)
            Y = P_cross @ vals[0] if s0 <= a0 + 1e-12 else vals[0]
        out[plan.idx] = vals[plan.rows]
    return out


def reference_solve(K, f, monkeypatch, **kwargs):
    """``solve_linear_bounded`` with each sweep run by :func:`reference_sweep` on its range."""

    def sweep(kernel, f, window, end, direction):
        lo, hi = window
        lo, hi = (lo, end) if direction == "up" else (end, hi)
        return reference_sweep(kernel, f, lo, hi, direction)

    with monkeypatch.context() as m:
        m.setattr(trichotomy.solvers, "_sweep", sweep)
        return solve_linear_bounded(K, f, **kwargs)


def assert_same_sweep(out, ref, terms=0.0):
    """Bit for bit, or within 1e-14 of the larger of the sup and ``terms``, the summed terms' size."""
    assert out.shape == ref.shape and np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(out - ref)) <= 1e-14 * max(np.max(np.abs(ref)), terms)


@pytest.fixture(scope="module")
def stacked_kernels(rotation_kernel, trich_kernel):
    """Plan-path kernels: the bundled rotation and tanh trichotomy, and the
    non-normal constant saddle [[-1, 3], [0, 1]], swept on its own families."""
    saddle = GreenKernel(build_trichotomy(CoefficientMatrix.from_strings([["-1", "3"], ["0", "1"]]),
                                          14.0))
    kernels = {"rotation": rotation_kernel, "trich_tanh": trich_kernel, "constant": swept(saddle)}
    assert all(K.modes is None for K in kernels.values())
    assert kernels["constant"].op.eig is not None
    return kernels


def sweep_forcing(n, a):
    """Smooth forcing with one frequency per component on [a, a + 26] at step 0.02."""
    w = 0.7 + 1.3 * np.arange(n)
    return GridFunction.from_callable(lambda t: np.cos(np.multiply.outer(t, w) + 0.3),
                                      a, a + 26.0, 0.02)


KERNELS = ["rotation", "trich_tanh", "constant"]


class TestStackedSweep:
    """The stacked plan's sweep against the per-leg reference it replaced."""

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("window", [(-12.3456, 11.789), (-12.0013 + 0.02 * 3, 11.9987),
                                        (-12.0, 12.0), (-13.0013, 12.9987)],
                             ids=["off-grid", "on-grid", "on-anchors", "whole-grid"])
    @pytest.mark.parametrize("name", KERNELS)
    def test_whole_window(self, stacked_kernels, name, window, direction):
        K = fresh(stacked_kernels[name])
        f = sweep_forcing(K.n, -13.0013)
        lo, hi = window
        out = trichotomy.solvers._sweep(K, f, window, hi if direction == "up" else lo, direction)
        assert_same_sweep(out, reference_sweep(K, f, lo, hi, direction))

    @pytest.mark.parametrize("name", KERNELS)
    def test_both_sweeps_share_one_plan_and_stop_at_grid_points(self, stacked_kernels, name):
        K = fresh(stacked_kernels[name])
        f = sweep_forcing(K.n, -13.0013)
        window = (-12.3456, 11.789)
        for k_lo, k_hi in [(100, 1100), (33, 1239), (651, 652)]:
            end_lo, end_hi = f.a + k_lo * f.h, f.a + k_hi * f.h
            up = trichotomy.solvers._sweep(K, f, window, end_hi, "up")
            down = trichotomy.solvers._sweep(K, f, window, end_lo, "down")
            assert_same_sweep(up, reference_sweep(K, f, window[0], end_hi, "up"))
            assert_same_sweep(down, reference_sweep(K, f, end_lo, window[1], "down"))
        assert list(K.plans) == [(*window, f.a, f.h)]

    @pytest.mark.parametrize("direction", ["up", "down"])
    @pytest.mark.parametrize("name", KERNELS)
    def test_value_at_every_shared_interior_anchor(self, stacked_kernels, name, direction):
        # on a grid through the integers every interior anchor is a grid point
        # that two legs share: going up it keeps the upper leg's projected
        # carry, going down the lower leg's
        K = fresh(stacked_kernels[name])
        f = sweep_forcing(K.n, -13.0)
        lo, hi = -12.5, 12.5
        rows = np.rint((K.anchors[(K.anchors > lo) & (K.anchors < hi)] - f.a) / f.h).astype(int)
        assert rows.size == 25 and np.allclose(f.times[rows], np.arange(-12, 13), atol=1e-12)
        end = hi if direction == "up" else lo
        out = trichotomy.solvers._sweep(K, f, (lo, hi), end, direction)
        ref = reference_sweep(K, f, lo, hi, direction)
        assert_same_sweep(out[rows], ref[rows])
        assert_same_sweep(out, ref)

    @pytest.mark.parametrize("clamp_edges", [False, True], ids=["tail-cut", "picard"])
    @pytest.mark.parametrize("name", KERNELS)
    def test_solve_matches_reference(self, stacked_kernels, name, clamp_edges, monkeypatch):
        K = stacked_kernels[name]
        f = sweep_forcing(K.n, -13.0013)
        kwargs = dict(tol=1e-4, clamp_edges=clamp_edges, check_residual=False)
        phi = solve_linear_bounded(fresh(K), f, **kwargs)
        ref = reference_solve(fresh(K), f, monkeypatch, **kwargs)
        assert (phi.a, phi.b) == (ref.a, ref.b)
        assert_same_sweep(phi.values, ref.values)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-13.0, -0.5), st.floats(0.5, 12.99), st.booleans(), st.booleans(),
           st.sampled_from(["up", "down"]), st.floats(0.0, 1.0))
    # a sweep from lo = -7.26 that stops at once: values about 6e-5, which
    # differ from the reference's by 6.98e-19, beyond 1e-14 of their sup
    @example(-7.263671875, 1.0, False, False, "up", 0.0)
    def test_drawn_clip_ends(self, rotation_kernel, lo, hi, lo_on_grid, hi_on_grid, direction,
                             stop):
        K = fresh(rotation_kernel)
        f = sweep_forcing(K.n, -13.0013)
        if lo_on_grid:
            lo = f.a + math.ceil((lo - f.a) / f.h) * f.h
        if hi_on_grid:
            hi = f.a + math.floor((hi - f.a) / f.h) * f.h
        # the sweep stops at a grid point of the window, or at its far end
        k = math.ceil((lo - f.a) / f.h) + round(stop * (math.floor((hi - f.a) / f.h)
                                                       - math.ceil((lo - f.a) / f.h)))
        end = f.a + k * f.h if stop < 1.0 else (hi if direction == "up" else lo)
        out = trichotomy.solvers._sweep(K, f, (lo, hi), end, direction)
        ref = reference_sweep(K, f, *((lo, end) if direction == "up" else (end, hi)), direction)
        # each value sums panel terms of size up to h max|f| (the kernel's
        # decaying branch has norm about 1 here), so rounding is relative to
        # that, not to the value, which cancellation can make far smaller
        if np.any(ref):
            assert_same_sweep(out, ref, terms=f.h * np.max(np.abs(f.values)))
        else:
            assert not np.any(out)


class TestQuadraturePlan:
    def test_second_solve_makes_no_dense_evaluations(self, rotation_kernel, monkeypatch):
        # a time-dependent A has Magnus legs, so its sweeps run on plans
        K = fresh(rotation_kernel)
        assert K.modes is None
        f1 = GridFunction.from_callable(
            lambda t: np.stack([0.5 * np.cos(0.3 * t) + 0.2, 0.3 * np.sin(0.5 * t)], axis=-1),
            -14.0, 14.0, 0.02,
        )
        # same grid, other values, equal sup-norm (so the same tail horizon)
        f2 = GridFunction(f1.a, f1.b, f1.values[::-1])
        calls = count_dense_calls(monkeypatch)
        solve_linear_bounded(K, f1, tol=1e-4)
        assert sum(calls) > 0
        calls.clear()
        phi = solve_linear_bounded(K, f2, tol=1e-4)
        assert calls == []
        ref = solve_linear_bounded(fresh(K), f2, tol=1e-4)
        assert np.max(np.abs(phi.values - ref.values)) <= 1e-13

    def test_picard_iterates_and_eps_reuse_the_first_plan(self, rotation_kernel, monkeypatch):
        K = fresh(rotation_kernel)
        f = GridFunction.from_callable(
            lambda t: np.stack([0.1 * np.cos(0.3 * t), 0.05 * np.sin(0.5 * t)], axis=-1),
            -13.5, 13.5, 0.02,
        )
        Fspec = LipschitzSpec(["0.1*sin(x1)", "0.1*sin(x2)"], L=0.1)
        calls = count_dense_calls(monkeypatch)
        out = epsilon_continuation(K, f, Fspec, [1.0, 0.5], tol=1e-3)
        assert [report.measured_deviation > 0.0 for _, _, report in out] == [True, True]
        # the linear solve builds the one plan from one leg evaluation; every
        # Picard iterate of both eps reads it
        assert len(K.plans) == 1
        assert len(calls) == 1

    def test_constant_A_solves_without_plans_or_dense_evaluations(
        self, scalar_kernel, scalar_forcing, monkeypatch
    ):
        K = fresh(scalar_kernel)
        assert K.modes is not None
        f1 = GridFunction.from_callable(
            lambda t: 0.5 * np.cos(0.3 * t) + 0.2, scalar_forcing.a, scalar_forcing.b, 0.02
        )
        f2 = GridFunction(f1.a, f1.b, f1.values[::-1])
        calls = count_dense_calls(monkeypatch)
        for f in (f1, f2):
            solve_linear_bounded(K, f)
        assert calls == []
        assert K.plans == {}

    def test_folded_panel_sums_match_per_node_sums(self, rotation_kernel):
        """Moments W_p times spline coefficients equal sum_j w_j D^-1 f(node_j)."""
        K = fresh(rotation_kernel)
        f = GridFunction.from_callable(
            lambda t: np.stack([np.cos(1.3 * t) + 0.2 * t, np.sin(t) ** 2], axis=-1),
            -6.99, 6.97, 0.02,
        )
        i = int(np.searchsorted(K.anchors, 0.0, side="right")) - 1
        a0, a1 = K.anchors[i], K.anchors[i + 1]
        s0, s1 = a0 + 0.0137, a1 - 0.0071  # both ends off f's grid
        plan = trichotomy.solvers._green_plan(K, f, s0, s1)  # a window of one leg
        assert plan.first.size == 2
        c = f.coeffs.take(plan.cell, axis=1)  # (4, panels, 2)
        folded = np.einsum("kapb,pkb->ka", plan.W.reshape(-1, 2, 4, 2), c)

        pts = plan.pts
        assert pts[0] == s0 and pts[-1] == s1
        gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
        widths = np.diff(pts)
        nodes = pts[:-1, None] + np.outer(widths, (gl_nodes + 1.0) / 2.0)
        weights = np.outer(widths, gl_weights / 2.0)
        D = K.op.solve_leg(a0, a1)(nodes.ravel()).T.reshape(*nodes.shape, 2, 2)
        per_node = np.einsum(
            "kj,kjab,kjb->ka", weights, np.linalg.inv(D), f(nodes.ravel()).reshape(*nodes.shape, 2)
        )
        assert folded.shape == per_node.shape == (pts.size - 1, 2)
        assert np.max(np.abs(folded - per_node)) <= 1e-13 * np.max(np.abs(per_node))

    def test_plan_never_used_for_another_grid(self, saddle_kernel):
        W = 26.7
        grids = [(-W, W, 0.02), (-W, W, 0.05), (-W + 0.01, W + 0.01, 0.02)]
        for a, b, h in grids:
            f = cos_pair(a, b, h)
            phi = solve_linear_bounded(saddle_kernel, f).restrict(-10.0, 10.0)
            assert phi.h == pytest.approx(h)
            err = np.max(np.abs(phi.values - saddle_solution(phi.times)))
            assert err <= 1e-6
            ref = solve_linear_bounded(fresh(saddle_kernel), f).restrict(-10.0, 10.0)
            assert np.max(np.abs(phi.values - ref.values)) <= 1e-13

    def test_eps_ladder_matches_fresh_picard(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        eps = [0.4, 0.2, 0.1]
        out = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, eps)
        for e, phi, _ in out:
            ref, _ = picard_solve(fresh(scalar_kernel), scalar_forcing, Fspec.scaled(e))
            assert (phi.a, phi.b) == (ref.a, ref.b)
            assert np.max(np.abs(phi.values - ref.values)) <= 1e-12


def per_point_leg_values(legs, which, s):
    """Fitted Magnus legs' values as ``propagator._leg_values`` took them before layouts.

    One cardinal row per time, each leg's rows padded to the longest, and
    one batched product per interpolant degree; a time on a node takes the
    node's matrix.
    """
    n = legs[0].Y.shape[-1]
    t0, t1 = np.array([(leg.ts[0], leg.ts[-1]) for leg in legs]).T
    u = (s - t0[which]) / (t1[which] - t0[which])
    out = np.empty((s.size, n, n))
    degree = np.array([len(leg.C) - 1 for leg in legs])
    for d in np.unique(degree[which]):
        at = np.flatnonzero(degree[which] == d)
        at = at[np.argsort(which[at], kind="stable")]
        members, g = np.unique(which[at], return_inverse=True)
        counts = np.bincount(g)
        rank = np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts)
        B = np.zeros((members.size, counts.max(), d + 1))
        B[g, rank] = trichotomy.propagator._cardinals(u[at], d)
        C = np.stack([legs[i].C for i in members]).reshape(members.size, d + 1, n * n)
        out[at] = (B @ C)[g, rank].reshape(-1, n, n)
    M = np.array([len(leg.ts) - 1 for leg in legs])
    first = np.cumsum(M + 1) - (M + 1)
    j = first[which] + np.clip(np.rint(u * M[which]), 0, M[which]).astype(int)
    on = np.concatenate([leg.ts for leg in legs])[j] == s
    out[on] = np.concatenate([leg.Y for leg in legs])[j[on]]
    return out


class _RecordingOperator:
    """An operator stand-in for a plan build that records its one
    ``inverse_moments`` and its one ``leg_values`` call."""

    def __init__(self, op):
        self.op, self.calls = op, {"inverse_moments": [], "leg_values": []}

    def inverse_moments(self, spans, which, s, weights):
        W = self.op.inverse_moments(spans, which, s, weights)
        self.calls["inverse_moments"].append((self.op.solve_legs(spans), which, s, weights, W))
        return W

    def leg_values(self, spans, which, s):
        vals = self.op.leg_values(spans, which, s)
        self.calls["leg_values"].append((self.op.solve_legs(spans), which, s, vals))
        return vals


def recorded_plan_calls(K, f, lo, hi):
    """The plan of [lo, hi] on a fresh kernel: the legs, leg indices, times,
    weights and moments of its ``inverse_moments`` call, and the legs, leg
    indices, times and values of its ``leg_values`` call."""
    K = fresh(K)
    K.op = _RecordingOperator(K.op)
    trichotomy.solvers._green_plan(K, f, lo, hi)
    (moments,), (values,) = K.op.calls["inverse_moments"], K.op.calls["leg_values"]
    return moments, values


def assert_matches_per_point(legs, which, s, vals):
    """Within 1e-14 of each leg's largest entry of the per-point values."""
    ref = per_point_leg_values(legs, which, s)
    for i in np.unique(which):
        at = which == i
        assert np.max(np.abs(vals[at] - ref[at])) <= 1e-14 * np.max(np.abs(ref[at]))


def per_point_inverse_moments(legs, which, s, weights):
    """The moments of ``propagator._inverse_moments`` without layouts: each
    node's inverse from its own cardinal row (:func:`inverse_leg`), then
    the weighted sum of every row."""
    n = legs[0].Y.shape[-1]
    D_inv = np.empty((*s.shape, n, n))
    for i in np.unique(which):
        at = which == i
        D_inv[at] = inverse_leg(legs[i], s[at].ravel()).reshape(*s[at].shape, n, n)
    return np.einsum("rjp,rjab->rpab", weights, D_inv)


def assert_moments_match_per_point(legs, which, s, weights, W):
    """Within 1e-14 of each leg's largest entry of the per-point moments."""
    assert all(leg.C_inv is not None for leg in legs)
    ref = per_point_inverse_moments(legs, which, s, weights)
    for i in np.unique(which):
        at = which == i
        assert np.max(np.abs(W[at] - ref[at])) <= 1e-14 * np.max(np.abs(ref[at]))


class TestLegLayouts:
    """A plan's legs asked at the same fractions of their spans share one cardinal matrix,
    and with the same weights one cardinal-moment matrix."""

    def test_full_unit_legs_share_one_layout(self, rotation_kernel, monkeypatch):
        # the CLI's grid: step 0.02 through the integer anchors
        f = sweep_forcing(2, -13.0)
        moments, values = recorded_plan_calls(rotation_kernel, f, -12.5, 12.5)
        assert_moments_match_per_point(*moments)
        assert_matches_per_point(*values)
        rows = []
        cardinals = trichotomy.propagator._cardinals
        monkeypatch.setattr(trichotomy.propagator, "_cardinals",
                            lambda u, d: rows.append(u.size) or cardinals(u, d))
        legs, which, s, vals = values
        assert np.array_equal(trichotomy.propagator._leg_values(legs, which, s), vals)
        # the two clipped end legs, and one layout per degree of the 24 full unit legs
        assert len(legs) == 26
        assert len(rows) == 2 + len({len(leg.C) for leg in legs[1:-1]})
        rows.clear()
        legs, which, s, weights, W = moments
        assert np.array_equal(trichotomy.propagator._inverse_moments(legs, which, s, weights), W)
        assert len(rows) == 2 + len({len(leg.C_inv) for leg in legs[1:-1]})

    # grid origins and steps that put the anchors off the grid, and clipped
    # windows, so that the legs' layouts differ
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-13.6, -13.0), st.one_of(st.just(0.02), st.floats(0.011, 0.09)),
           st.floats(-12.9, -0.5), st.floats(0.5, 12.9))
    def test_layouts_match_the_per_point_values(self, rotation_kernel, a, h, lo, hi):
        f = GridFunction.from_callable(lambda t: np.cos(np.multiply.outer(t, [0.7, 2.0])),
                                       a, a + h * math.ceil(27.0 / h), h)
        moments, values = recorded_plan_calls(rotation_kernel, f, lo, hi)
        assert_moments_match_per_point(*moments)
        assert_matches_per_point(*values)

    def test_first_plan_fits_its_window_and_a_second_solve_fits_nothing(self, rotation_A,
                                                                         monkeypatch):
        fits = []
        chebyshev_fits = trichotomy.propagator._chebyshev_fits
        monkeypatch.setattr(trichotomy.propagator, "_chebyshev_fits",
                            lambda A, t0, t1, nodes: fits.append(list(zip(t0, t1)))
                            or chebyshev_fits(A, t0, t1, nodes))
        K = GreenKernel(build_trichotomy(TransitionOperator(rotation_A), 14.0))
        assert fits == []
        f = sweep_forcing(2, -13.0013)
        solve_linear_bounded(K, f, tol=1e-4, check_residual=False)
        (plan,) = K.plans.values()
        (fitted,) = fits
        legs = [(a0, a1) for a0, a1 in zip(K.anchors[:-1], K.anchors[1:])
                if a1 > plan.pts[0] and a0 < plan.pts[-1]]
        assert fitted == legs
        # a narrower forcing window sweeps a narrower window: a second plan
        solve_linear_bounded(K, f.restrict(-12.5, 12.5), tol=1e-4, check_residual=False)
        assert len(K.plans) == 2 and len(fits) == 1


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


# seed, log10 cond(W), three log10 rates, imaginary part, pair?, sign choice, omega
def modal_cases(max_log_cond, max_rate):
    log_rate = st.floats(np.log10(0.2), np.log10(max_rate))
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, max_log_cond),
        st.tuples(log_rate, log_rate, log_rate),
        st.floats(0.2, 5.0),
        st.booleans(),
        st.integers(0, 1),
        st.floats(0.2, 1.5),
    )


def modal_problem(case, tol):
    """A = W B W^-1 with its spectral certificate and trigonometric forcing.

    ``W`` has condition number 10**log_cond.  ``B`` is diagonal with one or
    two stable rates and the rest unstable, or (``pair``) a 2x2 block
    re +- i im of one sign beside a real rate of the other sign.  For such
    B, ||e^{Bt} P_B|| = e^{-nu t}, so N = cond(W) and nu = min |Re lam|
    certify the spectral projector.  The forcing window leaves the
    output window (-2, 2) its tail horizon.  Returns the kernel, the
    forcing and the exact bounded solution Re((i omega I - A)^-1 (a - i b)
    e^{i omega t}) as a function of t.
    """
    seed, log_cond, log_rates, im, pair, k, omega = case
    rates = 10.0 ** np.asarray(log_rates)
    if pair:
        s = -1.0 if k else 1.0
        B = np.array([[s * rates[0], im, 0.0], [-im, s * rates[0], 0.0], [0.0, 0.0, -s * rates[1]]])
    else:
        B = np.diag(np.where(np.arange(3) <= k, -1.0, 1.0) * rates)
    d = np.diag(B)
    rng = np.random.default_rng(seed)
    W = _orthogonal(rng, 3) @ np.diag(np.geomspace(1.0, 10.0**log_cond, 3)) @ _orthogonal(rng, 3)
    W_inv = np.linalg.inv(W)
    A = W @ B @ W_inv
    P = W @ np.diag((d < 0).astype(float)) @ W_inv
    N, nu = float(np.linalg.cond(W)), float(np.min(np.abs(d)))
    a, b = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    Tc = trichotomy.solvers._tail_horizon(N, nu, float(np.sqrt(np.sum(a * a + b * b))), tol)
    window = float(np.ceil(Tc + 3.0))
    coeff = CoefficientMatrix.from_strings([[f"{x:.17g}" for x in row] for row in A])
    cert = build_trichotomy(coeff, window + 0.5, P=P, Q=np.eye(3) - P, N=N, nu=nu)
    f = GridFunction.from_callable(
        lambda t: np.multiply.outer(np.cos(omega * t), a) + np.multiply.outer(np.sin(omega * t), b),
        -window, window, 0.02,
    )
    c = np.linalg.solve(1j * omega * np.eye(3) - A, a - 1j * b)
    return GreenKernel(cert), f, lambda t: (np.exp(1j * omega * t)[:, None] * c).real


class _ClosedFormOperator:
    """An operator stand-in for a plan build on the legs V e^{lam (s - t0)} V^-1
    of a constant A's ``modes``: the leg values and the inverse moments at
    rounding level, with no interpolant between nodes."""

    def __init__(self, modes):
        self.V, self.lam, self.V_inv = modes[:3]

    def _legs(self, dt):
        E = np.exp(np.multiply.outer(dt, self.lam))
        return ((self.V * E[..., None, :]) @ self.V_inv).real

    def leg_values(self, spans, which, s):
        return self._legs(np.asarray(s) - np.array(spans)[which, 0])

    def inverse_moments(self, spans, which, s, weights):
        rows, m = np.shape(s)
        n = len(self.lam)
        D_inv = self._legs(np.array(spans)[which, 0, None] - s).reshape(rows, m, n * n)
        return (weights.transpose(0, 2, 1) @ D_inv).reshape(rows, -1, n, n)


class TestModalQuadrature:
    """The eigen-coordinate Green sweeps of a constant A against two references."""

    @settings(max_examples=15, deadline=None)
    @given(modal_cases(max_log_cond=3.0, max_rate=20.0))
    # no centre, cond(W) = 1e3 and |phi(0)| ~ 300: an absolute pin on R = PQ,
    # which is rounding alone here, read 1.62e-9 and 2.14e-9 against tol 1e-9
    @example((5, 3.0, (0.0, 0.0, 0.0), 1.0, False, 0, 1.0))
    @example((48, 3.0, (0.0, 0.0, 0.0), 1.0, False, 0, 1.0))
    # rates 1 and nu = 1 supplied: the stored A's numerical rate falls
    # 6.7e-16 and 3.3e-16 below nu, beyond the Bauer-Fike radius alone
    # (5.65e-16 and 2.6e-16) but within cond(V) (delta + eps ||A||)
    @example((2478206, 0.0, (0.0, 0.0, 0.0), 1.0, False, 0, 1.0))
    @example((134217729, 0.0, (0.0, 0.0, 0.0), 1.0, False, 0, 1.0))
    def test_matches_closed_form(self, case):
        K, f, exact = modal_problem(case, tol=1e-9)
        assert K.modes is not None
        # the 4th-order residual gate cannot resolve 10*tol = 1e-8 here; the
        # closed form is the stronger check
        phi = solve_linear_bounded(K, f, tol=1e-9, check_residual=False).restrict(-2.0, 2.0)
        assert np.max(np.abs(phi.values - exact(phi.times))) <= 1e-8 * max(1.0, phi.sup_norm)
        assert K.plans == {}

    # the plan path's rounding grows like cond(V) eps e^{|lam|} over a unit
    # leg, so it resolves 1e-12 only for moderate rates and conditioning; it
    # reads the closed-form legs, since a Magnus leg between its nodes is an
    # interpolant, accurate to its node test, not to rounding
    @settings(max_examples=8, deadline=None)
    @given(modal_cases(max_log_cond=1.5, max_rate=3.0))
    # cond(V) = 22.1, max |lam| = 2.74, sup 6.60: the paths differ by
    # 8.09e-12, beyond 1e-12 of the sup; the rounding bound is 2.51e-11
    @example((1073741823, 1.5, (0.0, 0.0, 0.4375), 1.0, False, 0, 1.0))
    def test_matches_plan_path(self, case):
        K, f, _ = modal_problem(case, tol=1e-6)
        assert K.modes is not None
        phi = solve_linear_bounded(K, f)
        plan_kernel = swept(K)
        assert plan_kernel.modes is None
        plan_kernel.op = _ClosedFormOperator(K.modes)
        ref = solve_linear_bounded(plan_kernel, f)
        assert (phi.a, phi.b) == (ref.a, ref.b)
        # a unit leg takes each panel term into its local coordinates and
        # back, which magnifies rounding by up to cond(V) e^{max |Re lam|}, and
        # sums its 1/h terms by np.cumsum, whose rounding is at most (1/h) eps
        # of the terms' size: relative to the sup, 1/h cond(V) eps e^{max |Re lam|}
        lam = K.modes[1]
        rounding = K.op.eig_health["cond_V"] * np.finfo(float).eps * np.exp(
            np.max(np.abs(lam.real))) / f.h
        assert np.max(np.abs(phi.values - ref.values)) <= max(1e-12, rounding) * max(
            1.0, phi.sup_norm)

    def test_non_spectral_certificate_is_rejected(self, saddle_A):
        P = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(NonHyperbolicError, match="at distance 0.5 from the spectral"):
            build_trichotomy(saddle_A, 28.0, P=P, Q=np.eye(2) - P)


RULE_GRIDS = [0.005, 0.02, 0.1, 0.25]


def _rotating_saddle_leg(t0):
    """Phi(s, t0) = R(6s) diag(e^{-2(s - t0)}, e^{2(s - t0)}) R(6 t0)^T, with R the rotation."""

    def leg(s):
        s = np.asarray(s, dtype=float)
        c, d = np.cos(6.0 * s), np.sin(6.0 * s)
        R = np.stack([np.stack([c, -d], -1), np.stack([d, c], -1)], -2)
        E = np.exp(2.0 * np.multiply.outer(s - t0, [-1.0, 1.0]))
        c0, d0 = np.cos(6.0 * t0), np.sin(6.0 * t0)
        Y = (R * E[..., None, :]) @ np.array([[c0, d0], [-d0, c0]])
        return Y.reshape(4) if s.ndim == 0 else Y.reshape(-1, 4).T

    return leg


def _tanh_leg(t0):
    """Phi(s, t0) = diag(e^{-8(s - t0)}, e^{8(s - t0)}, cosh(8 t0) / cosh(8s))."""

    def leg(s):
        s = np.asarray(s, dtype=float)
        d = np.stack([np.exp(-8.0 * (s - t0)), np.exp(8.0 * (s - t0)),
                      np.cosh(8.0 * t0) / np.cosh(8.0 * s)], -1)
        Y = d[..., :, None] * np.eye(3)
        return Y.reshape(9) if s.ndim == 0 else Y.reshape(-1, 9).T

    return leg


EXACT_LEGS = {"rotation": _rotating_saddle_leg, "tanh": _tanh_leg}


@pytest.fixture(scope="module")
def fast_kernels():
    """Kernels with |A| = 8, so h |A| reaches 2 at h = 0.25: the rotating saddle
    R(6t) diag(-2, 2) R(6t)^T + 6J and diag(-8, 8, -8 tanh(8t)) on the plan path
    (their legs in ``EXACT_LEGS``), and A = (-1 +- 8i, 6) in modes."""
    rows = {
        "rotation": [["-2*cos(12*t)", "-2*sin(12*t) - 6"], ["-2*sin(12*t) + 6", "2*cos(12*t)"]],
        "tanh": [["-8", "0", "0"], ["0", "8", "0"], ["0", "0", "-8*tanh(8*t)"]],
        "modal": [["-1", "8", "0"], ["-8", "-1", "0"], ["0", "0", "6"]],
    }
    return {name: GreenKernel(build_trichotomy(CoefficientMatrix.from_strings(r), 10.0))
            for name, r in rows.items()}


def use_nodes(monkeypatch, m):
    """Make both quadrature paths take the m-node rule, whatever h*a; returns
    the list of h*a that the paths ask a rule for."""
    rule = np.polynomial.legendre.leggauss(m)
    asked = []
    monkeypatch.setattr(trichotomy.solvers, "_panel_rule", lambda ha: asked.append(ha) or rule)
    return asked


def trig_forcing(n, h):
    """Smooth forcing with one frequency per component on a grid of step h from -3.0013."""
    w = 0.7 + 1.3 * np.arange(n)
    a = -3.0013
    f = GridFunction.from_callable(lambda t: np.cos(np.multiply.outer(t, w) + 0.3),
                                   a, a + h * np.ceil(6.0026 / h), h)
    assert f.h == pytest.approx(h, rel=1e-12)
    return f


PLAN_WINDOW = (-2.9937, 2.9911)


def plan_and_nodes(K, f, monkeypatch):
    """The plan of ``PLAN_WINDOW`` on a fresh kernel, and the nodes per panel it took.

    A plan takes its moments in one ``inverse_moments`` call, whose times
    are m nodes per panel, so m is read off their shape.
    """
    K = fresh(K)
    shapes = []
    inverse_moments = K.op.inverse_moments

    def counted(spans, which, s, weights):
        shapes.append(np.shape(s))
        return inverse_moments(spans, which, s, weights)

    with monkeypatch.context() as m:
        m.setattr(K.op, "inverse_moments", counted)
        plan = trichotomy.solvers._green_plan(K, f, *PLAN_WINDOW)
    ((panels, nodes),) = shapes
    assert panels == plan.cell.size
    return plan, nodes


def exact_inverse_moments(legs, n):
    """An ``inverse_moments`` that contracts the weights with the inverse of the
    closed-form leg ``legs(t0)`` of each span."""

    def moments(spans, which, s, weights):
        D_inv = np.empty((*np.shape(s), n, n))
        for i, (t0, _) in enumerate(spans):
            at = which == i
            D_inv[at] = np.linalg.inv(legs(t0)(s[at].ravel()).T.reshape(*s[at].shape, n, n))
        return np.einsum("rjp,rjab->rpab", weights, D_inv)

    return moments


def assert_plans_match_nodes(K, h, monkeypatch, rtol, ref_nodes=16):
    """The plan of ``PLAN_WINDOW`` against its twin on the ``ref_nodes`` rule.

    Each block W_p of a panel is compared in units of h^p ||W_0||: the
    moments of u/h in [0, 1], so each p is on the scale of W_0.
    """
    f = trig_forcing(K.n, h)
    plan, nodes = plan_and_nodes(K, f, monkeypatch)
    assert plan.first.size - 1 == 6
    sized = len(trichotomy.solvers._plan_rule(fresh(K), h)[0])
    assert nodes == sized
    with monkeypatch.context() as m:
        asked = use_nodes(m, ref_nodes)
        ref, ref_count = plan_and_nodes(K, f, monkeypatch)
    # one rule per plan, for every leg of its window
    assert len(asked) == 1 and ref_count == ref_nodes
    assert np.array_equal(plan.cell, ref.cell)
    # W holds each panel's blocks [W_0 ... W_3] side by side
    W, W_ref = (x.W.reshape(-1, K.n, 4, K.n) for x in (plan, ref))
    err = np.linalg.norm(W - W_ref, axis=(1, 3))
    scale = np.linalg.norm(W_ref[:, :, :1], axis=(1, 3)) * h ** np.arange(4)
    assert np.max(err / scale) <= rtol
    return sized


def _gl_constant(m):
    """c_m of the m-node Gauss-Legendre remainder c_m (h a)^{2m}."""
    return math.factorial(m) ** 4 / ((2 * m + 1) * math.factorial(2 * m) ** 3)


class TestPanelRule:
    """The sized panel rule against the 16-node one, whose remainder is ~1e-55 (h|A|)^32."""

    @pytest.mark.parametrize(
        "ha", [0.0, 1e-3, 0.03, 0.145, 0.146, 0.5, 1.0, 2.6, 2.7, 4.0, 8.8, 15.9, 16.1, 50.0]
    )
    def test_fewest_nodes_meeting_the_bound(self, ha):
        nodes, weights = trichotomy.solvers._panel_rule(ha)
        m = nodes.size
        ref = np.polynomial.legendre.leggauss(m)
        assert np.array_equal(nodes, ref[0]) and np.array_equal(weights, ref[1])
        assert 4 <= m <= 16
        if m < 16:
            assert _gl_constant(m) * ha ** (2 * m) <= 2.0**-53
        if m > 4:
            assert _gl_constant(m - 1) * ha ** (2 * m - 2) > 2.0**-53

    def test_monotone_from_4_to_16(self):
        rule = trichotomy.solvers._panel_rule
        counts = [rule(ha)[0].size for ha in np.geomspace(1e-6, 1e3, 3000)]
        assert np.all(np.diff(counts) >= 0)
        assert sorted(set(counts)) == list(range(4, 17))
        assert rule(np.inf)[0].size == 16

    @pytest.mark.parametrize("name", ["rotation_kernel", "trich_kernel"])
    def test_cli_grid_takes_4_nodes_from_one_sample_of_A(self, request, name, monkeypatch):
        K = fresh(request.getfixturevalue(name))
        calls = []
        values = K.A.values
        monkeypatch.setattr(K.A, "values", lambda t: calls.append(np.ravel(t)) or values(t))
        f = trig_forcing(K.n, 0.02)
        trichotomy.solvers._green_plan(K, f, *PLAN_WINDOW)
        # the Magnus legs' own calls aside, the plan build samples A once, over the window
        lo, hi = K.window
        samples = np.linspace(lo, hi, round((hi - lo) / 0.02) + 1)
        assert sum(t.size == samples.size and np.array_equal(t, samples) for t in calls) == 1
        assert trichotomy.solvers._plan_rule(K, f.h)[0].size == 4

    @pytest.mark.parametrize("h", RULE_GRIDS)
    @pytest.mark.parametrize("name", ["rotation", "tanh"])
    def test_plan_moments_match_16_nodes(self, fast_kernels, name, h, monkeypatch):
        # closed-form legs, so both rules integrate the same smooth D^-1
        K = fast_kernels[name]
        assert K.modes is None
        monkeypatch.setattr(K.op, "inverse_moments", exact_inverse_moments(EXACT_LEGS[name], K.n))
        assert_plans_match_nodes(K, h, monkeypatch, 1e-13)

    @pytest.mark.parametrize("h", [0.5, 1.0])
    @pytest.mark.parametrize("name", ["rotation", "tanh"])
    def test_coarse_grid_moments_match_40_nodes(self, fast_kernels, name, h, monkeypatch):
        # h ||A||_1 from 4 to 8.8: a fixed 8-node rule errs by up to 1.3e-8 here
        K = fast_kernels[name]
        monkeypatch.setattr(K.op, "inverse_moments", exact_inverse_moments(EXACT_LEGS[name], K.n))
        sized = assert_plans_match_nodes(K, h, monkeypatch, 1e-13, ref_nodes=40)
        assert 9 <= sized < 16

    @pytest.mark.parametrize("h", RULE_GRIDS)
    @pytest.mark.parametrize("name", ["rotation_kernel", "trich_kernel"])
    def test_magnus_plan_moments_match_16_nodes(self, request, name, h, monkeypatch):
        # A Magnus leg between its nodes is its Chebyshev interpolant,
        # analytic across the leg, so the rules differ by their own
        # remainders, as on closed-form legs: up to 1.9e-12 (4 nodes at
        # h = 0.1) and 5e-15 at the CLI's h = 0.02; 3 nodes would give
        # 4.8e-10 there, the rule's own remainder on the u^3 moment.
        K = request.getfixturevalue(name)
        assert K.modes is None
        assert_plans_match_nodes(K, h, monkeypatch, RTOL / 100)

    @pytest.mark.parametrize("h", RULE_GRIDS)
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_modal_psi_matches_16_nodes(self, fast_kernels, direction, h, monkeypatch):
        modes = fast_kernels["modal"].modes
        assert modes is not None and np.max(np.abs(modes[1])) == pytest.approx(np.hypot(1, 8))
        f = trig_forcing(3, h)
        # both ends cut a panel, so the cut-panel sums are compared too
        lo, hi = -2.9937, 2.9911
        out = trichotomy.solvers._modal_sweep(modes, f, lo, hi, direction)
        asked = use_nodes(monkeypatch, 16)
        ref = trichotomy.solvers._modal_sweep(modes, f, lo, hi, direction)
        # one rule per sweep, sized by h max |lam|
        assert asked == [pytest.approx(h * np.hypot(1, 8))]
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def per_node_inverse_moments(K, spans, which, s, weights):
    """The moments as the plan took them before inverse samples: every leg
    evaluated at every node, each value inverted, then the weighted sum."""
    D = K.op.leg_values(spans, np.repeat(which, s.shape[1]), s.ravel()).reshape(*s.shape, K.n, K.n)
    return D, np.einsum("rjp,rjab->rpab", weights, np.linalg.inv(D))


class TestInverseMoments:
    """Green plan moments from each leg's inverse Chebyshev samples."""

    @pytest.mark.parametrize("name", ["rotation", "tanh"])
    def test_exact_legs_inverse_interpolant_matches_the_closed_form(self, fast_kernels, name):
        """At random off-node times, within the node test's tolerance at the
        inverse leg's scale, ATOL + RTOL max |Phi^-1|.  Entry by entry the
        Magnus nodes themselves can miss ATOL + RTOL |Phi| of the closed form
        by a factor 2.3 here (the Richardson estimate is an estimate), so the
        tolerance is taken at the scale, as the legs' own RK45 test does."""
        K = fast_kernels[name]
        spans = list(zip(K.anchors[:-1], K.anchors[1:])) + [(2.5, 3.0), (4.0, 1.5)]
        legs = K.op.solve_legs(spans)
        K.op.leg_values(spans, np.arange(len(spans)), [t0 + 0.3 * (t1 - t0) for t0, t1 in spans])
        rng = np.random.default_rng(3)
        for (t0, t1), leg in zip(spans, legs):
            assert leg.C_inv is not None and len(leg.C_inv) == len(leg.C)
            s = t0 + (t1 - t0) * rng.uniform(size=64)
            assert not np.isin(s, leg.ts).any()
            ref = np.linalg.inv(EXACT_LEGS[name](t0)(s).T.reshape(-1, K.n, K.n))
            tol = trichotomy.propagator.ATOL + RTOL * np.max(np.abs(ref))
            assert np.max(np.abs(inverse_leg(leg, s) - ref)) <= tol

    @pytest.mark.parametrize("name", ["rotation_kernel", "trich_kernel"])
    def test_plan_moments_match_the_per_node_inverses(self, request, name):
        """The moments against the per-node-inverse ones they replaced.

        With D~ the leg's interpolant and Z~ the interpolant of its inverse
        samples, Z~ - D~^-1 = D~^-1 (D~ Z~ - I), so at node j the two
        inverses differ by at most ||D~_j^-1|| ||D~_j Z~_j - I|| (infinity
        norms), and the moments W_p by the sum of |w_j u_j^p| times that.
        Rounding adds about kappa_j eps ||D~_j^-1|| for the inverse of D~_j
        (kappa_j its condition number), the same for the residual as
        computed, and for Z~ a sum of d + 1 samples whose cardinal weights'
        Lebesgue constant is below d + 1: at most (d + 1) kappa_j eps
        ||D~_j^-1|| in all.  The sweep window cuts both end legs off the grid.
        """
        K = fresh(request.getfixturevalue(name))
        K.op = _RecordingOperator(K.op)
        f = sweep_forcing(K.n, -13.0013)
        trichotomy.solvers._green_plan(K, f, -12.3456, 11.789)
        ((legs, which, s, weights, W),) = K.op.calls["inverse_moments"]
        K.op = K.op.op
        spans = [(leg.ts[0], leg.ts[-1]) for leg in legs]
        D, ref = per_node_inverse_moments(K, spans, which, s, weights)
        Z = np.empty_like(D)
        for i in np.unique(which):
            at = which == i
            Z[at] = inverse_leg(legs[i], s[at].ravel()).reshape(*s[at].shape, K.n, K.n)
        D_inv = np.linalg.inv(D)

        def norm(X):
            return np.abs(X).sum(axis=-1).max(axis=-1)

        residual = norm(D @ Z - np.eye(K.n))
        kappa = norm(D) * norm(D_inv)
        degree = np.array([len(leg.C_inv) - 1 for leg in legs])[which, None]
        eps = np.finfo(float).eps
        bound = np.einsum("rjp,rj->rp", np.abs(weights),
                          norm(D_inv) * (residual + (degree + 1) * kappa * eps))
        assert np.all(np.max(np.abs(W - ref), axis=(-2, -1)) <= bound)
        assert np.max(np.abs(W - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ["rotation", "trich_tanh"])
    def test_plan_inverts_only_samples_and_nodes(self, name, monkeypatch):
        # a fresh operator, so the plan fits every leg of its window
        A = load_problem(problem_path(name)).A
        K = GreenKernel(build_trichotomy(TransitionOperator(A), 14.0))
        f = sweep_forcing(K.n, -13.0013)
        inverted, evaluated = [], []
        inv, leg_values = np.linalg.inv, trichotomy.propagator._leg_values
        monkeypatch.setattr(np.linalg, "inv",
                            lambda X: inverted.append(np.shape(X)[:-2]) or inv(X))
        monkeypatch.setattr(trichotomy.propagator, "_leg_values",
                            lambda legs, which, s: evaluated.append(np.size(s))
                            or leg_values(legs, which, s))
        plan = trichotomy.solvers._green_plan(K, f, -12.3456, 11.789)
        legs = K.op.solve_legs([(a0, a1) for a0, a1 in zip(K.anchors[:-1], K.anchors[1:])
                                if a1 > plan.pts[0] and a0 < plan.pts[-1]])
        assert len(legs) == plan.first.size - 1
        assert all(leg.C_inv is not None for leg in legs)
        assert sum(math.prod(shape) for shape in inverted) <= sum(
            len(leg.C) + len(leg.ts) for leg in legs)
        # one leg evaluation, at the panel points alone
        assert evaluated == [plan.pts.size]

    @pytest.mark.parametrize("a, parent_residual", [(-20.0, 5.91e-9), (-23.0, 6.12e-7)])
    def test_fallback_legs_solve_the_fast_scalar_problem(self, a, parent_residual, tmp_path,
                                                         monkeypatch):
        # x' = (a + sin t) x + cos t: e^{-a} over a unit leg, whose inverse
        # interpolant misses the node test on some legs (a = -20) or all (-23)
        fits = []
        chebyshev_fits = trichotomy.propagator._chebyshev_fits

        def fit(*args):
            out = chebyshev_fits(*args)
            fits.extend(out)
            return out

        monkeypatch.setattr(trichotomy.propagator, "_chebyshev_fits", fit)
        prob = tmp_path / "fast.json"
        prob.write_text(json.dumps({"dim": 1, "A": [[f"{a!r} + sin(t)"]], "f": ["cos(t)"],
                                    "window": 5}))
        assert run_cli(["solve-linear", prob, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["ode_residual_max"] <= 2.0 * parent_residual
        fallback = sum(C_inv is None for _, C_inv in fits)
        assert fallback >= 1
        if a == -20.0:
            assert fallback < len(fits)


class TestOdeResidual:
    def test_exact_solution_has_tiny_residual(self, saddle_A):
        phi = GridFunction.from_callable(
            lambda t: np.stack([np.exp(-t), 0.0 * t], axis=-1), 0.0, 2.0, 0.02
        )
        res = ode_residual(saddle_A, phi)
        assert float(res.max()) <= 1e-7

    def test_detects_wrong_solution(self, saddle_A):
        phi = GridFunction.from_callable(
            lambda t: np.stack([np.exp(-0.5 * t), 0.0 * t], axis=-1), 0.0, 2.0, 0.02
        )
        assert float(ode_residual(saddle_A, phi).max()) >= 0.1
