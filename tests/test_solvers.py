"""Bounded linear/semilinear solvers, Picard iteration and eps continuation."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trichotomy.solvers
from trichotomy.grid import GridFunction
from trichotomy.hyperbolicity import (
    GreenKernel,
    NonHyperbolicError,
    WindowTooSmall,
    _build_half_family,
    build_trichotomy,
)
from trichotomy.propagator import RTOL, CoefficientMatrix, ExactLeg, MagnusLeg
from trichotomy.solvers import (
    ContractionError,
    LipschitzSpec,
    SolverError,
    _contraction_ratio,
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


def assert_hint_is_least_half_width(kernel, W, out_window):
    """Forcing 0.5 on [-W, W] raises; the hinted half-width works and 0.95x of it not."""

    def forcing(W):
        return GridFunction.from_callable(lambda t: 0.5 + 0.0 * t, -W, W, 0.02)

    with pytest.raises(WindowTooSmall) as exc:
        solve_linear_bounded(kernel, forcing(W), out_window=out_window)
    need = exc.value.required
    assert str(exc.value).count("increase window") == 1
    phi = solve_linear_bounded(kernel, forcing(need), out_window=out_window)
    assert np.max(np.abs(phi.values - 0.5)) <= 1e-6
    with pytest.raises(WindowTooSmall):
        solve_linear_bounded(kernel, forcing(0.95 * need), out_window=out_window)


class TestLinearSolve:
    def test_matches_closed_form(self, saddle_kernel, saddle_cos_forcing):
        phi = solve_linear_bounded(
            saddle_kernel, saddle_cos_forcing, out_window=(-10.0, 10.0)
        )
        assert phi.a == pytest.approx(-10.0) and phi.b == pytest.approx(10.0)
        err = np.max(np.abs(phi.values - saddle_solution(phi.times)))
        assert err <= 1e-6
        assert np.allclose(phi(0.0), [0.5, -0.5], atol=1e-6)

    def test_residual_is_small(self, saddle_kernel, saddle_cos_forcing):
        phi = solve_linear_bounded(
            saddle_kernel, saddle_cos_forcing, out_window=(-10.0, 10.0)
        )
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
        w = (-5.0, 5.0)
        p1 = solve_linear_bounded(scalar_kernel, f1, tol=1e-8, out_window=w)
        p2 = solve_linear_bounded(scalar_kernel, f2, tol=1e-8, out_window=w)
        pc = solve_linear_bounded(scalar_kernel, combo, tol=1e-8, out_window=w)
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
        assert_hint_is_least_half_width(scalar_kernel, 3.0, None)

    def test_explicit_window_needs_margin(self, scalar_kernel):
        assert_hint_is_least_half_width(scalar_kernel, 20.0, (-18.0, 18.0))

    def test_operator_norm_bound(self, saddle_kernel, saddle_cos_forcing):
        cert = saddle_kernel.cert
        phi = solve_linear_bounded(
            saddle_kernel, saddle_cos_forcing, out_window=(-10.0, 10.0)
        )
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
            assert np.allclose(grid[k], spec(t, vals[k]), atol=1e-15)


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

    def test_independent_of_initial_guess(
        self, scalar_kernel, scalar_forcing, sin_solution
    ):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        m = scalar_forcing.values.shape[0]
        guess = GridFunction(
            scalar_forcing.a, scalar_forcing.b, np.full((m, 1), 1.0)
        )
        phi_b, _ = picard_solve(scalar_kernel, scalar_forcing, Fspec, initial=guess)
        phi_a, _ = sin_solution
        assert np.max(np.abs(phi_a.values - phi_b.values)) <= 1e-6

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
                              "(non-finite result from exp in array argument); ")
        assert "last finite step sup|psi_3 - psi_2| = " in msg
        assert msg.endswith("alpha = 0.26")

    def test_initial_guess_window_checked(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        guess = GridFunction(-1.0, 1.0, np.zeros((101, 1)))
        with pytest.raises(ValueError, match="window"):
            picard_solve(scalar_kernel, scalar_forcing, Fspec, initial=guess)


class TestContinuation:
    def test_deviation_ladder(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        eps = [0.4, 0.2, 0.1, 0.05]
        out = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, eps)
        assert [e for e, _, _ in out] == eps
        devs = [dev for _, _, dev in out]
        assert all(a > b for a, b in zip(devs, devs[1:]))
        N, nu = scalar_kernel.cert.N, scalar_kernel.cert.nu
        fn = scalar_forcing.sup_norm
        for e, _, dev in out:
            bound = 4 * e * N**2 * 0.1 * fn / (nu * (nu - 2 * N * 0.1 * e))
            assert dev <= bound * (1.0 + 1e-3)

    def test_zero_scaling_is_linear_solution(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        out = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, [0.0])
        e, phi, dev = out[0]
        assert e == 0.0 and dev == 0.0
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
    families = (
        _build_half_family(cert.op, 0.0, hi, cert.P, cert.nu),
        _build_half_family(cert.op, lo, 0.0, np.eye(K.n) - cert.Q, cert.nu),
    )
    return GreenKernel(dataclasses.replace(cert, modes=None, families=families))


def count_dense_calls(monkeypatch):
    """A list that collects the point count of every dense call on either leg type."""
    calls = []
    for leg_type in (MagnusLeg, ExactLeg):
        orig = leg_type.__call__

        def counted(sol, t, orig=orig):
            calls.append(np.size(t))
            return orig(sol, t)

        monkeypatch.setattr(leg_type, "__call__", counted)
    return calls


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
        plan = trichotomy.solvers._leg_plan(K, f, a0, a1, s0, s1)
        folded = np.einsum("kpab,pkb->ka", plan.W, f.coeffs.take(plan.cell, axis=1))

        pts = trichotomy.solvers._panel_points(s0, s1, f.a, f.h)
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
            phi = solve_linear_bounded(saddle_kernel, f, out_window=(-10.0, 10.0))
            assert phi.h == pytest.approx(h)
            err = np.max(np.abs(phi.values - saddle_solution(phi.times)))
            assert err <= 1e-6
            ref = solve_linear_bounded(fresh(saddle_kernel), f, out_window=(-10.0, 10.0))
            assert np.max(np.abs(phi.values - ref.values)) <= 1e-13

    def test_eps_ladder_matches_fresh_picard(self, scalar_kernel, scalar_forcing):
        Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
        eps = [0.4, 0.2, 0.1]
        out = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, eps)
        for e, phi, _ in out:
            ref, _ = picard_solve(fresh(scalar_kernel), scalar_forcing, Fspec.scaled(e))
            assert (phi.a, phi.b) == (ref.a, ref.b)
            assert np.max(np.abs(phi.values - ref.values)) <= 1e-12


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


class TestModalQuadrature:
    """The eigen-coordinate Green sweeps of a constant A against two references."""

    @settings(max_examples=15, deadline=None)
    @given(modal_cases(max_log_cond=3.0, max_rate=20.0))
    def test_matches_closed_form(self, case):
        K, f, exact = modal_problem(case, tol=1e-9)
        assert K.modes is not None
        # the 4th-order residual gate cannot resolve 10*tol = 1e-8 here; the
        # closed form is the stronger check
        phi = solve_linear_bounded(K, f, tol=1e-9, out_window=(-2.0, 2.0), check_residual=False)
        assert np.max(np.abs(phi.values - exact(phi.times))) <= 1e-8 * max(1.0, phi.sup_norm)
        assert K.plans == {}

    # the plan path's rounding grows like cond(V) eps e^{|lam|} over a unit
    # leg, so it resolves 1e-12 only for moderate rates and conditioning
    @settings(max_examples=8, deadline=None)
    @given(modal_cases(max_log_cond=1.5, max_rate=3.0))
    def test_matches_plan_path(self, case):
        K, f, _ = modal_problem(case, tol=1e-6)
        assert K.modes is not None
        phi = solve_linear_bounded(K, f)
        plan_kernel = swept(K)
        assert plan_kernel.modes is None
        ref = solve_linear_bounded(plan_kernel, f)
        assert (phi.a, phi.b) == (ref.a, ref.b)
        assert np.max(np.abs(phi.values - ref.values)) <= 1e-12 * max(1.0, phi.sup_norm)

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


def use_16_nodes(monkeypatch):
    nodes, weights = np.polynomial.legendre.leggauss(16)
    monkeypatch.setattr(trichotomy.solvers, "_GL_NODES", nodes)
    monkeypatch.setattr(trichotomy.solvers, "_GL_WEIGHTS", weights)


def trig_forcing(n, h):
    """Smooth forcing with one frequency per component on a grid of step h from -3.0013."""
    w = 0.7 + 1.3 * np.arange(n)
    a = -3.0013
    f = GridFunction.from_callable(lambda t: np.cos(np.multiply.outer(t, w) + 0.3),
                                   a, a + h * np.ceil(6.0026 / h), h)
    assert f.h == pytest.approx(h, rel=1e-12)
    return f


def assert_plans_match_16_nodes(K, h, monkeypatch, rtol):
    """Every plan on [-2.9937, 2.9911] against its 16-node twin.

    Each block W_p of a panel is compared in units of h^p ||W_0||: the
    moments of u/h in [0, 1], so each p is on the scale of W_0.
    """
    f = trig_forcing(K.n, h)
    legs = trichotomy.solvers._leg_ranges(K.anchors, -2.9937, 2.9911)
    assert len(legs) == 6
    plans = [trichotomy.solvers._leg_plan(fresh(K), f, *leg) for leg in legs]
    with monkeypatch.context() as m:
        use_16_nodes(m)
        refs = [trichotomy.solvers._leg_plan(fresh(K), f, *leg) for leg in legs]
    for plan, ref in zip(plans, refs):
        assert np.array_equal(plan.cell, ref.cell)
        err = np.linalg.norm(plan.W - ref.W, axis=(-2, -1))
        scale = np.linalg.norm(ref.W[:, :1], axis=(-2, -1)) * h ** np.arange(4)
        assert np.max(err / scale) <= rtol


class TestPanelRule:
    """The 8-node panel rule against the 16-node one, whose remainder is ~1e-55 (h|A|)^32."""

    @pytest.mark.parametrize("h", RULE_GRIDS)
    @pytest.mark.parametrize("name", ["rotation", "tanh"])
    def test_plan_moments_match_16_nodes(self, fast_kernels, name, h, monkeypatch):
        # closed-form legs, so both rules integrate the same smooth D^-1
        K = fast_kernels[name]
        assert K.modes is None
        monkeypatch.setattr(K.op, "solve_leg", lambda t0, t1: EXACT_LEGS[name](t0))
        assert_plans_match_16_nodes(K, h, monkeypatch, 1e-13)

    @pytest.mark.parametrize("h", RULE_GRIDS)
    @pytest.mark.parametrize("name", ["rotation_kernel", "trich_kernel"])
    def test_magnus_plan_moments_match_16_nodes(self, request, name, h, monkeypatch):
        # A Magnus leg between its nodes is one partial step from the node
        # below, smooth only within a step, so here the rules see different
        # interpolation errors: up to 1.2e-12, far below the legs' RTOL.
        K = request.getfixturevalue(name)
        assert K.modes is None
        assert_plans_match_16_nodes(K, h, monkeypatch, RTOL / 100)

    @pytest.mark.parametrize("h", RULE_GRIDS)
    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_modal_psi_matches_16_nodes(self, fast_kernels, direction, h, monkeypatch):
        modes = fast_kernels["modal"].modes
        assert modes is not None and np.max(np.abs(modes[1])) == pytest.approx(np.hypot(1, 8))
        f = trig_forcing(3, h)
        # both ends cut a panel, so the cut-panel sums are compared too
        lo, hi = -2.9937, 2.9911
        out = trichotomy.solvers._modal_sweep(modes, f, lo, hi, direction)
        use_16_nodes(monkeypatch)
        ref = trichotomy.solvers._modal_sweep(modes, f, lo, hi, direction)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


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
