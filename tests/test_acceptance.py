"""End-to-end acceptance checks at their stated tolerances.

Each test exercises one contract of the toolkit: kernel algebra, solver
accuracy and bounds, certified negative findings, contraction bookkeeping
and almost-period reporting.
"""

import json
import time

import numpy as np
import pytest
from conftest import green_matrix, problem_path, run_cli

from trichotomy import (
    CoefficientMatrix,
    GreenKernel,
    GridFunction,
    LipschitzSpec,
    build_trichotomy,
    epsilon_continuation,
    picard_solve,
    remote_period_residual,
    solve_linear_bounded,
)
from trichotomy.cli import load_problem

SIN_ROOT = 0.5524799869065703


def test_kernel_jump_identity_across_problems():
    """G(tau+, tau) - G(tau-, tau) = I at random source times, quickly."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for name in ("diag_cos", "trich_tanh", "rotation"):
        spec = load_problem(problem_path(name))
        cert = build_trichotomy(spec.A, 12.0)
        kernel = GreenKernel(cert)
        eye = np.eye(spec.dim)
        for tau in rng.uniform(-11.0, 11.0, 20):
            jump = green_matrix(kernel, tau, tau, side="+") - green_matrix(
                kernel, tau, tau, side="-"
            )
            assert np.linalg.norm(jump - eye, 2) <= 1e-6
    assert time.monotonic() - start < 10.0


def test_linear_solver_matches_closed_form():
    """The saddle + cosine problem is solved to 1e-6 on [-10, 10] in time."""
    start = time.monotonic()
    spec = load_problem(problem_path("diag_cos"))
    cert = build_trichotomy(spec.A, 26.5)
    kernel = GreenKernel(cert)
    f = GridFunction.from_callable(spec.forcing_fn(), -26.0, 26.0, 0.02)
    phi = solve_linear_bounded(kernel, f, tol=1e-6, out_window=(-10.0, 10.0))
    t = phi.times
    exact = np.stack(
        [(np.cos(t) + np.sin(t)) / 2.0, (np.sin(t) - np.cos(t)) / 2.0], axis=-1
    )
    assert np.max(np.abs(phi.values - exact)) <= 1e-6
    assert np.allclose(phi(0.0), [0.5, -0.5], atol=1e-6)
    assert time.monotonic() - start < 5.0


def test_solutions_respect_operator_norm_bound(cli_runs):
    """sup |phi| <= (2N/nu) sup |f| for every bundled linear problem."""
    for name in ("diag_cos", "rotation", "trich_tanh", "atan_forced"):
        run = cli_runs[name]
        assert run["rc"] == 0, name
        report = json.loads((run["out"] / "report.json").read_text())
        assert report["bound_satisfied"] is True, name
        assert report["sup_norm"] <= report["operator_bound"] * (1 + 1e-6), name


def test_every_returned_solution_satisfies_the_equation(cli_runs):
    """A-posteriori residual below 1e-5 on all shipped solve paths."""
    for name in ("diag_cos", "rotation", "trich_tanh", "atan_forced"):
        report = json.loads((cli_runs[name]["out"] / "report.json").read_text())
        assert report["ode_residual_max"] <= 1e-5, name
    semi = json.loads((cli_runs["scalar_sin"]["out"] / "report.json").read_text())
    assert semi["ode_residual"] <= 1e-5


def test_trichotomy_projectors_recovered_on_wide_window():
    """The tanh system splits into its three known classes at T = 30."""
    A = CoefficientMatrix.from_strings(
        [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "-tanh(t)"]]
    )
    cert = build_trichotomy(A, 30.0)
    assert cert.ok
    assert np.max(np.abs(cert.P - np.diag([1.0, 0.0, 1.0]))) <= 1e-4
    assert np.max(np.abs(cert.Q - np.diag([0.0, 1.0, 1.0]))) <= 1e-4
    assert max(cert.identity_residuals().values()) <= 1e-9


@pytest.mark.parametrize("n", [8, 16, 32])
def test_heat_discretisation_matches_semi_discrete_closed_form(tmp_path, n):
    """u_t = u_xx + 2.5u + sin(x) cos t, Dirichlet on (0, pi), n interior points.

    sin(x_j) is an exact eigenvector of the second-difference matrix, with
    eigenvalue lam = 2.5 - (4/h^2) sin^2(h/2), so the bounded solution is
    Re(e^{it} / (i - lam)) sin(x_j).
    """
    h = np.pi / (n + 1)
    x = h * np.arange(1, n + 1)
    diag, off = repr(2.5 - 2.0 / h**2), repr(1.0 / h**2)
    A = [[diag if i == j else off if abs(i - j) == 1 else "0" for j in range(n)] for i in range(n)]
    f = [f"{float(np.sin(xj))!r}*cos(t)" for xj in x]
    prob = tmp_path / "heat.json"
    prob.write_text(json.dumps({"dim": n, "A": A, "f": f, "window": 10.0}))
    out = tmp_path / "out"
    assert run_cli(["solve-linear", prob, "--out", out]) == 0
    data = np.loadtxt(out / "sol.csv", delimiter=",", skiprows=1)
    lam = 2.5 - 4.0 / h**2 * np.sin(h / 2.0) ** 2
    exact = np.outer((np.exp(1j * data[:, 0]) / (1j - lam)).real, np.sin(x))
    assert np.max(np.abs(data[:, 1:] - exact)) <= 1e-6


def test_incompatible_half_lines_certified_negative(tmp_path):
    """arctan coefficient: both halves hyperbolic, projectors cannot mesh."""
    out = tmp_path / "out"
    rc = run_cli(["check-trichotomy", problem_path("arctan"), "--out", out])
    assert rc == 2
    data = json.loads((out / "trichotomy.json").read_text())
    assert data["ok"] is False
    assert abs(data["P_plus"][0][0]) <= 1e-6
    assert abs(data["P_minus"][0][0] - 1.0) <= 1e-6
    assert data["compatibility_residual"] == pytest.approx(1.0, abs=1e-6)


def test_contraction_iteration_and_fixed_point(scalar_kernel, scalar_forcing):
    """Picard data: ratios, fixed point, deviation, guess independence."""
    Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
    phi, report = picard_solve(scalar_kernel, scalar_forcing, Fspec)
    assert report.alpha == pytest.approx(0.2)
    assert report.r_bound == pytest.approx(0.25)
    assert all(r <= 0.25 for r in report.ratios)
    assert np.max(np.abs(phi.values - SIN_ROOT)) <= 1e-5
    assert report.measured_deviation == pytest.approx(0.0525, abs=1e-3)
    assert report.measured_deviation <= report.r_bound
    guess = GridFunction(
        scalar_forcing.a,
        scalar_forcing.b,
        np.full((scalar_forcing.values.shape[0], 1), -1.0),
    )
    phi2, _ = picard_solve(scalar_kernel, scalar_forcing, Fspec, initial=guess)
    assert np.max(np.abs(phi.values - phi2.values)) <= 1e-6


def test_deviation_shrinks_with_the_nonlinearity(scalar_kernel, scalar_forcing):
    """eps-continuation: monotone deviations inside the a-priori bounds."""
    Fspec = LipschitzSpec(["0.1*sin(x1)"], L=0.1)
    eps = [0.4, 0.2, 0.1, 0.05]
    results = epsilon_continuation(scalar_kernel, scalar_forcing, Fspec, eps)
    devs = [dev for _, _, dev in results]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    for (e, _, dev) in results:
        bound = 0.2 * e / (1.0 - 0.2 * e)  # 4 e N^2 L |f| / (nu (nu - 2 N L e))
        assert dev <= bound * (1 + 1e-3)


def test_remote_period_reports(tmp_path):
    """Shift residuals on known tails, and the data/solution audit."""
    sine = GridFunction.from_callable(np.sin, -50.0, 50.0, 0.01)
    assert remote_period_residual(sine, 2.0 * np.pi, 10.0) <= 1e-9

    arct = GridFunction.from_callable(np.arctan, -50.0, 50.0, 0.01)
    assert remote_period_residual(arct, 1.0, 10.0) == pytest.approx(
        0.01099, abs=1e-4
    )

    out = tmp_path / "audit"
    rc = run_cli(["audit", problem_path("atan_forced"), "--out", out])
    assert rc == 0
    audit = json.loads((out / "audit.json").read_text())
    scanned = [0.5 * k for k in range(1, 17)]
    for eps_key, entry in audit["per_eps"].items():
        assert entry["solution_accepted"] == scanned, eps_key
        assert entry["missing"] == []
        assert entry["compatible_evidence"] is True
