"""Known issues of ROADMAP.md as strict xfails: each test states the right behaviour.

A test here fails today, and its mark names the issue and the ROADMAP
direction that mends it.  The marks are strict, so the change that mends an
issue makes its test pass, the suite report it as XPASS(strict), and that
change removes the mark.  Run with ``-rxX`` to list each mark and its reason.
"""

import dataclasses
import json

import numpy as np
import pytest
from conftest import problem_path, read_solution_csv

from trichotomy.cli import (
    _COMMANDS,
    Flags,
    _cmd_audit,
    _cmd_check_trichotomy,
    _cmd_solve_linear,
    _cmd_solve_semilinear,
    load_problem,
)
from trichotomy.hyperbolicity import (
    HyperbolicityError,
    NonHyperbolicError,
    TrichotomyIncompatibility,
    build_trichotomy,
)
from trichotomy.propagator import CoefficientMatrix, PropagationError, TransitionOperator
from trichotomy.solvers import AccuracyError, SolverError


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known issue: a swept N can sit below the true sup between anchors; "
    "today N = 21.8191 (direction 20)"))
def test_swept_n_bounds_the_sup_between_anchors():
    """x1' = (-1 + 4 e^(-t^2)) x1, x2' = x2 on [-10, 10].

    |Phi(t, tau) P| e^(nu (t - tau)) = exp((nu - 1)(t - tau) + 2 sqrt(pi)(erf t - erf tau))
    has its sup over the certified nu = 0.777231 at tau = 0, t = 1.6994: 22.3928.
    """
    A = CoefficientMatrix.from_strings([["-1 + 4*exp(-t^2)", "0"], ["0", "1"]])
    assert build_trichotomy(A, 10.0).N >= 22.3928


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known issue: Magnus legs lose relative accuracy between their nodes at fast "
    "decay; today the error is about 2e-2 (direction 21)"))
def test_fast_decaying_leg_is_relatively_accurate_between_its_nodes():
    """The leg of x' = (-30 + sin t) x on [0, 1] is exp(-30 s - (cos s - 1))."""
    op = TransitionOperator(CoefficientMatrix.from_strings([["-30 + sin(t)"]]))
    leg = op.solve_leg(0.0, 1.0)
    s = np.random.default_rng(0).uniform(0.0, 1.0, 64)
    assert not np.isin(s, leg.ts).any()
    exact = np.exp(-30.0 * s - (np.cos(s) - 1.0))
    assert np.max(np.abs(leg(s)[0] / exact - 1.0)) <= 1e-8


@pytest.mark.xfail(strict=True, raises=PropagationError, reason=(
    "known issue: Magnus legs refuse fast growth; today PropagationError at "
    "degree 4096 (direction 21)"))
def test_fast_growing_leg_resolves():
    """The leg of x' = (25 + sin t) x on [0, 1] is exp(25 s - (cos s - 1))."""
    op = TransitionOperator(CoefficientMatrix.from_strings([["25 + sin(t)"]]))
    leg = op.solve_leg(0.0, 1.0)
    s = np.linspace(0.0, 1.0, 65)
    exact = np.exp(25.0 * s - (np.cos(s) - 1.0))
    assert np.max(np.abs(leg(s)[0] / exact - 1.0)) <= 1e-8


@pytest.mark.xfail(strict=True, raises=AccuracyError, reason=(
    "known issue: the plan path's residual gate refuses the +-14, cond(V) = 2e3 saddle; "
    "today linear solve residual 1.17e-05 exceeds 10*tol = 1e-05, while the plan "
    "solution is within 2.4e-9 of the modal one's sup (directions 15 and 22)"))
def test_plan_path_solves_the_ill_conditioned_saddle(tmp_path):
    """A = V diag(-14, 14) V^-1 with V = [[1, 1], [0, 1e-3]], written with ``+ 0*t``.

    Its spectral certificate is P = V diag(1, 0) V^-1, N = 1.0001 ||P||_2,
    nu = 13; the same A without ``+ 0*t`` takes the modal path and passes
    with residual 4.32e-6.
    """
    V = np.array([[1.0, 1.0], [0.0, 1e-3]])
    V_inv = np.linalg.inv(V)
    A = V @ np.diag([-14.0, 14.0]) @ V_inv
    P = V @ np.diag([1.0, 0.0]) @ V_inv
    spec = load_problem({
        "dim": 2,
        "A": [[f"{x:.17g} + 0*t" for x in row] for row in A],
        "f": ["cos(t)", "sin(t)"],
        "window": 6.0,
        "certificate": {"P": P.tolist(), "N": 1.0001 * float(np.linalg.norm(P, 2)), "nu": 13.0},
    })
    assert _cmd_solve_linear(spec, Flags(out=str(tmp_path))) == 0


@pytest.mark.xfail(strict=True, raises=AccuracyError, reason=(
    "known issue: the residual gate refuses a correct fast-oscillating solution; "
    "today linear solve residual 0.000109 (at t = 17.06 of its window [-17.08, 17.08]; "
    "6.65e-05 within [-10, 10]) exceeds 10*tol = 1e-05 (direction 15)"))
def test_fast_rotating_saddle_solves(tmp_path):
    """R(6t) diag(-2, 2) R(6t)^T + 6J, f = (cos t, 0), window 10; its check-dichotomy certifies."""
    c, s = "cos(6*t)", "sin(6*t)"
    spec = load_problem({
        "dim": 2,
        "A": [[f"-2*{c}^2 + 2*{s}^2", f"-4*{c}*{s} - 6"],
              [f"-4*{c}*{s} + 6", f"-2*{s}^2 + 2*{c}^2"]],
        "f": ["cos(t)", "0"],
        "window": 10.0,
    })
    assert _cmd_solve_linear(spec, Flags(out=str(tmp_path))) == 0


@pytest.mark.xfail(strict=True, raises=TrichotomyIncompatibility, reason=(
    "known issue: false certified negative on a rotating non-normal saddle; today "
    "compatibility residual ||P+ P- - P-|| = 0.970143 exceeds COMPAT_TOL (directions 14 and 3)"))
def test_rotating_non_normal_saddle_certifies():
    """A(t) = R(0.3t) B R(0.3t)^T + 0.3J with B = [[-1, 8], [0, 1]] on [-12, 12].

    The monodromy projector P(0) = [[1, -4], [0, 0]] certifies it with
    N = sqrt(17) and nu = 0.95.
    """
    c, s = "cos(0.3*t)", "sin(0.3*t)"
    A = CoefficientMatrix.from_strings([
        [f"-{c}^2 - 8*{c}*{s} + {s}^2", f"8*{c}^2 - 2*{c}*{s} - 0.3"],
        [f"-8*{s}^2 - 2*{c}*{s} + 0.3", f"-{s}^2 + 8*{c}*{s} + {c}^2"],
    ])
    build_trichotomy(A, 12.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known issue: Lipschitz constants are sampled lower bounds; today alpha = 0.26 "
    "while |F'| reaches about 0.78 on the ball (direction 2)"))
def test_contraction_ratio_bounds_the_slope_on_its_ball(tmp_path):
    """x' = -x + 3 + 0.01 x^3 with declared L = 0.13, window 12.

    The linear solution is 3, so the printed ball |x - 3| <= r holds |x| <=
    3 + r, where |F'| = 0.03 x^2 reaches 0.03 (3 + r)^2.  A contraction
    ratio must be at least 2 N sup|F'| / nu there, unless the run refuses.
    """
    spec = load_problem({"dim": 1, "A": [["-1"]], "f": ["3"], "F": ["0.01*x1^3"],
                         "L": 0.13, "window": 12.0})
    try:
        rc = _cmd_solve_semilinear(spec, Flags(out=str(tmp_path)))
    except (SolverError, ValueError):
        return  # a refusal
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    cert = json.loads((tmp_path / "trichotomy.json").read_text())
    slope = 0.03 * (3.0 + report["r_bound"]) ** 2
    assert report["alpha"] >= 2.0 * cert["N"] * slope / cert["nu"]


@pytest.mark.xfail(strict=True, raises=NonHyperbolicError, reason=(
    "known issue: false certified negative on a rotating saddle with a wide ladder; "
    "today fitted decay rate -0.2 is not positive (direction 3)"))
def test_wide_ladder_rotating_saddle_certifies():
    """R(t) diag(-0.2, 5) R(t)^T + J on [-10, 10]: a dichotomy with N = 1 and rate 0.2."""
    c, s = "cos(t)", "sin(t)"
    A = CoefficientMatrix.from_strings([
        [f"-0.2*{c}^2 + 5*{s}^2", f"-5.2*{c}*{s} - 1"],
        [f"-5.2*{c}*{s} + 1", f"-0.2*{s}^2 + 5*{c}^2"],
    ])
    build_trichotomy(A, 10.0)


@pytest.mark.xfail(strict=True, raises=AccuracyError, reason=(
    "known issue: tolerances are not scale-equivariant; today linear solve residual "
    "0.000226 exceeds 10*tol = 1e-05 (direction 15)"))
def test_scaled_forcing_scales_the_solution(tmp_path):
    """diag_cos with f = 1e4 (cos t, cos t): its solution is 1e4 times diag_cos's."""
    for name in ("one", "big"):
        (tmp_path / name).mkdir()
    spec = load_problem(problem_path("diag_cos"))
    assert _cmd_solve_linear(spec, Flags(out=str(tmp_path / "one"))) == 0
    scaled = load_problem({"dim": 2, "A": [["-1", "0"], ["0", "1"]],
                           "f": ["1e4*cos(t)", "1e4*cos(t)"], "window": 10.0, "tol": 1e-6})
    assert _cmd_solve_linear(scaled, Flags(out=str(tmp_path / "big"))) == 0
    one, big = (read_solution_csv(tmp_path / name / "sol.csv") for name in ("one", "big"))
    assert (one.a, one.b) == (big.a, big.b)
    assert np.max(np.abs(big.values - 1e4 * one.values)) <= 1e-9 * np.max(np.abs(big.values))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known issue: audit reports INCOMPATIBLE EVIDENCE where the theorem guarantees "
    "inheritance; today 3 and 1 shifts are missing (direction 7)"))
def test_audit_finds_the_inherited_periods(tmp_path):
    """x' = -0.5x + cos(0.5t), window 40, eps 0.05 and 0.02, tau in [12.2, 12.9] at step 0.02."""
    spec = load_problem({"dim": 1, "A": [["-0.5"]], "f": ["cos(0.5*t)"], "window": 40.0})
    flags = Flags(out=str(tmp_path), eps=[0.05, 0.02], tau_range=(12.2, 12.9, 0.02))
    assert _cmd_audit(spec, flags) == 0
    report = json.loads((tmp_path / "audit.json").read_text())
    assert all(entry["compatible_evidence"] for entry in report["per_eps"].values())


@pytest.mark.xfail(strict=True, raises=NonHyperbolicError, reason=(
    "known issue: false certified negative on rotation with a long window; today "
    "fitted decay rate -1 is not positive (directions 25 and 28)"))
@pytest.mark.parametrize("command", ["check-trichotomy", "check-dichotomy", "solve-linear"])
def test_rotation_with_window_40_certifies(tmp_path, command):
    """``rotation --window 40``: the rates stay 1 in a frame rotating at 0.3, so N = 1, nu = 0.95."""
    spec = dataclasses.replace(load_problem(problem_path("rotation")), window=40.0)
    assert _COMMANDS[command](spec, Flags(out=str(tmp_path))) == 0
    if command == "check-trichotomy":
        cert = json.loads((tmp_path / "trichotomy.json").read_text())
        assert cert["N"] == pytest.approx(1.0, rel=1e-6)
        assert cert["nu"] == pytest.approx(0.95, rel=1e-6)


@pytest.mark.xfail(strict=True, raises=NonHyperbolicError, reason=(
    "known issue: false certified negative on rotation with a long window; today "
    "fitted decay rate -1 is not positive (direction 25)"))
def test_rotation_with_window_200_certifies():
    """The small singular value of the product over (0, 200) is rounding."""
    build_trichotomy(load_problem(problem_path("rotation")).A, 200.0)


@pytest.mark.xfail(strict=True, raises=HyperbolicityError, reason=(
    "known issue: fast or long diagonal saddles underflow the estimate's small "
    "singular value; today P+ = P- = 0, and the unstable chain norm that is not "
    "finite is refused, exit 1 (direction 25; a = 60 needs its step 2)"))
@pytest.mark.parametrize("a, window", [(12, 64.0), (2, 400.0), (60, 12.0)])
def test_fast_or_long_diagonal_saddle_certifies(tmp_path, a, window):
    """diag(-a + sin t, a + cos t) with f = (cos t, sin t): a dichotomy with P = diag(1, 0)."""
    spec = load_problem({"dim": 2, "A": [[f"-{a} + sin(t)", "0"], ["0", f"{a} + cos(t)"]],
                         "f": ["cos(t)", "sin(t)"], "window": window})
    assert _cmd_check_trichotomy(spec, Flags(out=str(tmp_path))) == 0


@pytest.mark.xfail(strict=True, raises=TrichotomyIncompatibility, reason=(
    "known issue: false certified negative on a constant non-normal saddle on the "
    "swept path; today compatibility residual ||P+ P- - P-|| = 1 exceeds COMPAT_TOL "
    "(directions 28, 14 and 3)"))
def test_constant_non_normal_saddle_with_zero_t_certifies(tmp_path):
    """A = [[-14 + 0*t, 28000], [0, 14]] = V diag(-14, 14) V^-1, V = [[1, 1], [0, 1e-3]], window 12.

    Written with ``+ 0*t`` it takes the swept path; its spectral projector is
    P = V diag(1, 0) V^-1 = [[1, -1000], [0, 0]].
    """
    spec = load_problem({"dim": 2, "A": [["-14 + 0*t", "28000"], ["0", "14"]],
                         "f": ["cos(t)", "sin(t)"], "window": 12.0})
    assert _cmd_check_trichotomy(spec, Flags(out=str(tmp_path))) == 0
    P = np.asarray(json.loads((tmp_path / "trichotomy.json").read_text())["P"])
    exact = np.array([[1.0, -1000.0], [0.0, 0.0]])
    assert np.linalg.norm(P - exact) <= 1e-6 * np.linalg.norm(exact)
