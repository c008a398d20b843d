"""Known issues of ROADMAP.md as strict xfails: each test states the right behaviour.

A test here fails today, and its mark names the issue and the ROADMAP
direction that mends it.  The marks are strict, so the change that mends an
issue makes its test pass, the suite report it as XPASS(strict), and that
change removes the mark.  Run with ``-rxX`` to list each mark and its reason.
"""

import numpy as np
import pytest

from trichotomy.cli import Flags, _cmd_solve_linear, load_problem
from trichotomy.hyperbolicity import TrichotomyIncompatibility, build_trichotomy
from trichotomy.propagator import CoefficientMatrix, PropagationError, TransitionOperator
from trichotomy.solvers import AccuracyError


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
    "today linear solve residual 1.16e-05 exceeds 10*tol = 1e-05, while the plan "
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
    "today linear solve residual 6.65e-05 exceeds 10*tol = 1e-05 (direction 15)"))
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
