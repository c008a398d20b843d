"""Known issues of ROADMAP.md as strict xfails: each test states the right behaviour.

A test here fails today, and its mark names the issue and the ROADMAP
direction that mends it.  The marks are strict, so the change that mends an
issue makes its test pass, the suite report it as XPASS(strict), and that
change removes the mark.  Run with ``-rxX`` to list each mark and its reason.
"""

import numpy as np
import pytest

from trichotomy.hyperbolicity import build_trichotomy
from trichotomy.propagator import CoefficientMatrix, PropagationError, TransitionOperator


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
