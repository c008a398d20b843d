"""Shared fixtures: coefficient matrices, certified kernels, CLI artifact runs.

Kernel construction dominates test runtime, so everything reusable is
session-scoped.  Tests that assert runtime budgets build their own objects
and time them locally.
"""

import functools

import numpy as np
import pytest

from trichotomy import (
    CoefficientMatrix,
    GreenKernel,
    GridFunction,
    build_trichotomy,
)
from trichotomy.cli import bundled_problem_path, main as cli_main
from trichotomy.expr import Bin, Call, Const, Neg, Num, Var
from trichotomy.hyperbolicity import WindowTooSmall
from trichotomy.propagator import ATOL, RTOL


def problem_path(name: str) -> str:
    return str(bundled_problem_path(name))


def rk45_leg(A, t0, t1):
    """Reference leg of Y' = A(t) Y, Y(t0) = I: scipy's RK45 (Dormand-Prince)
    with dense output at the propagator's ``RTOL``/``ATOL``, A read entry by
    entry through ``CoefficientMatrix.value``."""
    from scipy.integrate import solve_ivp

    n = A.n
    sol = solve_ivp(lambda t, y: (A.value(t) @ y.reshape(n, n)).reshape(-1), (t0, t1),
                    np.eye(n).reshape(-1), method="RK45", rtol=RTOL, atol=ATOL,
                    dense_output=True)
    assert sol.success, sol.message
    return sol.sol


# precedence levels used by the printer; mirrors the grammar
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(e) -> int:
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Num) and e.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(e) -> str:
    """Print ``e`` with minimal parentheses; ``parse(to_source(e))`` rebuilds
    a tree evaluating identically."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, (Const, Var)):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        # unary minus binds looser than ^, tighter than * /
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        lp, rp = _prec(e.left), _prec(e.right)
        op_prec = _PREC[e.op]
        left = to_source(e.left)
        right = to_source(e.right)
        if e.op == "^":
            # right-associative and binds tighter than unary minus: the base
            # must be a plain atom, the exponent may start with unary minus
            if lp <= op_prec:
                left = f"({left})"
            if rp < _PREC["neg"]:
                right = f"({right})"
        else:
            if lp < op_prec:
                left = f"({left})"
            # -, / are left-associative: equal precedence on the right needs parens
            if rp < op_prec or (rp == op_prec and e.op in ("-", "/", "+", "*")):
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e, name: str, replacement):
    """Replace every occurrence of variable ``name`` by ``replacement``."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, (Num, Const)):
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, name, replacement))
    if isinstance(e, Call):
        return Call(e.fn, substitute(e.arg, name, replacement))
    if isinstance(e, Bin):
        return Bin(e.op, substitute(e.left, name, replacement),
                   substitute(e.right, name, replacement))
    raise TypeError(f"not an expression node: {e!r}")


def shifted_coefficient(A, h):
    """Coefficient matrix of the time-shifted equation, entries A(t + h)."""
    shift = Bin("+", Var("t"), Num(float(h)))
    return CoefficientMatrix([[substitute(e, "t", shift) for e in row] for row in A.entries])


def transition_matrix(op, t0, t1):
    """Phi(t1, t0) of the operator ``op``: its leg (t0, t1) read at t1, I when t0 == t1."""
    n = op.A.n
    if t0 == t1:
        return np.eye(n)
    return op.solve_leg(t0, t1)(t1).reshape(n, n)


def stable_projector(kernel, s):
    """The projector of a swept ``kernel`` whose image decays forward at time s.

    At an anchor it is that anchor's sample (``kernel.projectors``); between
    anchors a_i < s < a_i+1 it is P(s) = D P_i D^-1 with D = Phi(s, a_i),
    solved as P(s) D = D P_i.
    """
    anchors, n = kernel.anchors, kernel.n
    near = np.flatnonzero(np.abs(anchors - s) < 1e-12)
    if near.size:
        return kernel.projectors[near[0]]
    if s < anchors[0] - 1e-9 or s > anchors[-1] + 1e-9:
        raise WindowTooSmall("projector family does not cover t", abs(s))
    i = min(max(int(np.searchsorted(anchors, s)) - 1, 0), len(anchors) - 2)
    D = kernel.op.solve_leg(anchors[i], anchors[i + 1])(s).reshape(n, n)
    return np.linalg.solve(D.T, (D @ kernel.projectors[i]).T).T


def unstable_projector(kernel, s):
    """The projector of a swept ``kernel`` whose image decays backward at time s."""
    return np.eye(kernel.n) - stable_projector(kernel, s)


def _transport(kernel, Z, tau, t, proj_at):
    """Carry Z from tau to t leg by leg, re-projecting at anchors.

    ``proj_at`` maps an anchor time to the projector that is an exact
    identity on the transported content; it strips the error component
    that grows in the direction of travel.
    """
    anchors, n = kernel.anchors, kernel.n
    if t == tau:
        return Z
    if t > tau:
        inner = anchors[(anchors > tau + 1e-12) & (anchors < t - 1e-12)]
        stops = list(inner) + [t]
    else:
        inner = anchors[(anchors < tau - 1e-12) & (anchors > t + 1e-12)]
        stops = list(inner[::-1]) + [t]
    cur = tau
    for stop in stops:
        lo, hi = (cur, stop) if stop >= cur else (stop, cur)
        i = int(np.searchsorted(anchors, lo + 1e-12)) - 1
        i = min(max(i, 0), len(anchors) - 2)
        if hi > anchors[i + 1] + 1e-9:
            i += 1
        sol = kernel.op.solve_leg(anchors[i], anchors[i + 1])
        Z = sol(stop).reshape(n, n) @ np.linalg.solve(sol(cur).reshape(n, n), Z)
        if stop != t:
            Z = proj_at(stop) @ Z
        cur = stop
    return Z


def green_matrix(kernel, t, tau, side=None):
    """Green matrix G(t, tau) of ``kernel``; ``side`` picks the branch when t == tau.

    ``side='+'`` gives the limit from t > tau, ``side='-'`` from t < tau;
    their difference at t == tau is the identity (the kernel's jump).  A
    kernel with ``modes`` (V, lam, V^-1, stable) is evaluated in closed form,
    V_s e^{lam_s (t - tau)} V^-1_s forward and -V_u e^{lam_u (t - tau)} V^-1_u
    backward; any other by leg transport through its projector families.
    """
    t, tau = float(t), float(tau)
    lo, hi = kernel.window
    for x in (t, tau):
        if x < lo - 1e-9 or x > hi + 1e-9:
            raise WindowTooSmall(
                f"time {x:.6g} outside certified window [{lo:.6g}, {hi:.6g}]", abs(x)
            )
    if t == tau and side is None:
        raise ValueError("G(t, t) is two-valued; pass side='+' or side='-'")
    up = t > tau or (t == tau and side == "+")
    if kernel.modes is not None:
        V, lam, V_inv, stable = kernel.modes
        keep = stable if up else ~stable
        G = ((V[:, keep] * np.exp(lam[keep] * (t - tau))) @ V_inv[keep]).real
        return G if up else -G
    at = functools.partial(stable_projector if up else unstable_projector, kernel)
    return _transport(kernel, at(tau) if up else -at(tau), tau, t, at)


@pytest.fixture(scope="session")
def saddle_A():
    return CoefficientMatrix.from_strings([["-1", "0"], ["0", "1"]])


@pytest.fixture(scope="session")
def trich_A():
    return CoefficientMatrix.from_strings(
        [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "-tanh(t)"]]
    )


@pytest.fixture(scope="session")
def rotation_A():
    return CoefficientMatrix.from_strings(
        [["-cos(0.6*t)", "-sin(0.6*t) - 0.3"], ["-sin(0.6*t) + 0.3", "cos(0.6*t)"]]
    )


@pytest.fixture(scope="session")
def rotor_A():
    return CoefficientMatrix.from_strings([["0", "1"], ["-1", "0"]])


@pytest.fixture(scope="session")
def saddle_kernel(saddle_A):
    """Kernel on a window wide enough to solve out to [-10, 10] at 1e-6."""
    cert = build_trichotomy(saddle_A, 28.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def trich_kernel(trich_A):
    cert = build_trichotomy(trich_A, 14.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def rotation_kernel(rotation_A):
    cert = build_trichotomy(rotation_A, 14.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def scalar_kernel():
    """A = -1 with the exact certificate P=1, Q=0, N=1, nu=1."""
    A = CoefficientMatrix.from_strings([["-1"]])
    cert = build_trichotomy(A, 36.0, P=[[1.0]], Q=[[0.0]], N=1.0, nu=1.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def scalar_forcing(scalar_kernel):
    W = 35.0
    return GridFunction.from_callable(
        lambda t: np.full(np.shape(t) + (1,), 0.5), -W, W, 0.02
    )


@pytest.fixture(scope="session")
def saddle_cos_forcing(saddle_kernel):
    W = 26.7
    return GridFunction.from_callable(
        lambda t: np.stack([np.cos(t), np.cos(t)], axis=-1), -W, W, 0.02
    )


def run_cli(args) -> int:
    return cli_main([str(a) for a in args])


def read_solution_csv(path) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    t = data[:, 0]
    return GridFunction(float(t[0]), float(t[-1]), data[:, 1:])


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """One CLI solve per bundled linear problem plus the semilinear one."""
    root = tmp_path_factory.mktemp("cli_runs")
    runs = {}
    for name in ("diag_cos", "rotation", "trich_tanh", "atan_forced"):
        out = root / name
        rc = run_cli(["solve-linear", problem_path(name), "--out", out])
        runs[name] = {"rc": rc, "out": out}
    out = root / "scalar_sin"
    rc = run_cli(["solve-semilinear", problem_path("scalar_sin"), "--out", out])
    runs["scalar_sin"] = {"rc": rc, "out": out}
    return runs
