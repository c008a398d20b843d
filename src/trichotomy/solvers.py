"""Bounded solutions of linear and semilinear nonautonomous systems.

The bounded solution of x' = A(t)x + f(t) under a certified dichotomy or
trichotomy is the Green-kernel integral phi(t) = int G(t, tau) f(tau) dtau.
It is computed here by two exponential-weight sweeps (one per decay
direction) with composite Gauss-Legendre panels, in the local coordinates of
the cached unit propagation legs, so no quantity is ever propagated in its
growing direction.  What the quadrature needs of a leg besides the forcing
(node times, inverse leg values, projectors, grid indices) is built once per
kernel, leg clip and grid, and reused by every later solve on that kernel:
both sweeps, each Picard iterate and each eps of a continuation.  The
semilinear equation x' = A(t)x + f(t) + F(t, x) is solved by Picard
iteration around the linear solution, which contracts at rate
alpha = 2*N*L/nu when the Lipschitz constant L of F is below nu/(2*N).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from .expr import eval_expr, free_vars, parse
from .grid import GridFunction
from .hyperbolicity import GreenKernel, WindowTooSmall

__all__ = [
    "SolverError",
    "ContractionError",
    "AccuracyError",
    "LipschitzSpec",
    "PicardReport",
    "C1ProbeReport",
    "solve_linear_bounded",
    "picard_solve",
    "epsilon_continuation",
    "example_c1_probe",
    "ode_residual",
]

_GL_NODES, _GL_WEIGHTS = leggauss(16)

# Lipschitz sampling: 21 times on [-10, 10], point pairs in the cube of
# half-width 2 around the origin
_SAMPLE_TIMES = np.linspace(-10.0, 10.0, 21)
_SAMPLE_RADIUS = 2.0

_MAX_PICARD_ITER = 60


class SolverError(Exception):
    """Base class for solver failures."""


class ContractionError(SolverError):
    """The declared Lipschitz constant breaks the contraction condition."""


class AccuracyError(SolverError):
    """A computed solution failed its a-posteriori residual check."""


def _tail_horizon(N: float, nu: float, fnorm: float, tol: float) -> float:
    """Truncation horizon with analytic tail (N/nu) e^{-nu*T} ||f|| <= tol/2."""
    if fnorm <= 0.0:
        return 1.0
    return max(1.0, math.log(max(1.0, 2.0 * N * fnorm / (nu * tol))) / nu)


def _contraction_ratio(N: float, nu: float, L: float, label: str) -> float:
    """Contraction ratio alpha = 2 N L / nu of the Picard map; alpha >= 1 is refused."""
    alpha = 2.0 * N * L / nu
    if alpha >= 1.0:
        raise ContractionError(
            f"contraction requires L < nu/(2N) = {nu / (2 * N):.6g}; "
            f"{label} = {L:.6g} gives alpha = {alpha:.6g} >= 1"
        )
    return alpha


def _deviation_bound(N: float, nu: float, L: float, fnorm: float) -> float:
    """Bound 4 N^2 L ||f|| / (nu (nu - 2 N L)) on the Picard deviation |phi - phi_0|."""
    return 4.0 * N * N * L * fnorm / (nu * (nu - 2.0 * N * L))


def _snap_index(x: float, a: float, h: float, up: bool) -> int:
    """Index k of the grid point a + k*h at or above (``up``) or below x."""
    k = (x - a) / h
    return math.ceil(k - 1e-9) if up else math.floor(k + 1e-9)


def _snap(x: float, a: float, h: float, up: bool) -> float:
    return a + _snap_index(x, a, h, up) * h


def _picard_window(phi0: GridFunction, Tc: float):
    """Picard output window: phi0's window shrunk by 2*Tc, snapped to its grid."""
    lo = _snap(phi0.a + 2.0 * Tc, phi0.a, phi0.h, up=True)
    hi = _snap(phi0.b - 2.0 * Tc, phi0.a, phi0.h, up=False)
    return lo, hi


def ode_residual(A, phi: GridFunction, f=None, F=None) -> np.ndarray:
    """Max-norm residual |phi' - A phi - f - F(., phi)| at each grid point.

    The derivative is the grid's fourth-order finite difference; ``f`` is a
    GridFunction on the same grid or None; ``F`` maps (t, x) -> vector.
    """
    d = phi.derivative_grid()
    times = phi.times
    vals = phi.values
    res = d.copy()
    for i, t in enumerate(times):
        res[i] -= A.value(t) @ vals[i]
    if f is not None:
        res -= f.values if isinstance(f, GridFunction) else f
    if F is not None:
        for i, t in enumerate(times):
            res[i] -= F(t, vals[i])
    return np.linalg.norm(res, axis=1)


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


@dataclass
class _LegPlan:
    """What the Green quadrature on one clipped leg needs besides the forcing.

    ``nodes`` are the Gauss-Legendre node times of the panels between grid
    points; ``weighted_inv`` holds weight * D(node)^{-1} per node, shape
    (panels, 16, n, n), with D the leg solution; ``D_pts`` is D at the panel
    points.  ``proj`` maps each sweep direction to its (panel, crossing)
    projectors, and the panel points ``rows`` are the grid points ``idx``.
    """

    nodes: np.ndarray
    weighted_inv: np.ndarray
    D_pts: np.ndarray
    proj: dict
    rows: np.ndarray
    idx: np.ndarray


def _leg_plan(kernel: GreenKernel, f: GridFunction, a0, a1, s0, s1) -> _LegPlan:
    """The kernel's plan of leg (a0, a1) clipped to (s0, s1) on f's grid."""
    key = (a0, a1, s0, s1, f.a, f.h)
    plan = kernel.plans.get(key)
    if plan is not None:
        return plan
    n = kernel.n
    sol = kernel.op.solve_leg(a0, a1)
    pts = _panel_points(s0, s1, f.a, f.h)
    widths = np.diff(pts)
    nodes = (pts[:-1, None] + np.outer(widths, (_GL_NODES + 1.0) / 2.0)).ravel()
    wts = np.outer(widths, _GL_WEIGHTS / 2.0).ravel()
    # one dense-output call for nodes and panel points: the leg's per-step
    # interpolants are visited once
    D = sol(np.concatenate([nodes, pts])).T.reshape(-1, n, n)
    D_inv = np.linalg.inv(D[: nodes.size])
    k = np.rint((pts - f.a) / f.h)
    rows = np.flatnonzero(np.abs(f.a + k * f.h - pts) < 1e-9)
    U0 = kernel.unstable_projector(a0)
    plan = kernel.plans[key] = _LegPlan(
        nodes=nodes,
        weighted_inv=(wts[:, None, None] * D_inv).reshape(len(widths), 16, n, n),
        D_pts=D[nodes.size :].copy(),  # a copy, so the node values are freed
        proj={
            "up": (kernel.stable_projector(a0), kernel.stable_projector(a1)),
            "down": (U0, U0),
        },
        rows=rows,
        idx=k[rows].astype(int),
    )
    return plan


def _sweep(kernel: GreenKernel, f: GridFunction, lo, hi, direction):
    """One decay-direction half of the Green integral on [lo, hi].

    ``direction='up'`` accumulates int_lo^t Phi(t,tau) Pi_s(tau) f(tau) dtau
    for t increasing; ``direction='down'`` accumulates
    int_t^hi Phi(t,tau) Pi_u(tau) f(tau) dtau for t decreasing.  Working in
    the local coordinates of each unit leg turns the projected integrand
    into a constant projector times a backward-solved forcing sample, and
    the running value is re-projected at every anchor crossing.  Returns
    the values on f's whole grid, zero at the grid points outside [lo, hi].
    """
    legs = _leg_ranges(kernel.anchors, lo, hi)
    out = np.zeros_like(f.values)
    Y = np.zeros(kernel.n)
    for a0, a1, s0, s1 in legs if direction == "up" else legs[::-1]:
        plan = _leg_plan(kernel, f, a0, a1, s0, s1)
        P_panel, P_cross = plan.proj[direction]
        f_nodes = f(plan.nodes).reshape(plan.weighted_inv.shape[:3])
        panel = np.einsum("kjab,kjb->ka", plan.weighted_inv, f_nodes) @ P_panel.T
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


def solve_linear_bounded(
    K: GreenKernel,
    f: GridFunction,
    tol: float = 1e-6,
    out_window=None,
    clamp_edges: bool = False,
    check_residual: bool = True,
) -> GridFunction:
    """Bounded solution phi(t) = int G(t, tau) f(tau) dtau on a grid.

    The integral is truncated at the analytic tail horizon T_cut where
    (N/nu) exp(-nu T_cut) ||f||_b <= tol/2 per side, and evaluated by
    16-point Gauss-Legendre panels between grid points.  The output window
    defaults to the forcing window shrunk by T_cut on each truncated side;
    ``clamp_edges=True`` instead keeps the full forcing window and lets the
    truncation degrade toward the edges (used by the Picard iteration, whose
    restriction step absorbs the edge error).  A fourth-order residual check
    |phi' - A phi - f| <= 10*tol guards the result, and when the output
    window contains 0 the center-component pin R phi(0) = 0 is enforced
    within tol.
    """
    cert = K.cert
    N, nu = cert.N, cert.nu
    fnorm = f.sup_norm
    h = f.h
    Tc = _tail_horizon(N, nu, fnorm, tol)
    k_lo, k_hi = K.window

    default_out = (f.a, f.b) if clamp_edges else (f.a + Tc, f.b - Tc)
    out_lo, out_hi = out_window if out_window is not None else default_out
    i_lo = _snap_index(max(out_lo, f.a), f.a, h, up=True)
    i_hi = _snap_index(min(out_hi, f.b), f.a, h, up=False)
    out_lo, out_hi = f.a + i_lo * h, f.a + i_hi * h
    if i_hi <= i_lo:
        # an output needs two grid points; a forcing window [-Tc - h, Tc + h]
        # keeps 0 and one neighbour on each side
        raise WindowTooSmall(
            "forcing window too small for any output after tail truncation", Tc + h
        )
    if fnorm == 0.0:
        return GridFunction(out_lo, out_hi, np.zeros((i_hi - i_lo + 1, f.dim)))

    lo_need = out_lo - Tc
    hi_need = out_hi + Tc
    if not clamp_edges:
        if lo_need < f.a - 1e-9 or hi_need > f.b + 1e-9:
            raise WindowTooSmall(
                "forcing window too small for the tail horizon",
                max(abs(lo_need), abs(hi_need)),
            )
    # the sweeps never leave the forcing window, so the certificate only
    # has to cover the clipped ranges
    lo_need = max(lo_need, f.a)
    hi_need = min(hi_need, f.b)
    if lo_need < k_lo - 1e-9 or hi_need > k_hi + 1e-9:
        required = max(abs(lo_need), abs(hi_need))
        raise WindowTooSmall("certificate window too small", required)

    sweep_lo = max(lo_need, k_lo)
    sweep_hi = min(hi_need, k_hi)
    up = _sweep(K, f, sweep_lo, out_hi, "up")
    down = _sweep(K, f, out_lo, sweep_hi, "down")
    phi = GridFunction(out_lo, out_hi, up[i_lo : i_hi + 1] - down[i_lo : i_hi + 1])

    if check_residual:
        fr = f.restrict(out_lo, out_hi)
        res = ode_residual(K.A, phi, fr)
        worst = float(res.max())
        if worst > 10.0 * tol:
            raise AccuracyError(
                f"linear solve residual {worst:.3g} exceeds 10*tol = {10 * tol:.3g}"
            )
    if out_lo <= 0.0 <= out_hi:
        pin = float(np.linalg.norm(cert.R @ phi(0.0)))
        if pin > tol:
            raise AccuracyError(
                f"center-component pin R phi(0) = {pin:.3g} exceeds tol"
            )
    return phi


def _point_value(exprs, t, x) -> np.ndarray:
    """F(t, x) for one time t and one state vector x."""
    env = {"t": t}
    for i in range(len(exprs)):
        env[f"x{i + 1}"] = x[i]
    return np.array([eval_expr(e, env) for e in exprs], dtype=float)


def _grid_values(exprs, env, shape) -> np.ndarray:
    """The expressions evaluated under ``env`` as float columns broadcast to ``shape``."""
    return np.column_stack(
        [np.broadcast_to(np.asarray(eval_expr(e, env), dtype=float), shape) for e in exprs]
    )


def _sampled_lipschitz_ratio(exprs, draws, seed):
    """Largest |F(t, x) - F(t, y)| / |x - y| over ``draws`` random pairs per
    sample time, drawn from the cube of half-width ``_SAMPLE_RADIUS``.
    """
    n = len(exprs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in _SAMPLE_TIMES:
        for _ in range(draws):
            x = rng.uniform(-_SAMPLE_RADIUS, _SAMPLE_RADIUS, n)
            y = rng.uniform(-_SAMPLE_RADIUS, _SAMPLE_RADIUS, n)
            dxy = float(np.linalg.norm(x - y))
            if dxy < 1e-12:
                continue
            diff = _point_value(exprs, t, x) - _point_value(exprs, t, y)
            worst = max(worst, float(np.linalg.norm(diff)) / dxy)
    return worst


class LipschitzSpec:
    """Nonlinearity F(t, x) with a declared global Lipschitz constant.

    ``exprs`` are expression strings (or parsed trees) in t, x1..xn.  The
    constructor validates the declaration by sampling: random point pairs in
    a ball must give difference ratios at most L*(1+1e-3), and F(t, 0) must
    vanish within 1e-12 (the solvers build on nonlinearities anchored at 0).
    Evaluation returns ``factor`` times F; ``scaled`` sets the factor.
    """

    def __init__(self, exprs, L):
        if L <= 0.0:
            raise ValueError("Lipschitz constant must be positive")
        self.exprs = [parse(e) if isinstance(e, str) else e for e in exprs]
        self.n = len(self.exprs)
        self.L = float(L)
        self.factor = 1.0
        allowed = {"t"} | {f"x{i + 1}" for i in range(self.n)}
        for i, e in enumerate(self.exprs):
            extra = free_vars(e) - allowed
            if extra:
                raise ValueError(
                    f"component {i + 1} uses unknown variables {sorted(extra)}"
                )
        self.report = self._validate()

    def _validate(self):
        worst_zero = 0.0
        for t in _SAMPLE_TIMES:
            z = self(t, np.zeros(self.n))
            worst_zero = max(worst_zero, float(np.linalg.norm(z)))
        worst_ratio = _sampled_lipschitz_ratio(self.exprs, 8, seed=0)
        if worst_zero > 1e-12:
            raise ValueError(
                f"F(t, 0) must vanish; sampled norm {worst_zero:.3g}"
            )
        if worst_ratio > self.L * (1.0 + 1e-3):
            raise ValueError(
                f"sampled Lipschitz ratio {worst_ratio:.6g} exceeds declared "
                f"L = {self.L:.6g}"
            )
        return {"max_sampled_ratio": worst_ratio, "max_zero_norm": worst_zero}

    def __call__(self, t, x):
        return self.factor * _point_value(self.exprs, t, x)

    def on_grid(self, times, values):
        """Vectorized evaluation over a grid: values has shape (m, n)."""
        env = {"t": times}
        for i in range(self.n):
            env[f"x{i + 1}"] = values[:, i]
        return self.factor * _grid_values(self.exprs, env, times.shape)

    def scaled(self, factor):
        """The nonlinearity factor*F with Lipschitz constant |factor|*L (not re-sampled)."""
        out = copy.copy(self)
        out.L = abs(factor) * self.L
        out.report = dict(self.report)
        out.factor = factor * self.factor
        return out


@dataclass
class PicardReport:
    iterations: int
    ratios: list
    final_residual: float
    alpha: float
    r_bound: float
    measured_deviation: float
    ode_residual: float
    forcing_norm: float

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "contraction_ratios": [float(x) for x in self.ratios],
            "final_residual": self.final_residual,
            "alpha": self.alpha,
            "r_bound": self.r_bound,
            "measured_deviation": self.measured_deviation,
            "ode_residual": self.ode_residual,
            "forcing_norm": self.forcing_norm,
        }


def picard_solve(
    K: GreenKernel,
    f: GridFunction,
    Fspec: LipschitzSpec,
    tol: float = 1e-6,
    initial: Optional[GridFunction] = None,
    _phi0: Optional[GridFunction] = None,
):
    """Bounded solution of x' = A(t)x + f(t) + F(t, x) by Picard iteration.

    Iterates psi_{k+1} = G(F(., psi_k + phi0)) around the linear bounded
    solution phi0, where G is the Green integral of the certified kernel.
    The map contracts at alpha = 2*N*L/nu; a declared constant with
    alpha >= 1 is refused.  Iterations run on the full forcing window with
    edge-clamped truncation; the returned solution is the restriction to
    the window shrunk by twice the tail horizon, where the edge effects
    are far below tolerance.  Returns (phi, PicardReport).
    """
    N, nu = K.cert.N, K.cert.nu
    alpha = _contraction_ratio(N, nu, Fspec.L, "declared L")
    fnorm = f.sup_norm
    Tc = _tail_horizon(N, nu, fnorm, tol)
    phi0 = _phi0
    if phi0 is None:
        phi0 = solve_linear_bounded(K, f, tol=tol, clamp_edges=True)
    times = phi0.times
    psi = initial.values.copy() if initial is not None else np.zeros_like(phi0.values)
    if initial is not None and (initial.a != phi0.a or initial.b != phi0.b):
        raise ValueError("initial guess must live on the forcing window")

    ratios = []
    last_delta = None
    converged = False
    final_residual = math.inf
    for _ in range(_MAX_PICARD_ITER):
        g_vals = Fspec.on_grid(times, psi + phi0.values)
        g = GridFunction(phi0.a, phi0.b, g_vals)
        psi_next = solve_linear_bounded(
            K, g, tol=tol, clamp_edges=True, check_residual=False
        ).values
        delta = float(np.linalg.norm(psi_next - psi, axis=1).max())
        if last_delta is not None and last_delta > 1e-300:
            ratios.append(delta / last_delta)
        last_delta = delta
        psi = psi_next
        if delta <= tol * (1.0 - alpha):
            converged = True
            final_residual = delta
            break
    if not converged:
        last = ratios[-1] if ratios else math.nan
        raise SolverError(
            f"Picard iteration did not converge in {_MAX_PICARD_ITER} steps "
            f"(last contraction ratio {last:.4g})"
        )

    full = GridFunction(phi0.a, phi0.b, psi + phi0.values)
    out_lo, out_hi = _picard_window(phi0, Tc)
    if out_hi <= out_lo:
        raise WindowTooSmall(
            "forcing window too small for the Picard restriction",
            4.0 * Tc,
        )
    phi = full.restrict(out_lo, out_hi)
    phi0_r = phi0.restrict(out_lo, out_hi)

    fr = f.restrict(out_lo, out_hi)
    res = float(ode_residual(K.A, phi, fr, Fspec).max())
    if res > 10.0 * tol:
        raise AccuracyError(
            f"semilinear solve residual {res:.3g} exceeds 10*tol"
        )
    measured = float(np.linalg.norm(phi.values - phi0_r.values, axis=1).max())
    report = PicardReport(
        iterations=len(ratios) + 1,
        ratios=ratios,
        final_residual=final_residual,
        alpha=alpha,
        r_bound=_deviation_bound(N, nu, Fspec.L, fnorm),
        measured_deviation=measured,
        ode_residual=res,
        forcing_norm=fnorm,
    )
    return phi, report


def epsilon_continuation(K, f, Fspec, eps_list, tol: float = 1e-6):
    """Solve the semilinear problem for each scaling eps of the nonlinearity.

    Every |eps|*L must be strictly below nu/(2N).  Returns a list of
    (eps, phi_eps, ||phi_eps - phi_0||) tuples, where phi_0 is the linear
    bounded solution; the runs share the kernel and phi_0.
    """
    N, nu = K.cert.N, K.cert.nu
    for e in eps_list:
        _contraction_ratio(N, nu, abs(e) * Fspec.L, f"at eps = {e:.6g}, |eps|*L")
    phi0_full = solve_linear_bounded(K, f, tol=tol, clamp_edges=True)

    def one(e):
        if e == 0.0:
            Tc = _tail_horizon(N, nu, f.sup_norm, tol)
            return e, phi0_full.restrict(*_picard_window(phi0_full, Tc)), 0.0
        phi, _ = picard_solve(K, f, Fspec.scaled(e), tol=tol, _phi0=phi0_full)
        phi0_r = phi0_full.restrict(phi.a, phi.b)
        dev = float(np.linalg.norm(phi.values - phi0_r.values, axis=1).max())
        return e, phi, dev

    return [one(e) for e in eps_list]


@dataclass
class C1ProbeReport:
    """Findings of the cubic-equation probe (bundled problem c1_cubic)."""

    eps: float
    q: GridFunction
    sup_table: dict
    crosscheck_max: float
    crosscheck_window: float
    closed_form_check: dict
    residuals: dict
    growth_rate: float

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "sup_table": {str(k): v for k, v in self.sup_table.items()},
            "crosscheck_max": self.crosscheck_max,
            "crosscheck_window": self.crosscheck_window,
            "closed_form_check": self.closed_form_check,
            "residuals": self.residuals,
            "growth_rate_per_unit_T": self.growth_rate,
        }


def example_c1_probe(eps: float, T: float = 20.0) -> C1ProbeReport:
    """Probe the scalar cubic equation x' = x - eps e^{-|t|} x^3.

    Besides x = 0 the equation has the pair x = +-q_eps with
    q_eps(t) = (2 eps int_{-inf}^t e^{-2(t-s)} e^{-|s|} ds)^{-1/2},
    computed here by stable panel quadrature with an analytic tail and
    cross-checked against forward integration of the substituted linear
    equation w' = -2w + 2 eps e^{-|t|} (w = x^{-2}).  The report carries
    the sup of q_eps over growing windows (it grows like e^{T/2}, so the
    solution is unbounded in the sup norm; the probe measures the rate
    rather than asserting boundedness) and verifies that 0 and +-q_eps
    satisfy the equation on the grid away from the |t| kink.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    T = float(T)
    h = 0.01
    crosscheck_window = 5.0
    m = int(round(2 * T / h))
    times = -T + h * np.arange(m + 1)

    # quadrature route for w(t) = 2 eps int_{-inf}^t e^{-2(t-s)} e^{-|s|} ds:
    # exact tail w(-T) = (2 eps / 3) e^{-T}, then per-step Gauss-Legendre
    # panels under the recurrence w(t+h) = e^{-2h} w(t) + (panel integral)
    w = np.empty(m + 1)
    w[0] = (2.0 * eps / 3.0) * math.exp(-T)
    decay = math.exp(-2.0 * h)
    half_nodes = (_GL_NODES + 1.0) / 2.0
    for i in range(m):
        t0, t1 = times[i], times[i + 1]
        s = t0 + h * half_nodes
        integrand = np.exp(-2.0 * (t1 - s)) * 2.0 * eps * np.exp(-np.abs(s))
        w[i + 1] = decay * w[i] + (h / 2.0) * float(_GL_WEIGHTS @ integrand)
    if not np.all(w > 0.0) or not np.all(np.isfinite(w)):
        raise SolverError("quadrature tail failure: w must stay positive")
    q_vals = 1.0 / np.sqrt(w)
    q = GridFunction(-T, T, q_vals)

    # cross-check: forward integration of the substituted linear equation
    ode = solve_ivp(
        lambda t, y: [-2.0 * y[0] + 2.0 * eps * math.exp(-abs(t))],
        (-T, T),
        [w[0]],
        method="RK45",
        dense_output=True,
        rtol=1e-11,
        atol=1e-18,
    )
    if not ode.success:
        raise SolverError(f"cross-check integration failed: {ode.message}")
    mask = np.abs(times) <= crosscheck_window + 1e-12
    w_ode = ode.sol(times[mask])[0]
    q_ode = 1.0 / np.sqrt(w_ode)
    crosscheck = float(np.abs(q_vals[mask] - q_ode).max())

    sup_table = {}
    for Tk in (5.0, 10.0, 20.0):
        if Tk <= T + 1e-12:
            sub = np.abs(times) <= Tk + 1e-12
            sup_table[Tk] = float(q_vals[sub].max())
    Ts = sorted(sup_table)
    growth = 0.0
    if len(Ts) >= 2:
        growth = float(
            np.polyfit(Ts, [math.log(sup_table[Tk]) for Tk in Ts], 1)[0]
        )

    # closed form for t <= 0: q_eps(t) = sqrt(3/(2 eps)) e^{-t/2}
    t_check = -2.0
    closed = math.sqrt(3.0 / (2.0 * eps)) * math.exp(-t_check / 2.0)
    idx = int(round((t_check + T) / h))
    closed_form_check = {
        "t": t_check,
        "quadrature": float(q_vals[idx]) if 0 <= idx <= m else math.nan,
        "closed_form": closed,
    }

    # residuals of the three solutions, away from the kink of e^{-|t|}
    # (the finite-difference stencil loses its order across t = 0)
    def branch_residual(x_vals):
        gf = GridFunction(-T, T, x_vals)
        d = gf.derivative_grid()[:, 0]
        rhs = x_vals - eps * np.exp(-np.abs(times)) * x_vals**3
        res = np.abs(d - rhs)
        keep = np.abs(times) > 2.5 * h
        return float(res[keep].max())

    residuals = {
        "zero": branch_residual(np.zeros(m + 1)),
        "plus_q": branch_residual(q_vals),
        "minus_q": branch_residual(-q_vals),
    }
    return C1ProbeReport(
        eps=eps,
        q=q,
        sup_table=sup_table,
        crosscheck_max=crosscheck,
        crosscheck_window=crosscheck_window,
        closed_form_check=closed_form_check,
        residuals=residuals,
        growth_rate=growth,
    )
