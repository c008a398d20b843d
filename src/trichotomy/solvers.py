"""Bounded solutions of linear and semilinear nonautonomous systems.

The bounded solution of x' = A(t)x + f(t) under a certified dichotomy or
trichotomy is the Green-kernel integral phi(t) = int G(t, tau) f(tau) dtau.
It is computed here by two exponential-weight sweeps (one per decay
direction) with composite Gauss-Legendre panels, so no quantity is ever
propagated in its growing direction.  On the closed-form certificate of a
constant A (``GreenKernel.modes``) the sweeps run in eigen-coordinates
y = V^-1 x: each component is a scalar recurrence over the grid, with no
legs and no per-node matrices.  Every other A (time-dependent, defective,
or with an eigenvalue on the imaginary axis) takes the plan path: the sweeps
run in the local coordinates of the cached unit propagation legs, and what the
quadrature needs of a leg besides the forcing (inverse leg values folded
into per-panel moments of the forcing spline, projectors, grid indices) is
built once per kernel, leg clip and grid as a plan, and reused by every
later solve on that kernel: both sweeps, each Picard iterate and each eps
of a continuation.

Both paths integrate each grid panel by the one 8-node Gauss-Legendre rule
``_GL_NODES``.  On a panel of width h the m-node rule errs by
h^{2m+1} (m!)^4 / ((2m + 1) ((2m)!)^3) g^{(2m)} (Davis & Rabinowitz, Methods
of Numerical Integration, 2nd ed., 1984, sec. 2.7).  The integrand g is a
propagator times the forcing's cubic, so |g^{(2m)}| is about a^{2m} |g|,
where a bounds |A| on the panel, and the relative error of m = 8 is about
1.7e-23 (h a)^16: 1e-34 at h a = 0.2, and the legs' ``RTOL`` = 1e-9 only at
h a = 7.3.  Long before that the fourth-order residual gate 10*tol refuses
the solution, since its finite-difference error grows like (h a)^4.  A
Magnus leg between its nodes is a partial step from the node below, smooth
only within a step, so there the 8- and 16-node rules differ by the leg's
interpolation error: up to about 1e-12, still far below ``RTOL``.

The semilinear equation x' = A(t)x + f(t) + F(t, x) is solved by Picard
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

from .expr import EvalError, eval_expr, free_vars, parse
from .grid import GridFunction
from .hyperbolicity import GreenKernel, WindowTooSmall

__all__ = [
    "SolverError",
    "ContractionError",
    "AccuracyError",
    "LipschitzSpec",
    "PicardReport",
    "solve_linear_bounded",
    "picard_solve",
    "epsilon_continuation",
    "ode_residual",
]

_GL_NODES, _GL_WEIGHTS = leggauss(8)

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

    The derivative is the grid's fourth-order finite difference.  A is
    evaluated over the whole grid by :meth:`CoefficientMatrix.values`, and F
    in one call too.  ``f`` is a GridFunction on phi's grid or None; ``F``
    is a :class:`LipschitzSpec` or None.
    """
    times, vals = phi.times, phi.values
    res = phi.derivative_grid() - np.einsum("kij,kj->ki", A.values(times), vals)
    if f is not None:
        res -= f.values
    if F is not None:
        res -= F.on_grid(times, vals)
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

    Plans serve only kernels without ``modes``.  Each Gauss-Legendre panel
    lies in one grid interval, ``cell``, where the forcing is the cubic
    sum_p c_p u^p of its spline (u = tau - t_cell), so the panel sum of
    weight * D(node)^{-1} f(node) is sum_p W_p c_p with the moments
    W_p = sum_j w_j u_j^p D(node_j)^{-1}; ``W`` has shape
    (panels, 4, n, n), with D the leg solution.  ``D_pts`` is D at the panel
    points.  ``proj`` maps each sweep direction to its (panel, crossing)
    projectors, and the panel points ``rows`` are the grid points ``idx``.
    """

    W: np.ndarray
    cell: np.ndarray
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
    nodes = pts[:-1, None] + np.outer(widths, (_GL_NODES + 1.0) / 2.0)
    wts = np.outer(widths, _GL_WEIGHTS / 2.0)
    # one dense call for nodes and panel points: a Magnus leg takes all its
    # partial steps in one batch
    D = sol(np.concatenate([nodes.ravel(), pts])).T.reshape(-1, n, n)
    D_inv = np.linalg.inv(D[: nodes.size]).reshape(*nodes.shape, n, n)
    cell = np.floor((pts[:-1] + 0.5 * widths - f.a) / f.h).astype(int)
    u = nodes - (f.a + cell[:, None] * f.h)
    moments = wts[..., None] * u[..., None] ** np.arange(4)
    k = np.rint((pts - f.a) / f.h)
    rows = np.flatnonzero(np.abs(f.a + k * f.h - pts) < 1e-9)
    U0 = kernel.unstable_projector(a0)
    plan = kernel.plans[key] = _LegPlan(
        W=np.einsum("kjp,kjab->kpab", moments, D_inv),
        cell=cell,
        D_pts=D[nodes.size :].copy(),  # a copy, so the node values are freed
        proj={
            "up": (kernel.stable_projector(a0), kernel.stable_projector(a1)),
            "down": (U0, U0),
        },
        rows=rows,
        idx=k[rows].astype(int),
    )
    return plan


def _exp_moments(lam, u, du, w):
    """sum_j w_j u_j^p exp(lam du_j) for p = 0..3: shape (4, len(lam))."""
    return np.einsum("j,jp,jl->pl", w, u[:, None] ** np.arange(4), np.exp(np.outer(du, lam)))


def _scan(b, log_decay):
    """y_k = exp(log_decay) y_{k-1} + b_k along axis 0, with y_0 = b_0.

    Log-step doubling: after the pass with shift j, y_k sums the terms
    b_i exp((k - i) log_decay) with k - i < 2j.  A pass whose factor has
    underflowed to zero in every column adds nothing, so it ends the scan.
    """
    y = b.copy()
    j = 1
    while j < len(y):
        factor = np.exp(j * log_decay)
        if not factor.any():
            break
        y[j:] = y[j:] + factor * y[:-j]
        j *= 2
    return y


def _modal_sweep(modes, f: GridFunction, lo, hi, direction):
    """:func:`_sweep` for a kernel that is diagonal in y = V^-1 x.

    Each kept component (stable ones up, unstable ones down) is the scalar
    convolution of e^{lam (t - tau)} with the component of V^-1 f.  A
    whole grid panel adds sum_p c_p psi_p(lam), with the forcing's spline
    coefficients c_p and psi_p taken by the 8-node Gauss-Legendre rule of
    the leg panels; a first panel cut by ``lo`` (up) or ``hi`` (down) gets
    its own 8-node sum.  The recurrence y_k = e^{lam h} y_{k-1} + b_k
    (e^{-lam h} downward) has |factor| < 1 in its direction of travel and
    runs as one :func:`_scan` over the grid.
    """
    V, lam, V_inv, stable = modes
    keep = stable if direction == "up" else ~stable
    out = np.zeros_like(f.values)
    if not keep.any():
        return out
    lam = lam[keep]
    a, h = f.a, f.h
    G = f.coeffs @ V_inv[keep].T  # (4, m, k) modal spline coefficients
    i0 = max(_snap_index(lo, a, h, up=True), 0)
    i1 = min(_snap_index(hi, a, h, up=False), G.shape[1])
    if i1 < i0:
        return out
    # the Gauss-Legendre rule on [0, 1]
    x, gw = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0
    b = np.zeros((i1 - i0 + 1, lam.size), dtype=complex)
    if direction == "up":
        # b_k: panel [t_{k-1}, t_k] carried to t_k; b_{i0}: the cut panel [lo, t_{i0}]
        psi = _exp_moments(lam, h * x, h - h * x, h * gw)
        b[1:] = np.einsum("pkl,pl->kl", G[:, i0:i1], psi)
        cut = a + i0 * h - lo
        if cut > 1e-12:
            u = h - cut + cut * x
            b[0] = np.einsum("pl,pl->l", G[:, i0 - 1], _exp_moments(lam, u, h - u, cut * gw))
        y = _scan(b, lam * h)
    else:
        # b_k: panel [t_k, t_{k+1}] carried to t_k; b_{i1}: the cut panel [t_{i1}, hi]
        psi = _exp_moments(lam, h * x, -h * x, h * gw)
        b[:-1] = np.einsum("pkl,pl->kl", G[:, i0:i1], psi)
        cut = hi - (a + i1 * h)
        if cut > 1e-12:
            b[-1] = np.einsum("pl,pl->l", G[:, i1], _exp_moments(lam, cut * x, -cut * x, cut * gw))
        y = _scan(b[::-1], -lam * h)[::-1]
    out[i0 : i1 + 1] = (y @ V[:, keep].T).real
    return out


def _sweep(kernel: GreenKernel, f: GridFunction, lo, hi, direction):
    """One decay-direction half of the Green integral on [lo, hi].

    ``direction='up'`` accumulates int_lo^t Phi(t,tau) Pi_s(tau) f(tau) dtau
    for t increasing; ``direction='down'`` accumulates
    int_t^hi Phi(t,tau) Pi_u(tau) f(tau) dtau for t decreasing.  A kernel
    with ``modes`` takes :func:`_modal_sweep`.  Otherwise, working
    in the local coordinates of each unit leg turns the projected integrand
    into a constant projector times a backward-solved forcing sample, and
    the running value is re-projected at every anchor crossing.  The
    forcing enters only through its spline coefficients, gathered per
    panel.  Returns the values on f's whole grid, zero at the grid points
    outside [lo, hi].
    """
    if kernel.modes is not None:
        return _modal_sweep(kernel.modes, f, lo, hi, direction)
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
    8-node Gauss-Legendre panels between grid points.  The output window
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


def _grid_values(exprs, env, shape) -> np.ndarray:
    """The expressions evaluated under ``env`` as float columns broadcast to ``shape``."""
    return np.column_stack(
        [np.broadcast_to(np.asarray(eval_expr(e, env), dtype=float), shape) for e in exprs]
    )


def _state_env(times, values) -> dict:
    """Variable bindings t, x1..xn for expressions evaluated at (times, values)."""
    env = {"t": times}
    for i in range(values.shape[-1]):
        env[f"x{i + 1}"] = values[..., i]
    return env


def _sampled_lipschitz_ratio(exprs, draws, seed):
    """Largest |F(t, x) - F(t, y)| / |x - y| over ``draws`` random pairs per
    sample time, drawn from the cube of half-width ``_SAMPLE_RADIUS``.

    All pairs come from one draw of shape (times * draws, 2, n), the same
    random stream as drawing x then y pair by pair.
    """
    pairs = np.random.default_rng(seed).uniform(
        -_SAMPLE_RADIUS, _SAMPLE_RADIUS, (_SAMPLE_TIMES.size * draws, 2, len(exprs))
    )
    times = np.repeat(_SAMPLE_TIMES, draws)
    x, y = pairs[:, 0], pairs[:, 1]
    Fx, Fy = (_grid_values(exprs, _state_env(times, p), times.shape) for p in (x, y))
    dxy = np.linalg.norm(x - y, axis=1)
    keep = dxy >= 1e-12
    return float(np.max(np.linalg.norm(Fx - Fy, axis=1)[keep] / dxy[keep], initial=0.0))


class LipschitzSpec:
    """Nonlinearity F(t, x) with a declared global Lipschitz constant.

    ``exprs`` are expression strings (or parsed trees) in t, x1..xn.  The
    constructor validates the declaration by sampling: random point pairs in
    a ball must give difference ratios at most L*(1+1e-3), and F(t, 0) must
    vanish within 1e-12 (the solvers build on nonlinearities anchored at 0).
    Evaluation returns ``factor`` times F; ``scaled`` sets the factor.
    ``label`` names L in refusal messages ("declared L" by default).
    """

    def __init__(self, exprs, L, label: str = "declared L"):
        if L <= 0.0:
            raise ValueError("Lipschitz constant must be positive")
        self.exprs = [parse(e) if isinstance(e, str) else e for e in exprs]
        self.n = len(self.exprs)
        self.L = float(L)
        self.label = label
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
        zeros = self.on_grid(_SAMPLE_TIMES, np.zeros((_SAMPLE_TIMES.size, self.n)))
        worst_zero = float(np.linalg.norm(zeros, axis=1).max())
        worst_ratio = _sampled_lipschitz_ratio(self.exprs, 8, seed=0)
        if worst_zero > 1e-12:
            raise ValueError(
                f"F(t, 0) must vanish; sampled norm {worst_zero:.3g}"
            )
        if worst_ratio > self.L * (1.0 + 1e-3):
            raise ValueError(
                f"sampled Lipschitz ratio {worst_ratio:.6g} exceeds {self.label} "
                f"= {self.L:.6g}"
            )
        return {"max_sampled_ratio": worst_ratio, "max_zero_norm": worst_zero}

    def __call__(self, t, x):
        """F(t, x) for one time t and one state vector x (the pointwise reference)."""
        env = _state_env(t, np.asarray(x))
        return self.factor * np.array([eval_expr(e, env) for e in self.exprs], dtype=float)

    def on_grid(self, times, values):
        """Vectorized evaluation over a grid: values has shape (m, n)."""
        return self.factor * _grid_values(self.exprs, _state_env(times, values), times.shape)

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


def _divergence(k, last_delta, alpha, what) -> SolverError:
    """The error for a Picard iterate psi_k that cannot be formed or measured."""
    last = ("no earlier step" if last_delta is None else
            f"last finite step sup|psi_{k - 1} - psi_{k - 2}| = {last_delta:.6g}")
    return SolverError(
        f"Picard iteration stopped at iterate {k}: {what}; {last}, alpha = {alpha:.6g}"
    )


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
    are far below tolerance.  A measured deviation |phi - phi0| above the
    bound r it reports raises :class:`AccuracyError`.  Returns (phi,
    PicardReport).
    """
    N, nu = K.cert.N, K.cert.nu
    alpha = _contraction_ratio(N, nu, Fspec.L, Fspec.label)
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
    for k in range(1, _MAX_PICARD_ITER + 1):
        # a diverging iterate overflows; that is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                g_vals = Fspec.on_grid(times, psi + phi0.values)
            except EvalError as exc:
                raise _divergence(k, last_delta, alpha, f"F fails on psi_{k - 1} ({exc})") from exc
            g = GridFunction(phi0.a, phi0.b, g_vals)
            psi_next = solve_linear_bounded(
                K, g, tol=tol, clamp_edges=True, check_residual=False
            ).values
            delta = float(np.linalg.norm(psi_next - psi, axis=1).max())
        if not math.isfinite(delta):
            raise _divergence(k, last_delta, alpha, f"sup|psi_{k} - psi_{k - 1}| is not finite")
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
    r_bound = _deviation_bound(N, nu, Fspec.L, fnorm)
    if not measured <= r_bound * (1.0 + 1e-6):
        raise AccuracyError(
            f"measured_deviation = {measured:.8g} from the linear solution exceeds "
            f"r_bound = 4N^2 L ||f|| / (nu (nu - 2NL)) = {r_bound:.8g}"
        )
    report = PicardReport(
        iterations=len(ratios) + 1,
        ratios=ratios,
        final_residual=final_residual,
        alpha=alpha,
        r_bound=r_bound,
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
