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
quadrature needs of the legs besides the forcing (inverse leg values folded
into per-panel moments of the forcing spline, projectors, grid indices) is
one plan per kernel, grid and sweep window: one set of stacked arrays over
every leg of the window.  Its moments come from one batched call
(:meth:`TransitionOperator.inverse_moments`), which fits the window's Magnus
legs not yet fitted, in one batch, and contracts each leg's inverse
Chebyshev samples with the cardinal moments of its Gauss-Legendre nodes:
the full unit legs of the window, asked at the same fractions of their
spans with the same weights, share one cardinal-moment matrix, and no leg
with inverse samples is evaluated or inverted at a node.  The leg values
at the panel points come from one more call
(:meth:`TransitionOperator.leg_values`).  The plan is reused by every later
solve on that kernel: both sweeps, each Picard iterate and each eps of a
continuation, and its legs stay fitted for every later plan.

Each grid panel is integrated by a Gauss-Legendre rule that
:func:`_panel_rule` sizes from h*a.  On a panel of width h the m-node rule
errs by h^{2m+1} c_m g^{(2m)} with c_m = (m!)^4 / ((2m + 1) ((2m)!)^3)
(Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984,
sec. 2.7).  The integrand g is a propagator times the forcing's cubic, so
|g^{(2m)}| is about a^{2m} |g|, where a bounds |A| on the panel, and the
relative error is about c_m (h a)^{2m}.  The rule takes the fewest nodes m
in 4..16 with c_m (h a)^{2m} <= 2^-53: 4 nodes up to h a = 0.145, 8 up to
2.67, 16 up to 16.  The plan path takes a as max ||A(t)||_1 sampled over the
kernel's window at the grid step, once per plan; the modal path
takes max |lam|.  Above h a = 16 the 16-node rule stays, and the
fourth-order residual gate 10*tol decides whether the solution stands; its
finite-difference error grows like (h a)^4, so it refuses grids that coarse
anyway.  That bound is the error of the zeroth moment only.  A panel's
moments weight the propagator by the powers u^p, p <= 3, of the forcing's
cubic, and the 2m-th derivative of u^p g keeps the term
binom(2m, p) p! g^{(2m-p)}, so in units of h^p times the zeroth moment the
u^p moment errs like (h a)^{2m-p}: on a tanh trichotomy at h = 0.02 (h a = 0.02), 3 nodes put
the u^3 moment 4.8e-10 off the 16-node one, where c_3 (h a)^6 is 3e-17.
The floor of 4 nodes is what covers it on the CLI grid: at 4 nodes that
moment is within 1e-14, on closed-form legs as on Magnus legs.  Between
its nodes a Magnus leg, and its inverse, is one Chebyshev interpolant per
leg, analytic across the leg, so a rule sees it as it sees a closed-form leg.

The semilinear equation x' = A(t)x + f(t) + F(t, x) is solved by Picard
iteration around the linear solution, which contracts at rate
alpha = 2*N*L/nu when the Lipschitz constant L of F is below nu/(2*N).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .expr import EvalError, eval_stack, free_vars, parse
from .grid import GridFunction, component_norm
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

# the largest h*a that the m-node Gauss-Legendre rule of a panel covers:
# c_m (h a)^{2m} <= 2^-53 up to _GL_REACH[m]
_GL_REACH = {
    m: (2.0**-53 * (2 * m + 1) * math.factorial(2 * m) ** 3 / math.factorial(m) ** 4)
    ** (1.0 / (2 * m))
    for m in range(4, 17)
}

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
    """Truncation horizon with analytic tail (N/nu) e^{-nu*T} ||f|| <= tol/2; inf for nu <= 0."""
    if fnorm <= 0.0:
        return 1.0
    if nu <= 0.0:
        return math.inf
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


def _tail_margin(N: float, nu: float, fnorm: float, tol: float, picard: bool):
    """(Tc, margin): the forcing must reach the margin past the output window,
    Tc for a linear solve and 2*Tc for Picard (:func:`_picard_window`)."""
    Tc = _tail_horizon(N, nu, fnorm, tol)
    return Tc, 2.0 * Tc if picard else Tc


def _picard_window(phi0: GridFunction, margin: float):
    """Picard output window: phi0's window shrunk by ``margin``, snapped to its grid."""
    lo = _snap(phi0.a + margin, phi0.a, phi0.h, up=True)
    hi = _snap(phi0.b - margin, phi0.a, phi0.h, up=False)
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
    return component_norm(res)


def _panel_rule(ha: float):
    """Gauss-Legendre nodes and weights on [-1, 1] for a panel with h*a = ``ha``.

    The fewest nodes m in 4..16 with c_m (h a)^{2m} <= 2^-53, and 16 nodes
    when none meets it.  That bounds the zeroth moment; the u^p moment of a
    plan errs like (h a)^{2m-p}, which the floor of 4 nodes covers on the
    CLI grid (see the module docstring).
    """
    return _gauss_legendre(next((m for m in range(4, 16) if ha <= _GL_REACH[m]), 16))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m: int):
    """The m-node Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return leggauss(m)


def _plan_rule(kernel: GreenKernel, h: float):
    """The panel rule of the kernel's plans on a grid of step h.

    a is max ||A(t)||_1 over the kernel's window sampled at step h, computed
    once per plan build.
    """
    lo, hi = kernel.window
    t = np.linspace(lo, hi, math.ceil((hi - lo) / h) + 1)
    a = float(np.linalg.norm(kernel.A.values(t), 1, axis=(-2, -1)).max())
    return _panel_rule(h * a)


@dataclass
class _GreenPlan:
    """What both Green sweeps on one window need besides the forcing.

    Plans serve only kernels without ``modes``.  The window's legs are the
    consecutive-anchor legs (anchors[j], anchors[j + 1]) that meet it,
    clipped to it, in time order.  ``pts`` lists each leg's panel points in
    turn: its clipped ends and the grid points strictly between them, so an
    interior anchor appears twice, as the end of one leg and the start of
    the next.  Leg i's points are ``pts[first[i] + i : first[i + 1] + i + 1]``
    and its panels ``first[i] : first[i + 1]``.  Each Gauss-Legendre panel
    lies in one grid interval, ``cell``, where the forcing is the cubic
    sum_p c_p u^p of its spline (u = tau - t_cell), so the panel sum of
    weight * D(node)^{-1} f(node) is sum_p W_p c_p with the moments
    W_p = sum_j w_j u_j^p D(node_j)^{-1}, D the leg solution.  On a leg
    with inverse Chebyshev samples Z_k, D^{-1} is their interpolant
    sum_k l_k Z_k, so W_p = sum_k (sum_j w_j u_j^p l_k(x_j)) Z_k, x_j the
    nodes' fractions of the leg's span.  ``W`` holds
    each panel's block row [W_0 W_1 W_2 W_3], shape (panels, n, 4n), so its
    panel sum is one product with the stacked (c_0, ..., c_3).  ``D`` is D
    at the panel points, ``P`` the stable projectors at the legs' anchors
    (leg i runs from the anchor of ``P[i]`` to that of ``P[i + 1]``), and
    ``row`` the grid index of each panel point, -1 off the grid.
    """

    pts: np.ndarray
    first: np.ndarray
    W: np.ndarray
    cell: np.ndarray
    D: np.ndarray
    P: np.ndarray
    row: np.ndarray


def _green_plan(kernel: GreenKernel, f: GridFunction, lo, hi) -> _GreenPlan:
    """The kernel's plan of the window [lo, hi] on f's grid, built from stacked arrays.

    Every leg's panel points and Gauss-Legendre nodes are laid out at once,
    with each node's weights w_j u_j^p.  The moments of all legs then come
    from one :meth:`TransitionOperator.inverse_moments` call, which fits
    the Magnus legs not yet fitted and contracts their inverse samples, and
    D at the panel points from one :meth:`TransitionOperator.leg_values`
    call.  The times and the weights are taken from leg-local offsets, laid
    out so that every full unit leg whose anchor is a grid point asks at
    the same fractions of its span with the same weights: the legs of that
    layout share one cardinal-moment matrix, and each layout's moments are
    one product with its legs' stacked inverse samples.  Every panel takes
    the rule :func:`_plan_rule` sizes for the kernel and f's grid step, so
    the plan key needs no rule of its own.
    """
    key = (lo, hi, f.a, f.h)
    plan = kernel.plans.get(key)
    if plan is not None:
        return plan
    n, a, h = kernel.n, f.a, f.h
    anchors = kernel.anchors
    s0, s1 = np.maximum(anchors[:-1], lo), np.minimum(anchors[1:], hi)
    j = np.flatnonzero(s1 > s0 + 1e-12)
    s0, s1 = s0[j], s1[j]
    L = j.size
    # the grid points strictly inside some leg, by more than 1e-12
    k = np.arange(math.ceil((lo - a) / h - 1e-9), math.floor((hi - a) / h + 1e-9) + 1)
    t = a + h * k
    leg = np.minimum(np.searchsorted(s1, t), L - 1)
    inside = (t > s0[leg] + 1e-12) & (t < s1[leg] - 1e-12)
    k, t, leg = k[inside], t[inside], leg[inside]
    first = np.concatenate([[0], np.cumsum(np.bincount(leg, minlength=L) + 1)])
    pts = np.empty(first[-1] + L)
    pts[first[:-1] + np.arange(L)] = s0
    pts[first[1:] + np.arange(L)] = s1
    inner = np.arange(t.size) + 2 * leg + 1  # the grid points' places in pts
    pts[inner] = t
    point_leg = np.repeat(np.arange(L), np.diff(first) + 1)
    left = np.ones(pts.size, dtype=bool)  # the points that start a panel
    left[first[1:] + np.arange(L)] = False
    panel_leg = point_leg[left]
    # the points as offsets from their leg's lower anchor a0.  When a0 is the
    # grid point of index kappa, the leg's grid points lie h (k - kappa) past
    # it, so the legs of one clipped span have the same offsets.  Rounded to
    # a multiple of the spacing q of the window's largest anchor, an offset
    # added to an integer a0 stays exact, so every full unit leg is asked at
    # the same fractions of its span, with the same weights: one layout
    a0 = anchors[j]
    kappa = np.rint((a0 - a) / h)
    snapped = np.abs((a0 - a) / h - kappa) < 1e-9
    snap = snapped[leg]
    off = pts - a0[point_leg]
    off[inner[snap]] = h * (k[snap] - kappa[leg[snap]])
    widths = np.diff(off)[left[:-1]]
    gl_nodes, gl_weights = _plan_rule(kernel, h)
    q = np.spacing(np.abs(anchors[[j[0], j[-1] + 1]]).max())
    local = np.rint((off[left, None] + np.outer(widths, (gl_nodes + 1.0) / 2.0)) / q) * q
    cell = np.floor((pts[left] + 0.5 * widths - a) / h).astype(int)
    # u = node - t_cell, both as offsets from a0: on a grid-anchored leg the
    # cell's start lies h (cell - kappa) past a0, as its grid points do
    start = np.where(snapped[panel_leg], h * (cell - kappa[panel_leg]), a + h * cell - a0[panel_leg])
    u = local - start[:, None]
    weights = np.outer(widths, gl_weights / 2.0)[..., None] * u[..., None] ** np.arange(4)
    spans = list(zip(a0.tolist(), anchors[j + 1].tolist()))
    # (panels, 4, n, n), then the blocks W_p side by side
    W = kernel.op.inverse_moments(spans, panel_leg, a0[panel_leg, None] + local, weights)
    W = W.transpose(0, 2, 1, 3).reshape(-1, n, 4 * n)
    D = kernel.op.leg_values(spans, point_leg, a0[point_leg] + np.rint(off / q) * q)
    r = np.rint((pts - a) / h)
    plan = kernel.plans[key] = _GreenPlan(
        pts=pts,
        first=first,
        W=W,
        cell=cell,
        D=D,
        P=kernel.projectors[j[0] : j[-1] + 2],
        row=np.where(np.abs(a + r * h - pts) < 1e-9, r, -1).astype(int),
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
    coefficients c_p and psi_p taken by the :func:`_panel_rule` of
    h max |lam|; a first panel cut by ``lo`` (up) or ``hi`` (down) gets its
    own sum by the same rule.  The recurrence y_k = e^{lam h} y_{k-1} + b_k
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
    # the Gauss-Legendre rule on [0, 1], sized by h max |lam| over all modes
    gl_nodes, gl_weights = _panel_rule(h * np.max(np.abs(modes[1])))
    x, gw = (gl_nodes + 1.0) / 2.0, gl_weights / 2.0
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


def _sweep(kernel: GreenKernel, f: GridFunction, window, end, direction):
    """One decay-direction half of the Green integral on the sweep window.

    ``direction='up'`` accumulates int_lo^t Phi(t,tau) Pi_s(tau) f(tau) dtau
    for t increasing from lo to ``end``; ``direction='down'`` accumulates
    int_t^hi Phi(t,tau) Pi_u(tau) f(tau) dtau for t decreasing from hi to
    ``end``, where (lo, hi) = ``window``.  A kernel with ``modes`` takes
    :func:`_modal_sweep` on that range.  Otherwise both directions read the
    one plan of ``window`` (:func:`_green_plan`), and ``end`` is one of its
    panel points.  Working in the local coordinates of each unit leg turns
    the projected integrand into a constant projector times a
    backward-solved forcing sample, and the running value is re-projected at
    every anchor crossing.  The forcing enters only through its spline
    coefficients: one panel contraction covers every panel the sweep
    crosses, and the loop over legs keeps only each leg's running sum and
    the n-vector carried across its anchor, an affine recurrence.  At an
    anchor both legs share, the value is the projected carry.  Returns the
    values on f's whole grid, zero at the grid points the sweep does not
    reach.
    """
    lo, hi = window
    up = direction == "up"
    if kernel.modes is not None:
        lo, hi = (lo, end) if up else (end, hi)
        return _modal_sweep(kernel.modes, f, lo, hi, direction)
    plan = _green_plan(kernel, f, lo, hi)
    n, first, D = kernel.n, plan.first, plan.D
    L = first.size - 1
    # the sweep's last point q, and the leg i it lies on: on an anchor, the
    # leg below it (up) or above it (down)
    if up:
        q = int(np.searchsorted(plan.pts, end - 1e-9))
    else:
        q = int(np.searchsorted(plan.pts, end + 1e-9, side="right")) - 1
    i = int(np.searchsorted(first[1:] + np.arange(L), q))
    # the legs the sweep crosses, each one's panels [p0, p1) and points [q0, q1]
    legs = np.arange(i + 1) if up else np.arange(i, L)
    p0, p1 = first[legs], first[legs + 1]
    if up:
        p1[-1] = q - i
    else:
        p0[0] = q - i
    q0, q1 = p0 + legs, p1 + legs
    # the projector of each leg's panels, taken at its lower anchor, and the
    # one re-applied where the sweep leaves the leg
    if up:
        proj, cross = plan.P[legs], plan.P[legs + 1]
    else:
        proj = cross = np.eye(n) - plan.P[legs]
    panels = slice(p0[0], p1[-1])
    c = f.coeffs.transpose(1, 0, 2)[plan.cell[panels]].reshape(-1, 4 * n, 1)
    g = (np.repeat(proj, p1 - p0, axis=0) @ (plan.W[panels] @ c))[..., 0]
    # each leg's running sum from the point the sweep enters it
    acc = np.zeros((q1[-1] + 1 - q0[0], n))
    for k0, k1, j0, j1 in zip(p0 - p0[0], p1 - p0[0], q0 - q0[0], q1 - q0[0]):
        if up:
            acc[j0 + 1 : j1 + 1] = np.cumsum(g[k0:k1], axis=0)
        else:
            acc[j0:j1] = np.cumsum(g[k0:k1][::-1], axis=0)[::-1]
    # the carry across anchors is the affine recurrence Y' = M Y + r, with
    # M = cross D_out D_in^-1 and r = cross D_out (sum at the exit): D_in and
    # D_out are the leg's values where the sweep enters and leaves it
    enter, leave = (q0, q1) if up else (q1, q0)
    out_map = cross @ D[leave]
    M = np.linalg.solve(D[enter].transpose(0, 2, 1), out_map.transpose(0, 2, 1)).transpose(0, 2, 1)
    r = np.einsum("lab,lb->la", out_map, acc[leave - q0[0]])
    Y = np.zeros((legs.size, n))
    carry = np.zeros(n)
    for leg in range(legs.size) if up else range(legs.size - 1, -1, -1):
        Y[leg] = carry
        carry = M[leg] @ carry + r[leg]
    acc += np.repeat(np.linalg.solve(D[enter], Y[..., None])[..., 0], q1 - q0 + 1, axis=0)
    points = slice(q0[0], q1[-1] + 1)
    vals = np.einsum("kij,kj->ki", D[points], acc)
    row = plan.row[points].copy()
    # an anchor shared by two legs keeps the projected carry, the value on
    # the leg the sweep goes on along: the upper leg's start going up, the
    # lower leg's end going down, so the other leg's row there is dropped
    row[(q1[:-1] if up else q0[1:]) - q0[0]] = -1
    keep = row >= 0
    out = np.zeros_like(f.values)
    out[row[keep]] = vals[keep]
    return out


def solve_linear_bounded(
    K: GreenKernel,
    f: GridFunction,
    tol: float = 1e-6,
    clamp_edges: bool = False,
    check_residual: bool = True,
) -> GridFunction:
    """Bounded solution phi(t) = int G(t, tau) f(tau) dtau on a grid.

    The integral is truncated at the analytic tail horizon T_cut where
    (N/nu) exp(-nu T_cut) ||f||_b <= tol/2 per side, and evaluated by
    Gauss-Legendre panels between grid points, of 4 to 16 nodes as
    :func:`_panel_rule` sizes them from h times the size of A.  The output
    window is the forcing window shrunk by T_cut, snapped inward to the
    grid; a caller restricts the result to a smaller one.
    ``clamp_edges=True`` instead keeps the full forcing window and lets the
    truncation degrade toward the edges (used by the Picard iteration, whose
    restriction step absorbs the edge error).  A fourth-order residual check
    |phi' - A phi - f| <= 10*tol guards the result, and when the output
    window contains 0 and the certificate has a centre (rank round(trace R)
    at least 1) the center-component pin R phi(0) = 0 is enforced within
    tol.
    """
    cert = K.cert
    N, nu = cert.N, cert.nu
    fnorm = f.sup_norm
    h = f.h
    Tc = _tail_horizon(N, nu, fnorm, tol)
    k_lo, k_hi = K.window

    shrink = 0.0 if clamp_edges else Tc
    i_lo = _snap_index(f.a + shrink, f.a, h, up=True)
    i_hi = _snap_index(f.b - shrink, f.a, h, up=False)
    out_lo, out_hi = f.a + i_lo * h, f.a + i_hi * h
    if i_hi <= i_lo:
        # an output needs two grid points; a forcing window [-Tc - h, Tc + h]
        # keeps 0 and one neighbour on each side
        raise WindowTooSmall(
            "forcing window too small for any output after tail truncation", Tc + h
        )
    if fnorm == 0.0:
        return GridFunction(out_lo, out_hi, np.zeros((i_hi - i_lo + 1, f.dim)))

    # the sweeps never leave the forcing window, so the certificate only
    # has to cover the clipped ranges
    lo_need = max(out_lo - Tc, f.a)
    hi_need = min(out_hi + Tc, f.b)
    if lo_need < k_lo - 1e-9 or hi_need > k_hi + 1e-9:
        required = max(abs(lo_need), abs(hi_need))
        raise WindowTooSmall("certificate window too small", required)

    window = (max(lo_need, k_lo), min(hi_need, k_hi))
    up = _sweep(K, f, window, out_hi, "up")
    down = _sweep(K, f, window, out_lo, "down")
    phi = GridFunction(out_lo, out_hi, up[i_lo : i_hi + 1] - down[i_lo : i_hi + 1])

    if check_residual:
        fr = f.restrict(out_lo, out_hi)
        res = ode_residual(K.A, phi, fr)
        worst = float(res.max())
        if worst > 10.0 * tol:
            raise AccuracyError(
                f"linear solve residual {worst:.3g} exceeds 10*tol = {10 * tol:.3g}"
            )
    # without a centre, R = PQ is rounding alone, and the pin would measure
    # that rounding times |phi(0)|
    R = cert.R
    if out_lo <= 0.0 <= out_hi and round(np.trace(R)):
        pin = float(np.linalg.norm(R @ phi(0.0)))
        if pin > tol:
            raise AccuracyError(
                f"center-component pin R phi(0) = {pin:.3g} exceeds tol"
            )
    return phi


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
    Fx, Fy = (eval_stack(exprs, _state_env(times, p), times.shape) for p in (x, y))
    dxy = component_norm(x - y)
    keep = dxy >= 1e-12
    return float(np.max(component_norm(Fx - Fy)[keep] / dxy[keep], initial=0.0))


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
        worst_zero = float(component_norm(zeros).max())
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
        return self.factor * eval_stack(self.exprs, _state_env(t, np.asarray(x)), np.shape(t))

    def on_grid(self, times, values):
        """Vectorized evaluation over a grid: values has shape (m, n)."""
        return self.factor * eval_stack(self.exprs, _state_env(times, values), times.shape)

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
    _phi0: Optional[GridFunction] = None,
):
    """Bounded solution of x' = A(t)x + f(t) + F(t, x) by Picard iteration.

    Iterates psi_{k+1} = G(F(., psi_k + phi0)) from psi_0 = 0 around the
    linear bounded solution phi0, where G is the Green integral of the
    certified kernel.  The map contracts at alpha = 2*N*L/nu; a declared
    constant with alpha >= 1 is refused.  Iterations run on the full
    forcing window with edge-clamped truncation; the returned solution is
    the restriction to the window shrunk by twice the tail horizon
    (:func:`_tail_margin`), where the edge effects are far below tolerance.
    A measured deviation |phi - phi0| above the bound r it reports raises
    :class:`AccuracyError`.  Returns (phi, PicardReport).
    """
    N, nu = K.cert.N, K.cert.nu
    alpha = _contraction_ratio(N, nu, Fspec.L, Fspec.label)
    fnorm = f.sup_norm
    margin = _tail_margin(N, nu, fnorm, tol, picard=True)[1]
    phi0 = _phi0
    if phi0 is None:
        phi0 = solve_linear_bounded(K, f, tol=tol, clamp_edges=True)
    times = phi0.times
    psi = np.zeros_like(phi0.values)

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
            delta = float(component_norm(psi_next - psi).max())
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
    out_lo, out_hi = _picard_window(phi0, margin)
    if out_hi <= out_lo:
        raise WindowTooSmall("forcing window too small for the Picard restriction", 2.0 * margin)
    phi = full.restrict(out_lo, out_hi)
    phi0_r = phi0.restrict(out_lo, out_hi)

    fr = f.restrict(out_lo, out_hi)
    res = float(ode_residual(K.A, phi, fr, Fspec).max())
    if res > 10.0 * tol:
        raise AccuracyError(
            f"semilinear solve residual {res:.3g} exceeds 10*tol"
        )
    measured = float(component_norm(phi.values - phi0_r.values).max())
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
    (eps, phi_eps, PicardReport) tuples; each report's measured_deviation
    is ||phi_eps - phi_0|| against the linear bounded solution phi_0, and
    its r_bound the bound at |eps|*L.  The runs share the kernel and phi_0,
    and eps = 0 is the Picard run that returns phi_0 after one iterate.
    """
    N, nu = K.cert.N, K.cert.nu
    for e in eps_list:
        _contraction_ratio(N, nu, abs(e) * Fspec.L, f"at eps = {e:.6g}, |eps|*L")
    phi0_full = solve_linear_bounded(K, f, tol=tol, clamp_edges=True)
    return [(e, *picard_solve(K, f, Fspec.scaled(e), tol=tol, _phi0=phi0_full))
            for e in eps_list]
