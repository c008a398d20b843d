"""Exponential dichotomy and trichotomy certificates and Green kernels.

A dichotomy on an interval splits the solution space of x' = A(t)x by a
projector P into a part decaying forward at rate nu and a part decaying
backward, both with constant N.  A trichotomy is a compatible pair of
half-line dichotomies (projectors P on the plus side, Q on the minus side
with PQ = QP and P + Q - PQ = I), leaving room for a center class bounded
on the whole line.

Numerics
--------
A constant A with an eigendecomposition (``TransitionOperator.eig``) and no
eigenvalue on the imaginary axis is certified in closed form (Coppel,
Dichotomies in Stability Theory, LNM 629, 1978; see :func:`build_trichotomy`);
every other A is estimated and swept.

Transition matrices over long windows mix scales like exp(+nu*t) against
exp(-nu*t), so the kernel is never evaluated by naked long products in the
growing direction.  Instead each certificate carries, per half-line, a
family of forward-decaying projectors sampled on unit-spaced anchor times,
built by two subspace sweeps with QR re-orthonormalization:

* the kernel (forward-dominant class) is swept forward, the range
  (forward-decaying class) backward, each in its attracting direction;
* the sweep that starts where the projector is known is seeded from it,
  the other at the far end of an extension margin.

Subspace errors contract exponentially along each sweep, so anchors inside
the certified window are accurate even when the seed at the far end is crude.
The Green quadrature on such a certificate applies the branch projectors and
propagates leg by leg in the decaying direction, re-projecting at anchors to
strip the exponentially growing error component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .propagator import TransitionOperator

__all__ = [
    "HyperbolicityError",
    "NoDichotomyDetected",
    "NonHyperbolicError",
    "WindowTooSmall",
    "SubspaceEstimate",
    "DichotomyCertificate",
    "TrichotomyCertificate",
    "TrichotomyIncompatibility",
    "GreenKernel",
    "estimate_stable_projector",
    "estimate_constants",
    "verify_dichotomy",
    "build_trichotomy",
    "certificate_to_json",
]

GAP_THRESHOLD = 10.0
SLACK_TOL = 1e-6
# relative distance within which supplied projectors count as spectral
SPECTRAL_TOL = 1e-10
# |Re lam| <= AXIS_TOL * max(1, ||A||_2) counts as on the imaginary axis
AXIS_TOL = 1e-8


class HyperbolicityError(Exception):
    """Base class for certificate construction and verification failures."""


class NoDichotomyDetected(HyperbolicityError):
    """Singular-value gap below threshold: no dichotomy detected."""

    def __init__(self, message, log_singular_values=None, gap_ratio=None):
        super().__init__(message)
        self.log_singular_values = log_singular_values
        self.gap_ratio = gap_ratio


class NonHyperbolicError(HyperbolicityError):
    """Certified negative: no decay rate, degenerate subspaces, or a rejected certificate."""


class WindowTooSmall(HyperbolicityError):
    """Operation needs a larger certified window; carries the required T."""

    def __init__(self, message, required: float):
        super().__init__(f"{message} (increase window T to >= {required:.6g})")
        self.required = required


def _orth(basis: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(basis)
    return q


def _orth_complement(basis: np.ndarray) -> np.ndarray:
    n, k = basis.shape
    if k == 0:
        return np.eye(n)
    if k == n:
        return np.zeros((n, 0))
    # the trailing right singular vectors of basis^T, with null_space's rank
    # rule: singular values above eps * max(n, k) * largest count
    _, sv, vh = np.linalg.svd(basis.T)
    rank = int(np.sum(sv > np.finfo(float).eps * max(n, k) * sv.max(initial=0.0)))
    return vh[rank:].T


def _oblique_projector(range_basis: np.ndarray, kernel_basis: np.ndarray) -> np.ndarray:
    """Projector with the given range and kernel (columns are bases)."""
    n, k = range_basis.shape
    X = np.hstack([range_basis, kernel_basis])
    if X.shape != (n, n):
        raise ValueError("range and kernel dimensions must add up to n")
    cond = np.linalg.cond(X)
    if not np.isfinite(cond) or cond > 1e12:
        raise NonHyperbolicError(
            f"range and kernel subspaces are nearly tangent (cond {cond:.3g})"
        )
    return range_basis @ np.linalg.inv(X)[:k, :]


def _as_operator(A) -> TransitionOperator:
    if isinstance(A, TransitionOperator):
        return A
    return TransitionOperator(A)


def _anchor_times(lo: float, hi: float) -> np.ndarray:
    m = max(1, int(math.ceil(hi - lo - 1e-9)))
    return np.linspace(lo, hi, m + 1)


def _leg_matrices(op: TransitionOperator, anchors: np.ndarray) -> np.ndarray:
    n = op.A.n
    legs = [op.solve_leg(s0, s1)(s1).reshape(n, n) for s0, s1 in zip(anchors[:-1], anchors[1:])]
    return np.array(legs)


def _scaled_product_svd(mats):
    """SVD of the ordered product mats[-1] @ ... @ mats[0], overflow-safe.

    Returns (U, log_sigma, Vt) with log_sigma descending; the product is
    rescaled leg by leg, which changes singular values by a common factor
    tracked in log space and leaves singular vectors untouched.
    """
    n = mats[0].shape[0]
    B = np.eye(n)
    log_scale = 0.0
    for M in mats:
        B = M @ B
        s = np.linalg.norm(B)
        if not np.isfinite(s) or s == 0.0:
            raise NonHyperbolicError("transition product overflowed or vanished")
        B /= s
        log_scale += math.log(s)
    U, sig, Vt = np.linalg.svd(B)
    tiny = np.finfo(float).tiny
    return U, np.log(np.maximum(sig, tiny)) + log_scale, Vt


@dataclass(frozen=True)
class SubspaceEstimate:
    """Stable-subspace estimate from the SVD of a transition product."""

    P: np.ndarray
    rank: int
    gap_ratio: float
    log_singular_values: tuple
    span: float = 1.0  # length of the estimation interval

    @property
    def rate_hint(self) -> float:
        """Crude decay-rate guess per unit time from the singular ladder."""
        logs = np.asarray(self.log_singular_values)
        span = max(1.0, float(self.span))
        candidates = []
        grow = logs[logs > 0]
        decay = logs[logs <= 0]
        if grow.size:
            candidates.append(float(grow.min()) / span)
        if decay.size:
            candidates.append(float(-decay.max()) / span)
        return min(candidates) if candidates else 1.0


def estimate_stable_projector(A, interval) -> SubspaceEstimate:
    """Estimate the stable projector of x' = A(t)x on ``interval`` = [a, b].

    Takes the SVD of the transition matrix over the window (computed as a
    rescaled product of unit legs) and splits the singular ladder at 1:
    directions with singular value below the gap's geometric mean span the
    stable subspace.  Returns the spectral projector onto that span along
    the orthogonal complement, with the gap ratio as confidence.

    Raises
    ------
    NoDichotomyDetected
        If the gap ratio is below 10 (e.g. norm-preserving rotation).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi - lo < 10.0:
        raise ValueError("estimation interval must be at least 10 time units")
    op = _as_operator(A)
    n = op.A.n
    anchors = _anchor_times(lo, hi)
    _, logs, Vt = _scaled_product_svd(_leg_matrices(op, anchors))
    k_grow = int(np.sum(logs > 0.0))

    if k_grow == 0:
        gap = math.exp(min(700.0, -logs[0]))
        P = np.eye(n)
        rank = n
    elif k_grow == n:
        gap = math.exp(min(700.0, logs[-1]))
        P = np.zeros((n, n))
        rank = 0
    else:
        gap = math.exp(min(700.0, logs[k_grow - 1] - logs[k_grow]))
        V_stable = Vt[k_grow:].T
        P = V_stable @ V_stable.T
        rank = n - k_grow
    if gap < GAP_THRESHOLD:
        raise NoDichotomyDetected(
            f"no dichotomy detected: singular gap ratio {gap:.3g} < {GAP_THRESHOLD}",
            log_singular_values=tuple(logs),
            gap_ratio=gap,
        )
    return SubspaceEstimate(
        P=P,
        rank=rank,
        gap_ratio=gap,
        log_singular_values=tuple(logs),
        span=hi - lo,
    )


class ProjectorFamily:
    """Forward-decaying projector samples on anchor times, with leg-wise transport.

    ``projectors`` is an (m, n, n) stack: ``projectors[i]`` is the projector
    at ``anchors[i]`` whose range decays forward; its complement decays
    backward.  ``legs`` is the (m - 1, n, n) stack of transition matrices
    from ``anchors[i]`` to ``anchors[i + 1]``.  Between anchors the
    projector is conjugated through the cached dense leg, a short sandwich
    that cannot amplify error by more than exp(2*nu).  ``seed_residual`` is
    the distance, at the data end, between the swept projector and the one
    the family was seeded with.
    """

    def __init__(self, op, anchors, projectors, legs, seed_residual):
        self.op = op
        self.anchors = np.asarray(anchors, dtype=float)
        self.projectors = projectors
        self.legs = legs
        self.seed_residual = seed_residual

    @property
    def lo(self) -> float:
        return float(self.anchors[0])

    @property
    def hi(self) -> float:
        return float(self.anchors[-1])

    def _leg_index(self, s: float) -> int:
        i = int(np.searchsorted(self.anchors, s, side="right")) - 1
        return min(max(i, 0), len(self.anchors) - 2)

    def _leg_value(self, i: int, s: float) -> np.ndarray:
        n = self.op.A.n
        return self.op.solve_leg(self.anchors[i], self.anchors[i + 1])(s).reshape(n, n)

    def projector(self, s: float) -> np.ndarray:
        idx = int(np.searchsorted(self.anchors, s))
        for j in (idx - 1, idx):
            if 0 <= j < len(self.anchors) and abs(self.anchors[j] - s) < 1e-12:
                return self.projectors[j]
        if s < self.lo - 1e-9 or s > self.hi + 1e-9:
            raise WindowTooSmall("projector family does not cover t", abs(s))
        i = self._leg_index(s)
        D = self._leg_value(i, s)
        # P(s) = D P_i D^{-1} solved as P(s) D = D P_i
        return np.linalg.solve(D.T, (D @ self.projectors[i]).T).T


def _sweep_forward(legs, B0):
    out = [B0]
    for M in legs:
        out.append(_orth(M @ out[-1]) if out[-1].shape[1] else out[-1])
    return out


def _sweep_backward(legs, Bm):
    out = [Bm]
    for M in reversed(legs):
        out.append(_orth(np.linalg.solve(M, out[-1])) if out[-1].shape[1] else out[-1])
    out.reverse()
    return out


def _sweep_family(op: TransitionOperator, anchors, P_seed, data_end: str) -> ProjectorFamily:
    """Build a forward-decaying projector family by two attracting sweeps.

    The kernel is the forward-dominant class, so it is swept forward; the
    range is backward-dominant and swept backward; along each sweep subspace
    errors contract.  ``P_seed`` is the exact projector at ``data_end``: at
    ``"lo"`` its kernel starts the forward sweep, at ``"hi"`` its range
    starts the backward sweep.  The other sweep starts at the opposite end
    from the orthogonal complement of the first sweep's final value.
    """
    legs = _leg_matrices(op, anchors)
    rank = int(round(np.trace(P_seed)))
    # one SVD gives both seeds: the right singular vectors past the rank span
    # the kernel of P_seed, the leading left ones its range (for an oblique
    # P_seed the trailing left ones span the range's orthogonal complement)
    U, _, Vt = np.linalg.svd(P_seed)
    seed = Vt[rank:].T if data_end == "lo" else U[:, :rank]
    seed = _orth(seed) if seed.size else seed
    if data_end == "lo":
        K = _sweep_forward(legs, seed)
        R = _sweep_backward(legs, _orth_complement(K[-1]))
    else:
        R = _sweep_backward(legs, seed)
        K = _sweep_forward(legs, _orth_complement(R[0]))
    projectors = np.array([_oblique_projector(Ri, Ki) for Ri, Ki in zip(R, K)])
    at_data = projectors[0 if data_end == "lo" else -1]
    seed_residual = float(np.linalg.norm(at_data - P_seed, 2))
    return ProjectorFamily(op, anchors, projectors, legs, seed_residual)


def _build_half_family(op, lo, hi, P_seed, data_end, rate) -> ProjectorFamily:
    """Family for one half-line dichotomy, extended past the far end.

    The extension margin, 12/rate clamped to [6, 30] (30 for a rate <= 0),
    gives the complement-seeded sweep room to converge before it enters the
    certified window.
    """
    ext = 30.0 if rate <= 0.0 else min(30.0, max(6.0, 12.0 / rate))
    anchors = _anchor_times(lo, hi + ext) if data_end == "lo" else _anchor_times(lo - ext, hi)
    return _sweep_family(op, anchors, P_seed, data_end)


def _walk(family, starts, step, act, Z0, lo, hi, proj=None, cap=math.inf):
    """Norm samples of the (k, n, n) stack ``Z0``, chain i carried from anchor ``starts[i]``.

    Each pass moves every live chain one anchor up (``step=+1``) or down
    (``step=-1``) and applies ``act(legs, Z)`` to the stack, with each
    chain's leg between its two anchors, then ``proj[j]`` at each chain's
    new anchor j when the stack ``proj`` is given.  A chain drops out
    before its first anchor outside [lo, hi] or farther than ``cap`` from
    its start.  Returns an (r, 4) array of rows (separation, ||Z||, anchor,
    start anchor), pass after pass.
    """
    anchors = family.anchors
    starts = np.asarray(starts)
    j, Z = starts + step, Z0
    rows = [np.empty((0, 4))]
    while True:
        live = (j >= 0) & (j < len(anchors))
        t = anchors[np.where(live, j, 0)]
        sep = np.abs(t - anchors[starts])
        live &= (t >= lo - 1e-9) & (t <= hi + 1e-9) & (sep <= cap + 1e-9)
        if not live.any():
            return np.vstack(rows)
        starts, j, Z, t, sep = starts[live], j[live], Z[live], t[live], sep[live]
        Z = act(family.legs[np.minimum(j, j - step)], Z)
        if proj is not None:
            Z = proj[j] @ Z
        rows.append(np.column_stack([sep, np.linalg.norm(Z, 2, axis=(1, 2)), t, anchors[starts]]))
        j = j + step


def _chain_samples(family: ProjectorFamily, lo, hi):
    """Norm samples ||Phi(t, tau) Pi(tau)|| of the chains from every anchor in [lo, hi].

    Returns ``[up, down]``: ``up`` carries the forward-decaying projector up
    in time, ``down`` its complement down, each from all start anchors in
    one :func:`_walk`.  Rows are :func:`_walk`'s, separation 0 included,
    ordered by start anchor, then by separation.  Mid-chain re-projection
    is an exact identity in exact arithmetic and strips the exponentially
    growing numerical error component.
    """
    anchors = family.anchors
    starts = np.flatnonzero((anchors >= lo - 1e-9) & (anchors <= hi + 1e-9))
    t0 = anchors[starts]
    groups = []
    for step, proj, act in (
        (+1, family.projectors, np.matmul),
        (-1, np.eye(family.op.A.n) - family.projectors, np.linalg.solve),
    ):
        Z0 = proj[starts]
        at_start = np.column_stack([np.zeros_like(t0), np.linalg.norm(Z0, 2, axis=(1, 2)), t0, t0])
        rows = np.vstack([at_start, _walk(family, starts, step, act, Z0, lo, hi, proj=proj)])
        groups.append(rows[np.lexsort((rows[:, 0], rows[:, 3]))])
    return groups


def _envelope_fit(sample_groups):
    """Least-squares log-linear envelope over arrays of (separation, norm, ...) rows.

    Fits ln g against separation for each group, using the largest norm per
    separation (rounded to 1e-9) and skipping non-positive norms, takes the
    slowest decay rate, shrinks it by the 5% safety margin, then picks the
    smallest constant N >= 1 making every sample satisfy g <= N exp(-nu*sep).
    """
    groups = [rows[rows[:, 1] > 0.0] for rows in sample_groups]
    rates = []
    for rows in groups:
        seps, bucket = np.unique(np.round(rows[:, 0], 9), return_inverse=True)
        if seps.size < 2:
            continue
        peaks = np.zeros(seps.size)
        np.maximum.at(peaks, bucket, rows[:, 1])
        rates.append(-np.polyfit(seps, np.log(peaks), 1)[0])
    if not rates:
        raise NonHyperbolicError("no decay samples available for the envelope fit")
    nu_fit = min(rates)
    if nu_fit <= 0.0:
        raise NonHyperbolicError(
            f"fitted decay rate {nu_fit:.3g} is not positive: non-hyperbolic"
        )
    nu_hat = 0.95 * nu_fit
    rows = np.vstack(groups)
    log_N = np.max(np.log(rows[:, 1]) + nu_hat * rows[:, 0], initial=0.0)
    return float(math.exp(log_N)), float(nu_hat)


def estimate_constants(A, P, interval, rate_hint=1.0):
    """Fit dichotomy constants (N, nu) for projector ``P`` on ``interval``.

    Measures both decay branches on anchor pairs, fits a log-linear envelope
    per branch, shrinks the rate by 5% and returns the smallest admissible
    constant for the shrunk rate.  ``rate_hint`` (``P``'s estimate's, say)
    sizes the sweep's extension margin.  Raises :class:`NonHyperbolicError`
    when the fitted rate is not positive (e.g. a rotation).
    """
    op = _as_operator(A)
    lo, hi = float(interval[0]), float(interval[1])
    P = np.asarray(P, dtype=float)
    data_end = "lo" if abs(lo) <= abs(hi) else "hi"
    family = _build_half_family(op, lo, hi, P, data_end, rate_hint)
    return _envelope_fit(_chain_samples(family, lo, hi))


@dataclass
class DichotomyCertificate:
    """Dichotomy data ``(P, N, nu)`` on ``interval``; ``ok`` is False when a check failed."""

    interval: tuple
    P: np.ndarray
    N: float
    nu: float
    report: dict = field(default_factory=dict)
    ok: bool = True


def _bound_violations(samples, N, nu, kind):
    """Largest slack g - N exp(-nu*sep) over the sample rows, with its (t, tau) pair."""
    if not len(samples):
        return -math.inf, None
    slack = samples[:, 1] - N * np.exp(-nu * samples[:, 0])
    k = int(np.argmax(slack))
    _, g, t, tau = samples[k]
    return float(slack[k]), {"t": float(t), "tau": float(tau), "norm": float(g), "kind": kind}


def verify_dichotomy(A, P, interval, N, nu):
    """Check the two dichotomy inequalities for ``(P, N, nu)`` on a grid.

    Builds the projector family seeded by the given ``P``, measures both
    decay branches on all anchor pairs (long separations via projected
    chains, short separations additionally via direct unprojected products
    so that a wrong ``P`` cannot hide behind the stabilizing projections),
    and returns a :class:`DichotomyCertificate`, with ``ok`` true when the
    measured slack is within 1e-6; its report names the worst (t, tau) pair.
    """
    P = np.asarray(P, dtype=float)
    if np.linalg.norm(P @ P - P, 2) > 1e-10:
        raise ValueError("candidate projector is not idempotent within 1e-10")
    if not (N >= 1.0 and nu > 0.0):
        raise ValueError("constants must satisfy N >= 1 and nu > 0")
    lo, hi = float(interval[0]), float(interval[1])
    if hi - lo < 10.0 / nu:
        raise ValueError(
            f"interval length {hi - lo:.3g} is below 10/nu = {10.0 / nu:.3g}"
        )
    op = _as_operator(A)
    data_end = "lo" if abs(lo) <= abs(hi) else "hi"
    family = _build_half_family(op, lo, hi, P, data_end, nu)

    stable, unstable = _chain_samples(family, lo, hi)

    # direct short-separation products from the data end: these use the
    # candidate P itself, no stabilizing projections
    cap = min(hi - lo, 4.6 / nu)
    comp = (np.eye(op.A.n) - P)[None]
    if data_end == "lo":
        direct = _walk(family, [0], +1, np.matmul, P[None], lo, hi, cap=cap)
        # mirrored check: the second inequality at t = lo reads
        # ||(I - P) Phi(lo, tau)||, built by right-multiplying inverse legs
        mirrored = _walk(
            family, [0], +1,
            lambda M, Z: np.linalg.solve(M.swapaxes(1, 2), Z.swapaxes(1, 2)).swapaxes(1, 2),
            comp, lo, hi, cap=cap,
        )
        direct = np.vstack([direct, mirrored[:, [0, 1, 3, 2]]])
    else:
        last = len(family.anchors) - 1
        direct = _walk(family, [last], -1, np.linalg.solve, comp, lo, hi, cap=cap)

    # the first group with the largest slack names the worst pair
    groups = ((stable, "stable"), (unstable, "unstable"), (direct, "direct"))
    checks = [_bound_violations(rows, N, nu, kind) for rows, kind in groups]
    max_slack, worst = max(checks, key=lambda check: check[0])
    report = {
        "max_slack": float(max_slack),
        "worst_pair": worst,
        "seed_residual": family.seed_residual,
        "pairs_checked": len(stable) + len(unstable) + len(direct),
        "projector_norm_max": float(np.linalg.norm(family.projectors, 2, axis=(1, 2)).max()),
    }
    ok = max_slack <= SLACK_TOL and family.seed_residual <= 1e-5
    return DichotomyCertificate(
        interval=(lo, hi), P=P, N=float(N), nu=float(nu), report=report, ok=ok
    )


@dataclass
class TrichotomyCertificate:
    """Compatible half-line projectors with fitted constants.

    ``P`` certifies forward decay of its range on [0, T]; ``Q`` certifies
    backward decay of its complement's range on [-T, 0].  The derived
    projectors split the space into the three invariant classes:
    ``P1 = I - Q`` (decaying both ways is impossible, so this is the class
    decaying forward), ``P2 = I - P`` (growing forward), and the center
    ``P3 = R = P @ Q`` bounded both ways.  The closed form of a constant A
    carries ``modes`` (V, lam, V^-1, stable mask), a swept one ``families``.
    """

    interval: tuple
    P: np.ndarray
    Q: np.ndarray
    N: float
    nu: float
    report: dict = field(default_factory=dict)
    ok: bool = True
    # build_trichotomy's eigen-coordinates or sweeps, used by GreenKernel
    modes: Optional[tuple] = field(default=None, compare=False, repr=False)
    families: Optional[tuple] = field(default=None, compare=False, repr=False)
    op: Optional[TransitionOperator] = field(default=None, compare=False, repr=False)

    @property
    def P1(self) -> np.ndarray:
        return np.eye(self.P.shape[0]) - self.Q

    @property
    def P2(self) -> np.ndarray:
        return np.eye(self.P.shape[0]) - self.P

    @property
    def P3(self) -> np.ndarray:
        return self.P @ self.Q

    @property
    def R(self) -> np.ndarray:
        return self.P3

    def identity_residuals(self) -> dict:
        P, Q = self.P, self.Q
        n = P.shape[0]
        eye = np.eye(n)
        parts = [eye - Q, eye - P, P @ Q]
        res = {
            "commute": float(np.linalg.norm(P @ Q - Q @ P, 2)),
            "cover": float(np.linalg.norm(P + Q - P @ Q - eye, 2)),
            "sum": float(np.linalg.norm(sum(parts) - eye, 2)),
        }
        cross = 0.0
        for i in range(3):
            for j in range(3):
                prod = parts[i] @ parts[j]
                expect = parts[i] if i == j else np.zeros((n, n))
                cross = max(cross, float(np.linalg.norm(prod - expect, 2)))
        res["orthogonality"] = cross
        return res


@dataclass
class TrichotomyIncompatibility:
    """Both half-line dichotomies exist but their projectors do not mesh."""

    interval: tuple
    P_plus: np.ndarray
    P_minus: np.ndarray
    residual: float
    report: dict = field(default_factory=dict)
    ok: bool = False


def _check_spectral_constants(op, modes, rate, N, nu, T):
    """Reject supplied (N, nu) that a constant A's exact decay violates.

    nu may exceed the spectral rate by at most cond(V) * delta, the
    Bauer-Fike radius of the numerical eigenvalues.  N must bound
    ||e^{At} P|| e^{nu t} and ||e^{-At} (I - P)|| e^{nu t} within SLACK_TOL
    at 2001 times on [0, 2T], geometrically spaced to resolve the transient.
    """
    V, lam, V_inv, stable = modes
    radius = op.eig_health["cond_V"] * op.eig_health["eig_residual"]
    if nu > rate + radius:
        raise NonHyperbolicError(
            f"supplied certificate rejected: nu = {nu:.6g} exceeds the spectral "
            f"rate min |Re lam| = {rate:.6g} (eigenvalue radius {radius:.3g})"
        )
    t = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 * T, 2000)])
    sup = 0.0
    for keep, sign in ((stable, 1.0), (~stable, -1.0)):
        E = np.exp(np.multiply.outer(t, sign * lam[keep] + nu))
        M = ((V[:, keep] * E[:, None, :]) @ V_inv[keep]).real
        sup = max(sup, float(np.linalg.norm(M, 2, axis=(1, 2)).max()))
    if sup > N + SLACK_TOL:
        raise NonHyperbolicError(
            f"supplied certificate rejected: N = {N:.6g} is below the sampled "
            f"sup of ||Phi(t, 0) P|| e^(nu t) = {sup:.6g} on [0, {2.0 * T:.6g}]"
        )


def build_trichotomy(A, T, P=None, Q=None, N=None, nu=None):
    """Assemble a trichotomy certificate on [-T, T].

    A constant A with ``op.eig`` and no |Re lam| <= AXIS_TOL * max(1, ||A||_2)
    gets the closed form P = V[:, s] V^-1[s, :], Q = I - P, nu = min |Re lam|,
    N = max over classes c of ||V[:, c]|| ||V^-1[c, :]||.  Supplied ``P``/``Q``
    must be spectral within ``SPECTRAL_TOL`` relative and supplied ``N``/``nu``
    pass :func:`_check_spectral_constants`, else :class:`NonHyperbolicError`.

    Every other A is swept.  The stable projector P+ of the forward half on
    [0, T] and the stable projector of the time-reversed system on [0, T]
    (equivalently the backward-decaying class at 0, giving P- = I - Q) are
    estimated.  If the compatibility products P+ P- and P- P+ differ from
    P- by more than 1e-6 the halves do not mesh and a
    :class:`TrichotomyIncompatibility` report is returned.  User-supplied
    ``P``/``Q`` skip the estimation step; only their idempotence and
    compatibility are checked.  Supplied ``N``/``nu`` are taken as given,
    with no slack check; without them the constants are fitted to the chain
    norms of both half families.

    Raises
    ------
    NoDichotomyDetected
        If either half-line system has no singular-value gap.
    """
    T = float(T)
    op = _as_operator(A)
    n = op.A.n
    eye = np.eye(n)
    supplied = P is not None and Q is not None
    if supplied:
        P_plus = np.asarray(P, dtype=float)
        P_minus = eye - np.asarray(Q, dtype=float)
        for M, name in ((P_plus, "P"), (eye - P_minus, "Q")):
            if np.linalg.norm(M @ M - M, 2) > 1e-10:
                raise ValueError(f"candidate projector {name} is not idempotent")

    modes = None
    if op.eig is not None:
        V, lam, V_inv = op.eig
        stable, rate = lam.real < 0.0, float(np.min(np.abs(lam.real)))
        if rate > AXIS_TOL * max(1.0, op.eig_health["norm_A"]):
            modes = (V, lam, V_inv, stable)
    if modes is not None:
        P_s = (V[:, stable] @ V_inv[stable]).real
        if not supplied:
            P_plus = P_minus = P_s
        dist = max(float(np.linalg.norm(M - P_s, 2)) for M in (P_plus, P_minus))
        limit = SPECTRAL_TOL * max(1.0, float(np.linalg.norm(P_s, 2)))
        if dist > limit:
            raise NonHyperbolicError(
                "supplied certificate rejected: P or I - Q lies at distance "
                f"{dist:.6g} from the spectral stable projector of A (limit {limit:.3g})"
            )
    elif supplied:
        rate_hint = float(nu) if nu else 1.0
    else:
        est_plus = estimate_stable_projector(op, (0.0, T))
        rev_op = TransitionOperator(op.A.reversed())
        est_minus = estimate_stable_projector(rev_op, (0.0, T))
        P_plus = est_plus.P
        # the reversed system's stable class at 0 is the class decaying
        # backward in original time, i.e. the range of Q; P- = I - Q
        P_minus = eye - est_minus.P
        rate_hint = min(est_plus.rate_hint, est_minus.rate_hint)

    residual = max(
        float(np.linalg.norm(P_plus @ P_minus - P_minus, 2)),
        float(np.linalg.norm(P_minus @ P_plus - P_minus, 2)),
    )
    report = {
        "compatibility_residual": residual,
        "estimated": not supplied,
        "rank_plus": int(round(np.trace(P_plus))),
        "rank_minus": int(round(np.trace(P_minus))),
    }
    if residual > 1e-6:
        return TrichotomyIncompatibility(
            interval=(-T, T),
            P_plus=P_plus,
            P_minus=P_minus,
            residual=residual,
            report=report,
        )
    Q_mat = eye - P_minus

    if modes is not None:
        if N is None or nu is None:
            N = max(float(np.linalg.norm(V[:, c], 2) * np.linalg.norm(V_inv[c], 2))
                    for c in (stable, ~stable) if c.any())
            nu = rate
        else:
            _check_spectral_constants(op, modes, rate, float(N), float(nu), T)
        report.update({key: op.eig_health[key] for key in ("eig_residual", "cond_V")})
        return TrichotomyCertificate(interval=(-T, T), P=P_plus, Q=Q_mat, N=float(N),
                                     nu=float(nu), report=report, modes=modes, op=op)

    fam_plus = _build_half_family(op, 0.0, T, P_plus, "lo", rate_hint)
    fam_minus = _build_half_family(op, -T, 0.0, P_minus, "hi", rate_hint)

    if N is None or nu is None:
        N_hat, nu_hat = _envelope_fit(
            _chain_samples(fam_plus, 0.0, T) + _chain_samples(fam_minus, -T, 0.0)
        )
    else:
        N_hat, nu_hat = float(N), float(nu)

    report["seed_residual_plus"] = fam_plus.seed_residual
    report["seed_residual_minus"] = fam_minus.seed_residual
    return TrichotomyCertificate(
        interval=(-T, T),
        P=P_plus,
        Q=Q_mat,
        N=N_hat,
        nu=nu_hat,
        report=report,
        families=(fam_plus, fam_minus),
        op=op,
    )


class GreenKernel:
    """Green function of x' = A(t)x + f on a certified window.

    For a trichotomy on [-T, T] the kernel has four branches.  With source
    time tau >= 0 it is Phi(t, tau) P(tau) for t > tau and
    -Phi(t, tau) (I - P)(tau) for t < tau; with tau < 0 it is
    -Phi(t, tau) Q(tau) for t < tau and Phi(t, tau) (I - Q)(tau) for t > tau.
    ``cert`` must be the certificate that :func:`build_trichotomy` returned.
    With its ``modes`` (V, lam, V^-1, stable mask) every branch is diagonal
    in y = V^-1 x.  Otherwise every branch propagates its projected content
    through the certificate's projector families in the direction where it
    decays, re-projecting at unit anchors.
    """

    def __init__(self, cert):
        if getattr(cert, "modes", None) is None and getattr(cert, "families", None) is None:
            raise ValueError(
                "a Green kernel needs the certificate build_trichotomy returns; "
                f"got a {type(cert).__name__} with neither modes nor projector families"
            )
        self.cert = cert
        self.op = cert.op
        self.A = self.op.A
        self.window = tuple(float(x) for x in cert.interval)
        self.modes = cert.modes
        if self.modes is None:
            self.fam_plus, self.fam_minus = cert.families
            self.anchors = np.concatenate([self.fam_minus.anchors[:-1], self.fam_plus.anchors])
        # plans of the solver sweeps when ``modes`` is None, built on first
        # use: (a0, a1, s0, s1, grid origin, grid step) -> plan of that leg clip
        self.plans = {}

    @property
    def n(self) -> int:
        return self.A.n

    def stable_projector(self, s: float) -> np.ndarray:
        """Projector whose image decays forward at time s (sweep map)."""
        return (self.fam_plus if s >= 0.0 else self.fam_minus).projector(s)

    def unstable_projector(self, s: float) -> np.ndarray:
        """Projector whose image decays backward at time s."""
        return np.eye(self.n) - self.stable_projector(s)


def _matrix_list(M) -> list:
    return [[float(x) for x in row] for row in np.asarray(M)]


def certificate_to_json(cert) -> dict:
    """Serialize a certificate (or failure report) to plain JSON data."""
    if isinstance(cert, DichotomyCertificate):
        return {
            "type": "dichotomy",
            "ok": cert.ok,
            "interval": list(cert.interval),
            "P": _matrix_list(cert.P),
            "N": cert.N,
            "nu": cert.nu,
            "report": cert.report,
        }
    if isinstance(cert, TrichotomyCertificate):
        return {
            "type": "trichotomy",
            "ok": True,
            "interval": list(cert.interval),
            "P": _matrix_list(cert.P),
            "Q": _matrix_list(cert.Q),
            "N": cert.N,
            "nu": cert.nu,
            "report": cert.report,
            "identity_residuals": cert.identity_residuals(),
        }
    if isinstance(cert, TrichotomyIncompatibility):
        return {
            "type": "trichotomy",
            "ok": False,
            "interval": list(cert.interval),
            "P_plus": _matrix_list(cert.P_plus),
            "P_minus": _matrix_list(cert.P_minus),
            "compatibility_residual": cert.residual,
            "report": cert.report,
        }
    raise TypeError(f"cannot serialize {type(cert).__name__}")
