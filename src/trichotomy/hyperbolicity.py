"""Exponential dichotomy and trichotomy certificates and Green kernels.

A dichotomy on an interval splits the solution space of x' = A(t)x by a
projector P into a part decaying forward at rate nu and a part decaying
backward, both with constant N.  A trichotomy is a compatible pair of
half-line dichotomies (projectors P on the plus side, Q on the minus side
with PQ = QP and P + Q - PQ = I), leaving room for a center class bounded
on the whole line.

Numerics
--------
Every command certifies through :func:`build_trichotomy`; a dichotomy on
the line is a trichotomy with center R = PQ = 0 (Elaydi and Hajek, J. Math.
Anal. Appl. 129, 1988).  A constant A with an eigendecomposition
(``TransitionOperator.eig``) is certified in closed form, or refused for an
eigenvalue on the imaginary axis (Coppel, Dichotomies in Stability Theory,
LNM 629, 1978; see :func:`_closed_form`); every other A is estimated and
swept.  One half-line check, :func:`_verify_halves`, certifies each half
of a swept trichotomy: the printed constants are fitted, or supplied and
checked, on the chain norms of the window they cover, and the candidate P
itself must pass direct products and its seed residual.

Transition matrices over long windows mix scales like exp(+nu*t) against
exp(-nu*t), so the kernel is never evaluated by naked long products in the
growing direction.  Instead each certificate carries, per half-line, a
family of forward-decaying projectors sampled on the integer lattice (see
:func:`_anchor_times`), so the estimates and families of one operator share
its cached legs; it is built by two sweeps with QR re-orthonormalization:

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

from .propagator import RTOL, TransitionOperator

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
# largest distance at the data end between a seed projector and its sweep
SEED_TOL = 1e-5
# largest compatibility residual ||P+ P- - P-|| of half-line projectors that mesh
COMPAT_TOL = 1e-6
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
    """lo, the integers in (lo, hi) more than 1e-9 from both ends, then hi."""
    inner = np.arange(math.floor(lo + 1e-9) + 1, math.ceil(hi - 1e-9), dtype=float)
    return np.concatenate([[lo], inner, [hi]])


def _leg_matrices(op: TransitionOperator, anchors: np.ndarray) -> np.ndarray:
    """Phi(anchors[i + 1], anchors[i]) of every leg, its missing legs integrated in one batch."""
    n = op.A.n
    legs = op.solve_legs(zip(anchors[:-1], anchors[1:]))
    return np.array([leg(s1).reshape(n, n) for leg, s1 in zip(legs, anchors[1:])])


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
    """Stable-subspace estimate from the SVD U S V^T of the product over [a, b].

    ``P`` is orthogonal onto the decaying right singular vectors, at a;
    ``P_end`` onto the trailing left ones, at b, with kernel the class there
    that decays backward.
    """

    P: np.ndarray
    P_end: np.ndarray
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
    rescaled product of lattice legs) and splits the singular ladder at 1:
    directions with singular value below the gap's geometric mean span the
    stable subspace.  Returns the orthogonal projector onto that span at a,
    the one at b whose kernel is the backward-decaying class there, and the
    gap ratio as confidence.

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
    U, logs, Vt = _scaled_product_svd(_leg_matrices(op, anchors))
    k_grow = int(np.sum(logs > 0.0))
    # the split at 1 counts a missing side of the ladder as 1
    ladder = np.concatenate([[0.0], logs, [0.0]])
    gap = math.exp(min(700.0, ladder[k_grow] - ladder[k_grow + 1]))
    V_s, U_s = Vt[k_grow:].T, U[:, k_grow:]
    P, P_end = V_s @ V_s.T, U_s @ U_s.T
    if k_grow == 0:  # exactly, not V^T V
        P = P_end = np.eye(n)
    if gap < GAP_THRESHOLD:
        raise NoDichotomyDetected(
            f"no dichotomy detected: singular gap ratio {gap:.3g} < {GAP_THRESHOLD}",
            log_singular_values=tuple(logs),
            gap_ratio=gap,
        )
    return SubspaceEstimate(
        P=P,
        P_end=P_end,
        rank=n - k_grow,
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

    def projector(self, s: float) -> np.ndarray:
        idx = int(np.searchsorted(self.anchors, s))
        for j in (idx - 1, idx):
            if 0 <= j < len(self.anchors) and abs(self.anchors[j] - s) < 1e-12:
                return self.projectors[j]
        if s < self.anchors[0] - 1e-9 or s > self.anchors[-1] + 1e-9:
            raise WindowTooSmall("projector family does not cover t", abs(s))
        i = min(max(idx - 1, 0), len(self.anchors) - 2)  # s is no anchor
        D = self.op.solve_leg(self.anchors[i], self.anchors[i + 1])(s).reshape(self.op.A.n, -1)
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


def _build_half_family(op, lo, hi, P_seed, rate) -> ProjectorFamily:
    """Forward-decaying projector family on [lo, hi] by two attracting sweeps.

    ``P_seed`` is the exact projector at the data end, the end nearer 0 (lo
    when |lo| <= |hi|).  The kernel, forward-dominant, is swept forward and
    the range backward, so subspace errors contract along each sweep.  The
    seed's kernel starts the forward sweep at lo, or its range the backward
    sweep at hi; the other sweep starts, from the orthogonal complement of
    the first one's final value, past the far end by a margin of 12/rate
    clamped to [6, 30] (30 for a rate <= 0) that lets it converge first.
    """
    at_lo = abs(lo) <= abs(hi)
    ext = 30.0 if rate <= 0.0 else min(30.0, max(6.0, 12.0 / rate))
    anchors = _anchor_times(lo, hi + ext) if at_lo else _anchor_times(lo - ext, hi)
    legs = _leg_matrices(op, anchors)
    rank = int(round(np.trace(P_seed)))
    # one SVD gives both seeds: the right singular vectors past the rank span
    # the kernel of P_seed, the leading left ones its range (for an oblique
    # P_seed the trailing left ones span the range's orthogonal complement)
    U, _, Vt = np.linalg.svd(P_seed)
    seed = Vt[rank:].T if at_lo else U[:, :rank]
    seed = _orth(seed) if seed.size else seed
    if at_lo:
        K = _sweep_forward(legs, seed)
        R = _sweep_backward(legs, _orth_complement(K[-1]))
    else:
        R = _sweep_backward(legs, seed)
        K = _sweep_forward(legs, _orth_complement(R[0]))
    projectors = np.array([_oblique_projector(Ri, Ki) for Ri, Ki in zip(R, K)])
    seed_residual = float(np.linalg.norm(projectors[0 if at_lo else -1] - P_seed, 2))
    return ProjectorFamily(op, anchors, projectors, legs, seed_residual)


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


def _direct_rows(family, P, lo, hi, cap):
    """:func:`_walk` rows of the unprojected products of ``P`` from the data end of [lo, hi].

    The identity rides along each walk: where the legs' ``RTOL`` times its
    growth times ||P|| or ||I - P|| exceeds ``SLACK_TOL``, the product
    measures the legs' error rather than P, so the rows stop there.
    """
    eye = np.eye(len(P))

    def walk(start, step, act, Z0):
        rows = _walk(family, [start, start], step, act, np.stack([Z0, eye]), lo, hi, cap=cap)
        trusted = RTOL * rows[1::2, 1] * np.linalg.norm(Z0, 2) <= SLACK_TOL
        return rows[0::2][np.logical_and.accumulate(trusted)]

    def right_solve(M, Z):
        return np.linalg.solve(M.swapaxes(1, 2), Z.swapaxes(1, 2)).swapaxes(1, 2)

    if abs(lo) > abs(hi):
        return walk(len(family.anchors) - 1, -1, np.linalg.solve, eye - P)
    # mirrored check: the second inequality at t = lo reads
    # ||(I - P) Phi(lo, tau)||, built by right-multiplying inverse legs
    mirrored = walk(0, +1, right_solve, eye - P)
    return np.vstack([walk(0, +1, np.matmul, P), mirrored[:, [0, 1, 3, 2]]])


def _verify_halves(op, halves, rate, N=None, nu=None):
    """Check one pair (N, nu) on every half-line (P, lo, hi) of ``halves``.

    Each half gets one family seeded with its P at the data end
    (:func:`_build_half_family`, margin sized by ``rate``) and the chain
    samples of both branches from every anchor in [lo, hi].  A missing N or
    nu is fitted to all halves' chains at once.  Separations up to 4.6/nu
    are also measured by :func:`_direct_rows`, so that a wrong P cannot
    hide behind the chains' stabilizing projections.  Returns (families,
    N, nu, largest slack, its (t, tau) pair, pairs checked); among equal
    slacks chains come first.
    """
    families = [_build_half_family(op, lo, hi, P, rate) for P, lo, hi in halves]
    chains = [rows for fam, (_, lo, hi) in zip(families, halves)
              for rows in _chain_samples(fam, lo, hi)]
    if N is None or nu is None:
        N, nu = _envelope_fit(chains)
    groups = list(zip(chains, ("stable", "unstable") * len(halves)))
    groups += [(_direct_rows(fam, P, lo, hi, min(hi - lo, 4.6 / nu)), "direct")
               for fam, (P, lo, hi) in zip(families, halves)]
    max_slack, worst = max((_bound_violations(rows, N, nu, kind) for rows, kind in groups),
                           key=lambda check: check[0])
    return families, float(N), float(nu), max_slack, worst, sum(len(rows) for rows, _ in groups)


def verify_dichotomy(A, P, interval, N=None, nu=None, rate_hint=1.0):
    """Check the two dichotomy inequalities for ``(P, N, nu)`` on ``interval``.

    The library's one-interval check; no command calls it (``check-dichotomy``
    certifies through :func:`build_trichotomy`).  ``P`` is the projector at
    the end of ``interval`` nearer 0 (its start on a tie), where its family
    is seeded.  Runs :func:`_verify_halves` on that one interval; N and nu
    are fitted there when either is missing, and the sweeps' margin is sized
    by the supplied nu, else by ``rate_hint``.  Returns a
    :class:`DichotomyCertificate`, with ``ok`` true when the largest slack
    is within ``SLACK_TOL`` and the seed residual within ``SEED_TOL``; its
    report names the worst (t, tau) pair.
    """
    P = np.asarray(P, dtype=float)
    if np.linalg.norm(P @ P - P, 2) > 1e-10:
        raise ValueError("candidate projector is not idempotent within 1e-10")
    fit = N is None or nu is None
    if not (fit or (N >= 1.0 and nu > 0.0)):
        raise ValueError("constants must satisfy N >= 1 and nu > 0")
    lo, hi = float(interval[0]), float(interval[1])
    (family,), N, nu, max_slack, worst, pairs = _verify_halves(
        _as_operator(A), [(P, lo, hi)], rate_hint if fit else nu, N, nu)
    if hi - lo < 10.0 / nu:
        raise ValueError(f"interval length {hi - lo:.3g} is below 10/nu = {10.0 / nu:.3g}")
    report = {
        "max_slack": max_slack,
        "worst_pair": worst,
        "seed_residual": family.seed_residual,
        "pairs_checked": pairs,
        "projector_norm_max": float(np.linalg.norm(family.projectors, 2, axis=(1, 2)).max()),
    }
    ok = max_slack <= SLACK_TOL and family.seed_residual <= SEED_TOL
    return DichotomyCertificate(interval=(lo, hi), P=P, N=N, nu=nu, report=report, ok=ok)


def estimate_constants(A, P, interval, rate_hint=1.0):
    """The (N, nu) that :func:`verify_dichotomy` fits for ``P`` on ``interval``.

    The same one-interval check, ``P`` seeded at the end nearer 0; no command calls it.
    """
    cert = verify_dichotomy(A, P, interval, rate_hint=rate_hint)
    return cert.N, cert.nu


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


class TrichotomyIncompatibility(NonHyperbolicError):
    """Certified negative: both half-line dichotomies exist but their projectors do not mesh."""

    ok = False

    def __init__(self, interval, P_plus, P_minus, residual, report):
        super().__init__(
            "dichotomy on both half-lines, projections incompatible\n"
            f"  compatibility residual ||P+ P- - P-|| = {residual:.6g} "
            f"exceeds COMPAT_TOL = {COMPAT_TOL:g}\n"
            f"  rank P+ = {report['rank_plus']}, rank P- = {report['rank_minus']}"
        )
        self.interval, self.P_plus, self.P_minus = interval, P_plus, P_minus
        self.residual, self.report = residual, report


def _check_spectral_constants(op, modes, rate, N, nu, T):
    """Reject supplied (N, nu) that a constant A's exact decay violates.

    nu may exceed the spectral rate by at most cond(V) * delta, the
    Bauer-Fike radius of the numerical eigenvalues.  N must bound
    h(s) = ||e^{As} P|| e^{nu s} and ||e^{-As} (I - P)|| e^{nu s} within
    SLACK_TOL at 2001 separations s on [0, 2T], geometrically spaced to
    resolve the transient.  Returns the largest slack (h(s) - N) e^{-nu s}
    and its pair (stable from tau = -T, unstable from tau = T).
    """
    V, lam, V_inv, stable = modes
    radius = op.eig_health["cond_V"] * op.eig_health["eig_residual"]
    if nu > rate + radius:
        raise NonHyperbolicError(
            f"supplied certificate rejected: nu = {nu:.6g} exceeds the spectral "
            f"rate min |Re lam| = {rate:.6g} (eigenvalue radius {radius:.3g})"
        )
    t = np.concatenate([[0.0], np.geomspace(1e-3, 2.0 * T, 2000)])
    sup, worst = 0.0, (-math.inf, None)
    for keep, sign, kind in ((stable, 1.0, "stable"), (~stable, -1.0, "unstable")):
        if not keep.any():
            continue
        E = np.exp(np.multiply.outer(t, sign * lam[keep] + nu))
        h = np.linalg.norm(((V[:, keep] * E[:, None, :]) @ V_inv[keep]).real, 2, axis=(1, 2))
        sup = max(sup, float(h.max()))
        rows = np.column_stack([t, h * np.exp(-nu * t), sign * (t - T), np.full_like(t, -sign * T)])
        worst = max(worst, _bound_violations(rows, N, nu, kind), key=lambda c: c[0])
    if sup > N + SLACK_TOL:
        raise NonHyperbolicError(
            f"supplied certificate rejected: N = {N:.6g} is below the sampled "
            f"sup of ||Phi(t, 0) P|| e^(nu t) = {sup:.6g} on [0, {2.0 * T:.6g}]"
        )
    return worst


def _refuse_axis(lam, norm_A) -> float:
    """min |Re lam| of a constant A's eigenvalues, refused when on the imaginary axis."""
    rate = float(np.min(np.abs(lam.real)))
    bound = AXIS_TOL * max(1.0, norm_A)
    if rate <= bound:
        axis = lam[int(np.argmin(np.abs(lam.real)))]
        raise NonHyperbolicError(
            f"eigenvalue {axis:.6g} of the constant A lies on the imaginary axis: "
            f"|Re lam| = {rate:.3g} <= AXIS_TOL * max(1, ||A||_2) = {bound:.3g} "
            f"(AXIS_TOL = {AXIS_TOL:g}), so no dichotomy has a rate above {bound:.3g}")
    return rate


def _closed_form(op, T, projectors=(), N=None, nu=None):
    """(modes, dichotomy certificate of P_s on [-T, T]) of a constant A, or None.

    A has a closed form when ``op.eig`` exists: P_s = V[:, s] V^-1[s, :],
    nu = min |Re lam| and N = max(1, N_cf), N_cf = max over classes c of
    ||V[:, c]|| ||V^-1[c, :]||.  An eigenvalue with |Re lam| <= AXIS_TOL *
    max(1, ||A||_2) is a certified negative: no dichotomy has a rate above
    that bound.  That refusal reads the eigenvalues alone, so it also covers
    a constant A without ``op.eig`` (a defective one such as a Jordan
    block), which is otherwise swept.  Supplied ``projectors`` must be
    within ``SPECTRAL_TOL`` relative of P_s.  Supplied N >= N_cf with nu <= min |Re lam| follow from
    the bound ||e^{At} P|| <= N_cf e^{-nu t}; stronger ones pass
    :func:`_check_spectral_constants`, whose result the report keeps.
    """
    if op.eig is None:
        if op.constant:
            A0 = op.A.value(0.0)
            _refuse_axis(np.linalg.eigvals(A0), float(np.linalg.norm(A0, 2)))
        return None
    V, lam, V_inv = op.eig
    stable, rate = lam.real < 0.0, _refuse_axis(lam, op.eig_health["norm_A"])
    modes = (V, lam, V_inv, stable)
    P_s = (V[:, stable] @ V_inv[stable]).real
    dist = max((float(np.linalg.norm(M - P_s, 2)) for M in projectors), default=0.0)
    limit = SPECTRAL_TOL * max(1.0, float(np.linalg.norm(P_s, 2)))
    if dist > limit:
        raise NonHyperbolicError(
            "supplied certificate rejected: P or I - Q lies at distance "
            f"{dist:.6g} from the spectral stable projector of A (limit {limit:.3g})"
        )
    N_cf = max([1.0] + [float(np.linalg.norm(V[:, c], 2) * np.linalg.norm(V_inv[c], 2))
                        for c in (stable, ~stable) if c.any()])
    if N is None or nu is None:
        N, nu = N_cf, rate
    report = {key: op.eig_health[key] for key in ("eig_residual", "cond_V")}
    if not (N >= N_cf and nu <= rate):
        check = _check_spectral_constants(op, modes, rate, float(N), float(nu), T)
        report["max_slack"], report["worst_pair"] = check
    return modes, DichotomyCertificate((-T, T), P_s, float(N), float(nu), report)


def build_trichotomy(A, T, P=None, Q=None, N=None, nu=None):
    """Assemble a trichotomy certificate on [-T, T].

    A constant A with a closed form (see :func:`_closed_form`) gets P = P_s,
    Q = I - P_s and its constants; supplied ``P`` and ``I - Q`` must equal
    P_s, and supplied constants must follow from it or pass its check.

    Every other A is swept.  Both halves are estimated on ``op``'s legs:
    P+ at the start of [0, T], P- = I - Q at the end of [-T, 0] (``P_end``);
    supplied idempotent ``P``/``Q``, read at t = 0, skip the estimate.
    :func:`_verify_halves` checks P+ on [0, T] and P- on [-T, 0] with one
    (N, nu), supplied or fitted to both halves: the largest slack must be
    within ``SLACK_TOL`` and each seed residual within ``SEED_TOL``, and the
    report names both.

    Raises
    ------
    NoDichotomyDetected
        If either half-line system has no singular-value gap.
    TrichotomyIncompatibility
        If the products P+ P- and P- P+ differ from P- by more than
        ``COMPAT_TOL``: the halves do not mesh.
    NonHyperbolicError
        If A has an eigenvalue on the imaginary axis, or a projector, or
        supplied or fitted constants, are rejected.
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

    cf = _closed_form(op, T, (P_plus, P_minus) if supplied else (), N, nu)
    if cf is not None:
        modes, spectral = cf
        if not supplied:
            P_plus = P_minus = spectral.P
    elif supplied:
        rate_hint = float(nu) if nu else 1.0
    else:
        est_plus = estimate_stable_projector(op, (0.0, T))
        est_minus = estimate_stable_projector(op, (-T, 0.0))
        P_plus, P_minus = est_plus.P, est_minus.P_end
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
    if residual > COMPAT_TOL:
        raise TrichotomyIncompatibility((-T, T), P_plus, P_minus, residual, report)
    Q_mat = eye - P_minus

    if cf is not None:
        report.update(spectral.report)
        return TrichotomyCertificate(interval=(-T, T), P=P_plus, Q=Q_mat, N=spectral.N,
                                     nu=spectral.nu, report=report, modes=modes, op=op)

    families, N, nu, max_slack, worst, _ = _verify_halves(
        op, [(P_plus, 0.0, T), (P_minus, -T, 0.0)], rate_hint, N, nu)
    if max_slack > SLACK_TOL:
        raise NonHyperbolicError(
            f"certificate rejected: max slack = {max_slack:.6g} of ||Phi(t, tau) Pi(tau)|| - "
            f"N e^(-nu |t - tau|) with N = {N:.6g}, nu = {nu:.6g} exceeds SLACK_TOL = "
            f"{SLACK_TOL:g} at (t, tau) = ({worst['t']:.6g}, {worst['tau']:.6g})"
        )
    seeds = [fam.seed_residual for fam in families]
    side = int(np.argmax(seeds))
    if seeds[side] > SEED_TOL:
        raise NonHyperbolicError(
            f"certificate rejected: seed residual ||P_swept(0) - P(0)|| = {seeds[side]:.6g} "
            f"on the {('plus', 'minus')[side]} half exceeds SEED_TOL = {SEED_TOL:g}")
    report.update(seed_residual_plus=seeds[0], seed_residual_minus=seeds[1],
                  max_slack=max_slack, worst_pair=worst)
    return TrichotomyCertificate(interval=(-T, T), P=P_plus, Q=Q_mat, N=N, nu=nu, report=report,
                                 families=tuple(families), op=op)


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
    decays, re-projecting at lattice anchors.
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
