"""Exponential dichotomy and trichotomy certificates and Green kernels.

A dichotomy on an interval splits the solution space of x' = A(t)x by a
projector P into a part decaying forward at rate nu and a part decaying
backward, both with constant N.  A trichotomy is a compatible pair of
half-line dichotomies (projectors P on the plus side, Q on the minus side
with PQ = QP and P + Q - PQ = I), leaving room for a center class bounded
on the whole line.

Numerics
--------
Transition matrices over long windows mix scales like exp(+nu*t) against
exp(-nu*t), so the kernel is never evaluated by naked long products in the
growing direction.  Instead each certificate carries projector families
sampled on unit-spaced anchor times, built by two subspace sweeps:

* the kernel (non-decaying class) of the projector is seeded where it is
  known and swept in its attracting direction with QR re-orthonormalization;
* the range is seeded at the far end of an extension margin and swept back.

Subspace errors contract exponentially along each sweep, so anchors inside
the certified window are accurate even when the seed at the far end is crude.
Green-function evaluation applies the branch projector at the source time and
propagates leg by leg in the decaying direction, re-projecting at anchors to
strip the exponentially growing error component.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import null_space

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
    "green_shift_check",
    "certificate_to_json",
    "certificate_from_json",
]

GAP_THRESHOLD = 10.0
SLACK_TOL = 1e-6


class HyperbolicityError(Exception):
    """Base class for certificate construction and verification failures."""


class NoDichotomyDetected(HyperbolicityError):
    """Singular-value gap below threshold: no dichotomy detected."""

    def __init__(self, message, log_singular_values=None, gap_ratio=None):
        super().__init__(message)
        self.log_singular_values = log_singular_values
        self.gap_ratio = gap_ratio


class NonHyperbolicError(HyperbolicityError):
    """Envelope fit produced a non-positive decay rate."""


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
    return null_space(basis.T)


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


def _leg_matrices(op: TransitionOperator, anchors: np.ndarray) -> list:
    n = op.A.n
    mats = []
    for s0, s1 in zip(anchors[:-1], anchors[1:]):
        mats.append(op.solve_leg(s0, s1)(s1).reshape(n, n))
    return mats


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
    trivial: Optional[str]  # "stable", "unstable" or None
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
        rate = min(candidates) if candidates else 1.0
        return min(5.0, max(0.2, rate))


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
        trivial = "stable"
        P = np.eye(n)
        rank = n
    elif k_grow == n:
        gap = math.exp(min(700.0, logs[-1]))
        trivial = "unstable"
        P = np.zeros((n, n))
        rank = 0
    else:
        gap = math.exp(min(700.0, logs[k_grow - 1] - logs[k_grow]))
        trivial = None
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
        trivial=trivial,
        span=hi - lo,
    )


class ProjectorFamily:
    """Projector samples on anchor times, with leg-wise projected transport.

    ``projectors[i]`` is the branch projector at ``anchors[i]``; between
    anchors the projector is conjugated through the cached dense leg, a
    short sandwich that cannot amplify error by more than exp(2*nu).
    ``orientation`` records the decay direction of the range: "forward"
    for a stable-type projector, "backward" for an unstable-type one.
    """

    def __init__(self, op, anchors, projectors, rank, t_ref, seed_residual, orientation):
        self.op = op
        self.anchors = np.asarray(anchors, dtype=float)
        self.projectors = projectors
        self.rank = rank
        self.t_ref = float(t_ref)
        self.seed_residual = seed_residual
        self.orientation = orientation

    @property
    def lo(self) -> float:
        return float(self.anchors[0])

    @property
    def hi(self) -> float:
        return float(self.anchors[-1])

    def forward_decaying(self, i: int) -> np.ndarray:
        """Projector at anchor i whose image decays forward."""
        if self.orientation == "forward":
            return self.projectors[i]
        return np.eye(self.op.A.n) - self.projectors[i]

    def backward_decaying(self, i: int) -> np.ndarray:
        if self.orientation == "forward":
            return np.eye(self.op.A.n) - self.projectors[i]
        return self.projectors[i]

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


def _sweep_family(
    op: TransitionOperator,
    anchors: np.ndarray,
    rank: int,
    seed_basis: np.ndarray,
    data_end: str,
    orientation: str,
    seed_P: Optional[np.ndarray] = None,
) -> ProjectorFamily:
    """Build a projector family by two attracting subspace sweeps.

    The sweep directions are fixed by ``orientation``: for a forward-decaying
    range the kernel is the forward-dominant class (swept forward, errors
    contract) and the range is backward-dominant (swept backward); for a
    backward-decaying range both directions flip.  ``data_end`` names the
    end where exact projector data is available; the basis whose sweep
    starts there is seeded with ``seed_basis`` and the other basis starts
    at the opposite end as the orthogonal complement of the first sweep's
    final value.
    """
    m = len(anchors) - 1
    legs = _leg_matrices(op, anchors)
    if orientation == "forward":
        # kernel sweeps forward (starts at lo), range backward (starts at hi)
        if data_end == "lo":
            K = _sweep_forward(legs, _orth(seed_basis) if seed_basis.size else seed_basis)
            R = _sweep_backward(legs, _orth_complement(K[m]))
        else:
            R = _sweep_backward(legs, _orth(seed_basis) if seed_basis.size else seed_basis)
            K = _sweep_forward(legs, _orth_complement(R[0]))
    elif orientation == "backward":
        # kernel sweeps backward (starts at hi), range forward (starts at lo)
        if data_end == "hi":
            K = _sweep_backward(legs, _orth(seed_basis) if seed_basis.size else seed_basis)
            R = _sweep_forward(legs, _orth_complement(K[0]))
        else:
            R = _sweep_forward(legs, _orth(seed_basis) if seed_basis.size else seed_basis)
            K = _sweep_backward(legs, _orth_complement(R[m]))
    else:
        raise ValueError("orientation must be 'forward' or 'backward'")

    projectors = [_oblique_projector(R[i], K[i]) for i in range(m + 1)]
    t_ref = anchors[0] if data_end == "lo" else anchors[-1]
    seed_residual = None
    if seed_P is not None:
        ref_idx = 0 if data_end == "lo" else m
        seed_residual = float(np.linalg.norm(projectors[ref_idx] - seed_P, 2))
    return ProjectorFamily(op, anchors, projectors, rank, t_ref, seed_residual, orientation)


def _range_basis(P: np.ndarray, rank: int) -> np.ndarray:
    U, sig, _ = np.linalg.svd(P)
    return U[:, :rank]


def _build_half_family(
    op, lo, hi, P_seed, data_end, rate_hint, orientation="forward"
) -> ProjectorFamily:
    """Family for one half-line dichotomy, extended past the far end.

    The extension margin gives the complement-seeded sweep room to converge
    before it enters the certified window.
    """
    ext = float(min(30.0, max(6.0, 12.0 / rate_hint)))
    rank = int(round(np.trace(P_seed)))
    if data_end == "lo":
        anchors = _anchor_times(lo, hi + ext)
    else:
        anchors = _anchor_times(lo - ext, hi)
    # seed with whichever basis is exact at the data end: the one whose
    # sweep starts there
    kernel_starts_at_data = (orientation == "forward") == (data_end == "lo")
    if kernel_starts_at_data:
        seed = null_space(P_seed)
        if seed.shape[1] != op.A.n - rank:
            U, sig, _ = np.linalg.svd(P_seed)
            seed = U[:, sig < 0.5]
    else:
        seed = _range_basis(P_seed, rank)
    return _sweep_family(op, anchors, rank, seed, data_end, orientation, seed_P=P_seed)


def _chain_norm_samples(family: ProjectorFamily, lo, hi, direction: str):
    """Norm samples ||Phi(t, tau) Pi(tau)|| on anchor pairs inside [lo, hi].

    ``direction="forward"`` transports the forward-decaying projector up in
    time; ``direction="backward"`` transports the backward-decaying one down.
    Mid-chain re-projection is an exact identity in exact arithmetic and
    strips the exponentially growing numerical error component.
    """
    anchors = family.anchors
    inside = [i for i, s in enumerate(anchors) if lo - 1e-9 <= s <= hi + 1e-9]
    legs = _leg_matrices(family.op, anchors)
    samples = []
    for start in inside:
        if direction == "forward":
            Z = family.forward_decaying(start)
            samples.append((0.0, float(np.linalg.norm(Z, 2)), anchors[start], anchors[start]))
            for j in range(start, len(anchors) - 1):
                if anchors[j + 1] > hi + 1e-9:
                    break
                Z = family.forward_decaying(j + 1) @ (legs[j] @ Z)
                samples.append(
                    (
                        float(anchors[j + 1] - anchors[start]),
                        float(np.linalg.norm(Z, 2)),
                        anchors[j + 1],
                        anchors[start],
                    )
                )
        else:
            Z = family.backward_decaying(start)
            samples.append((0.0, float(np.linalg.norm(Z, 2)), anchors[start], anchors[start]))
            for j in range(start - 1, -1, -1):
                if anchors[j] < lo - 1e-9:
                    break
                Z = family.backward_decaying(j) @ np.linalg.solve(legs[j], Z)
                samples.append(
                    (
                        float(anchors[start] - anchors[j]),
                        float(np.linalg.norm(Z, 2)),
                        anchors[j],
                        anchors[start],
                    )
                )
    return samples


def _envelope_fit(sample_groups):
    """Least-squares log-linear envelope over (separation, norm) samples.

    Fits ln g against separation for each group, takes the slowest decay
    rate, shrinks it by the 5% safety margin, then picks the smallest
    constant N >= 1 making every sample satisfy g <= N exp(-nu*sep).
    """
    rates = []
    for samples in sample_groups:
        if not samples:
            continue
        buckets = {}
        for sep, g, _, _ in samples:
            if g <= 0.0:
                continue
            key = round(sep, 9)
            buckets[key] = max(buckets.get(key, 0.0), g)
        if len(buckets) < 2:
            continue
        seps = np.array(sorted(buckets))
        logs = np.log(np.array([buckets[s] for s in seps]))
        slope = np.polyfit(seps, logs, 1)[0]
        rates.append(-slope)
    if not rates:
        raise NonHyperbolicError("no decay samples available for the envelope fit")
    nu_fit = min(rates)
    if nu_fit <= 0.0:
        raise NonHyperbolicError(
            f"fitted decay rate {nu_fit:.3g} is not positive: non-hyperbolic"
        )
    nu_hat = 0.95 * nu_fit
    log_N = 0.0
    for samples in sample_groups:
        for sep, g, _, _ in samples:
            if g > 0.0:
                log_N = max(log_N, math.log(g) + nu_hat * sep)
    return float(math.exp(log_N)), float(nu_hat)


def estimate_constants(A, P, interval):
    """Fit dichotomy constants (N, nu) for projector ``P`` on ``interval``.

    Measures both decay branches on anchor pairs, fits a log-linear envelope
    per branch, shrinks the rate by 5% and returns the smallest admissible
    constant for the shrunk rate.  Raises :class:`NonHyperbolicError` when
    the fitted rate is not positive (e.g. a rotation).
    """
    op = _as_operator(A)
    lo, hi = float(interval[0]), float(interval[1])
    P = np.asarray(P, dtype=float)
    data_end = "lo" if abs(lo) <= abs(hi) else "hi"
    est_hint = 1.0
    try:
        est_hint = estimate_stable_projector(op, (lo, hi)).rate_hint
    except (HyperbolicityError, ValueError):
        pass
    family = _build_half_family(op, lo, hi, P, data_end, est_hint)
    stable = _chain_norm_samples(family, lo, hi, "forward")
    unstable = _chain_norm_samples(family, lo, hi, "backward")
    groups = [s for s in (stable, unstable) if any(g > 1e-300 for _, g, _, _ in s)]
    return _envelope_fit(groups)


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
    worst = None
    max_slack = -math.inf
    for sep, g, t, tau in samples:
        slack = g - N * math.exp(-nu * sep)
        if slack > max_slack:
            max_slack = slack
            worst = {"t": float(t), "tau": float(tau), "norm": g, "kind": kind}
    return max_slack, worst


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
    n = op.A.n
    data_end = "lo" if abs(lo) <= abs(hi) else "hi"
    family = _build_half_family(op, lo, hi, P, data_end, max(0.2, min(5.0, nu)))

    stable = _chain_norm_samples(family, lo, hi, "forward")
    unstable = _chain_norm_samples(family, lo, hi, "backward")
    slack_s, worst_s = _bound_violations(stable, N, nu, "stable")
    slack_u, worst_u = _bound_violations(unstable, N, nu, "unstable")

    # direct short-separation products anchored at the projector's reference
    # time: these use the candidate P itself, no stabilizing projections
    direct_cap = min(hi - lo, 4.6 / nu)
    t_ref = family.t_ref
    direct = []
    anchors = family.anchors
    legs = _leg_matrices(op, anchors)
    ref_idx = int(np.argmin(np.abs(anchors - t_ref)))
    fwd = P.copy()
    sep = 0.0
    i = ref_idx
    while i < len(anchors) - 1 and sep + (anchors[i + 1] - anchors[i]) <= direct_cap + 1e-9:
        fwd = legs[i] @ fwd
        i += 1
        sep = anchors[i] - t_ref
        if anchors[i] <= hi + 1e-9:
            direct.append((float(sep), float(np.linalg.norm(fwd, 2)), float(anchors[i]), float(t_ref)))
    bwd = np.eye(n) - P
    sep = 0.0
    i = ref_idx
    while i > 0 and sep + (anchors[i] - anchors[i - 1]) <= direct_cap + 1e-9:
        bwd = np.linalg.solve(legs[i - 1], bwd)
        i -= 1
        sep = t_ref - anchors[i]
        if anchors[i] >= lo - 1e-9:
            direct.append((float(sep), float(np.linalg.norm(bwd, 2)), float(anchors[i]), float(t_ref)))
    # mirrored direct check at the reference end: the second inequality
    # evaluated at t = t_ref reads ||(I - P) Phi(t_ref, tau)||, computed by
    # inverting the short forward product, again with the candidate P itself
    if data_end == "lo":
        comp = np.eye(n) - P
        prod = np.eye(n)
        i = ref_idx
        sep = 0.0
        while i < len(anchors) - 1 and sep + (anchors[i + 1] - anchors[i]) <= direct_cap + 1e-9:
            prod = legs[i] @ prod
            i += 1
            sep = anchors[i] - t_ref
            back = np.linalg.solve(prod.T, comp.T).T  # comp @ prod^{-1}
            direct.append(
                (float(sep), float(np.linalg.norm(back, 2)), float(t_ref), float(anchors[i]))
            )
    slack_d, worst_d = _bound_violations(direct, N, nu, "direct") if direct else (-math.inf, None)

    max_slack = max(slack_s, slack_u, slack_d)
    worst = max(
        [w for w in (worst_s, worst_u, worst_d) if w is not None],
        key=lambda w: w["norm"] - N * math.exp(-nu * abs(w["t"] - w["tau"])),
        default=None,
    )
    seed_res = family.seed_residual if family.seed_residual is not None else 0.0
    report = {
        "max_slack": float(max_slack),
        "worst_pair": worst,
        "seed_residual": float(seed_res),
        "pairs_checked": len(stable) + len(unstable) + len(direct),
        "projector_norm_max": float(
            max(np.linalg.norm(Pk, 2) for Pk in family.projectors)
        ),
    }
    ok = max_slack <= SLACK_TOL and seed_res <= 1e-5
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
    ``P3 = R = P @ Q`` bounded both ways.
    """

    interval: tuple
    P: np.ndarray
    Q: np.ndarray
    N: float
    nu: float
    report: dict = field(default_factory=dict)
    ok: bool = True
    # the sweeps of build_trichotomy, reused by GreenKernel; None when read from JSON
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


def build_trichotomy(A, T, P=None, Q=None, N=None, nu=None):
    """Assemble a trichotomy certificate on [-T, T] from two half dichotomies.

    Estimates the stable projector P+ of the forward half on [0, T] and the
    stable projector of the time-reversed system on [0, T] (equivalently the
    backward-decaying class at 0, giving P- = I - Q).  If the compatibility
    products P+ P- and P- P+ differ from P- by more than 1e-6 the halves do
    not mesh and a :class:`TrichotomyIncompatibility` report is returned.
    User-supplied ``P``/``Q`` (and constants) skip the estimation step and
    are verified instead.

    Raises
    ------
    NoDichotomyDetected
        If either half-line system has no singular-value gap.
    """
    T = float(T)
    op = _as_operator(A)
    n = op.A.n
    eye = np.eye(n)

    if P is not None and Q is not None:
        P_plus = np.asarray(P, dtype=float)
        P_minus = eye - np.asarray(Q, dtype=float)
        for M, name in ((P_plus, "P"), (eye - P_minus, "Q")):
            if np.linalg.norm(M @ M - M, 2) > 1e-10:
                raise ValueError(f"candidate projector {name} is not idempotent")
        rate_hint = float(nu) if nu else 1.0
        estimated = False
    else:
        est_plus = estimate_stable_projector(op, (0.0, T))
        rev_op = TransitionOperator(op.A.reversed())
        est_minus = estimate_stable_projector(rev_op, (0.0, T))
        P_plus = est_plus.P
        # the reversed system's stable class at 0 is the class decaying
        # backward in original time, i.e. the range of Q; P- = I - Q
        P_minus = eye - est_minus.P
        rate_hint = min(est_plus.rate_hint, est_minus.rate_hint)
        estimated = True

    residual = max(
        float(np.linalg.norm(P_plus @ P_minus - P_minus, 2)),
        float(np.linalg.norm(P_minus @ P_plus - P_minus, 2)),
    )
    report = {
        "compatibility_residual": residual,
        "estimated": estimated,
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
    fam_plus = _build_half_family(op, 0.0, T, P_plus, "lo", rate_hint)
    fam_minus = _build_half_family(
        op, -T, 0.0, Q_mat, "hi", rate_hint, orientation="backward"
    )

    if N is None or nu is None:
        groups = [
            _chain_norm_samples(fam_plus, 0.0, T, "forward"),
            _chain_norm_samples(fam_plus, 0.0, T, "backward"),
            _chain_norm_samples(fam_minus, -T, 0.0, "forward"),
            _chain_norm_samples(fam_minus, -T, 0.0, "backward"),
        ]
        groups = [g for g in groups if any(v > 1e-300 for _, v, _, _ in g)]
        N_hat, nu_hat = _envelope_fit(groups)
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
    Every branch propagates its projected content in the direction where it
    decays, re-projecting at unit anchors, so evaluation stays stable over
    arbitrarily long windows.  For a half-line dichotomy only the first two
    branches exist.
    """

    def __init__(self, A, cert):
        self.cert = cert
        if isinstance(cert, TrichotomyCertificate):
            self.mode = "line"
            self.op = cert.op if cert.op is not None else _as_operator(A)
            fams = cert.families
            if fams is None:
                T = cert.interval[1]
                hint = max(0.2, min(5.0, cert.nu))
                fams = (
                    _build_half_family(self.op, 0.0, T, cert.P, "lo", hint),
                    _build_half_family(
                        self.op, -T, 0.0, cert.Q, "hi", hint, orientation="backward"
                    ),
                )
            self.fam_plus, self.fam_minus = fams
        elif isinstance(cert, DichotomyCertificate):
            if not cert.ok:
                rep = cert.report
                raise ValueError(
                    f"uncertified dichotomy (max_slack = {rep.get('max_slack', math.nan):.3g}, "
                    f"seed_residual = {rep.get('seed_residual', math.nan):.3g}): no Green kernel"
                )
            lo, hi = cert.interval
            if lo < 0:
                raise ValueError(
                    "dichotomy kernels expect a forward half-line interval"
                )
            self.mode = "halfline"
            self.op = _as_operator(A)
            hint = max(0.2, min(5.0, cert.nu))
            self.fam_plus = _build_half_family(self.op, lo, hi, cert.P, "lo", hint)
            self.fam_minus = None
        else:
            raise TypeError("cert must be a dichotomy or trichotomy certificate")
        self.A = self.op.A
        self.window = tuple(float(x) for x in cert.interval)
        # Green-quadrature plans of the solver sweeps, built on first use:
        # (a0, a1, s0, s1, grid origin, grid step) -> plan of that clipped leg
        self.plans = {}

    @property
    def n(self) -> int:
        return self.A.n

    def stable_projector(self, s: float) -> np.ndarray:
        """Projector whose image decays forward at time s (sweep map)."""
        if self.mode == "halfline" or s >= 0.0:
            return self.fam_plus.projector(s)
        return np.eye(self.n) - self.fam_minus.projector(s)

    def unstable_projector(self, s: float) -> np.ndarray:
        """Projector whose image decays backward at time s."""
        if self.mode == "halfline" or s >= 0.0:
            return np.eye(self.n) - self.fam_plus.projector(s)
        return self.fam_minus.projector(s)

    def _check_window(self, *times):
        lo, hi = self.window
        for x in times:
            if x < lo - 1e-9 or x > hi + 1e-9:
                raise WindowTooSmall(
                    f"time {x:.6g} outside certified window [{lo:.6g}, {hi:.6g}]",
                    abs(x),
                )

    def _family_anchors(self):
        a = list(self.fam_plus.anchors)
        if self.fam_minus is not None:
            a = list(self.fam_minus.anchors[:-1]) + a
        return np.asarray(a)

    def _transport(self, Z, tau, t, proj_at):
        """Carry Z from tau to t leg by leg, re-projecting at anchors.

        ``proj_at`` maps an anchor time to the projector that is an exact
        identity on the transported content; it strips the error component
        that grows in the direction of travel.
        """
        anchors = self._family_anchors()
        op = self.op
        n = self.n
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
            a0, a1 = anchors[i], anchors[i + 1]
            if hi > a1 + 1e-9:
                i += 1
                a0, a1 = anchors[i], anchors[i + 1]
            sol = op.solve_leg(a0, a1)
            D_cur = sol(cur).reshape(n, n)
            D_stop = sol(stop).reshape(n, n)
            Z = D_stop @ np.linalg.solve(D_cur, Z)
            if stop != t:
                Z = proj_at(stop) @ Z
            cur = stop
        return Z

    def matrix(self, t: float, tau: float, side: Optional[str] = None) -> np.ndarray:
        """Green matrix G(t, tau); ``side`` picks the branch when t == tau.

        ``side='+'`` gives the limit from t > tau, ``side='-'`` from t < tau;
        their difference at t == tau is the identity (the kernel's jump).
        """
        t, tau = float(t), float(tau)
        self._check_window(t, tau)
        if t == tau and side is None:
            raise ValueError("G(t, t) is two-valued; pass side='+' or side='-'")
        upper = t > tau or (t == tau and side == "+")
        if self.mode == "halfline" or tau >= 0.0:
            if upper:
                Z0, sign, proj = self.fam_plus.projector(tau), 1.0, self.stable_projector
            else:
                Z0, sign, proj = (
                    np.eye(self.n) - self.fam_plus.projector(tau),
                    -1.0,
                    self.unstable_projector,
                )
        else:
            if upper:
                Z0, sign, proj = (
                    np.eye(self.n) - self.fam_minus.projector(tau),
                    1.0,
                    self.stable_projector,
                )
            else:
                Z0, sign, proj = self.fam_minus.projector(tau), -1.0, self.unstable_projector
        return sign * self._transport(Z0, tau, t, proj)

    def build_shifted(self, h: float):
        """Kernel of the time-shifted system A(t + h) on the same window."""
        A_h = self.A.shifted(h)
        cert = self.cert
        if isinstance(cert, TrichotomyCertificate):
            if cert.report.get("estimated", False):
                new = build_trichotomy(A_h, cert.interval[1])
            else:
                new = build_trichotomy(
                    A_h,
                    cert.interval[1],
                    P=_shifted_projector(self.op, cert.P, h),
                    Q=_shifted_projector(self.op, cert.Q, h),
                    N=cert.N,
                    nu=cert.nu,
                )
            if not new.ok:
                raise HyperbolicityError(
                    "shifted system lost its trichotomy; shift too large?"
                )
            return GreenKernel(A_h, new)
        lo, hi = cert.interval
        P_h = _shifted_projector(self.op, cert.P, h, base=lo)
        new = DichotomyCertificate(
            interval=(lo, hi), P=P_h, N=cert.N, nu=cert.nu, report=dict(cert.report)
        )
        return GreenKernel(A_h, new)


def _shifted_projector(op, P, h, base=0.0):
    """Projector of the shifted system at its time origin: P(base + h)."""
    n = op.A.n
    M = op.matrix(base, base + h)
    return M @ P @ np.linalg.inv(M)


def green_shift_check(kernel: GreenKernel, h: float, pairs=None) -> float:
    """Max residual of the shift identity G_h(t, tau) = G(t + h, tau + h).

    Rebuilds the kernel for the shifted coefficient A(. + h) and compares it
    against the original kernel on a grid of (t, tau) pairs (a default grid
    spans the shrunk window when none is given).  Small residuals are strong
    evidence both kernels were assembled consistently, since the two sides
    go through entirely independent certificate constructions.
    """
    shifted = kernel.build_shifted(h)
    lo, hi = kernel.window
    s_lo, s_hi = lo + max(0.0, -h), hi - max(0.0, h)
    if pairs is None:
        taus = np.linspace(s_lo, s_hi, 7)
        seps = [-4.0, -1.5, -0.5, 0.5, 1.5, 4.0]
        pairs = []
        for tau in taus:
            for d in seps:
                t = tau + d
                if s_lo <= t <= s_hi:
                    pairs.append((t, tau))
    worst = 0.0
    for t, tau in pairs:
        Gh = shifted.matrix(t, tau)
        G = kernel.matrix(t + h, tau + h)
        worst = max(worst, float(np.linalg.norm(Gh - G, 2)))
    return worst


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


def certificate_from_json(data) -> object:
    """Rebuild a certificate object from :func:`certificate_to_json` output."""
    if isinstance(data, str):
        data = json.loads(data)
    kind = data.get("type")
    if kind == "dichotomy":
        return DichotomyCertificate(
            interval=tuple(data["interval"]),
            P=np.asarray(data["P"], dtype=float),
            N=float(data["N"]),
            nu=float(data["nu"]),
            report=data.get("report", {}),
            ok=bool(data.get("ok", True)),
        )
    if kind == "trichotomy":
        if data.get("ok", True):
            return TrichotomyCertificate(
                interval=tuple(data["interval"]),
                P=np.asarray(data["P"], dtype=float),
                Q=np.asarray(data["Q"], dtype=float),
                N=float(data["N"]),
                nu=float(data["nu"]),
                report=data.get("report", {}),
            )
        return TrichotomyIncompatibility(
            interval=tuple(data["interval"]),
            P_plus=np.asarray(data["P_plus"], dtype=float),
            P_minus=np.asarray(data["P_minus"], dtype=float),
            residual=float(data["compatibility_residual"]),
            report=data.get("report", {}),
        )
    raise ValueError(f"unknown certificate type {kind!r}")
