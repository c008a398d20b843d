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
(``TransitionOperator.eig``) is certified in closed form, with no leg, or
refused for an eigenvalue on the imaginary axis (Coppel, Dichotomies in
Stability Theory, LNM 629, 1978; see :func:`_closed_form`); every other A
is estimated and swept on Magnus legs.  One half-line check,
:func:`_verify_halves`, certifies each half of a swept trichotomy: the
printed constants are fitted, or supplied and checked, on the chain norms
of the window they cover, and the candidate P itself must pass direct
products and its seed residual.

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

The two sweeps and the passes of a chain walk are recurrences: each step
needs the one before it.  So every half's data-end sweep advances in
lockstep, then every far-end sweep, each step one stacked matmul per basis
width (:func:`_sweeps`), after which a one-column basis is divided by its
norm and a wider one goes through one stacked qr (:func:`_orthonormal`);
a walk (:func:`_walk`) finds every chain's lifetime before its first pass,
so that a pass is only its gathers and matrix products.  Nothing in a
sweep or walk solves: a stage's legs are inverted once, by one stacked
``inv`` (:func:`_inverse_legs`), and backward sweeps and walks multiply by
the inverse legs.  The legs are integrated in one batch per stage
(:func:`_integrate_lattices`): both estimate windows' legs, then all
families' legs.  ``expm`` picks its Pade degree per matrix, so a leg's
bits do not depend on its batch-mates.  Every other stage is one stacked
call for all anchors: the leg matrices are read off the legs' last nodes
(:func:`_leg_matrices`), so a certificate fits no leg's dense output;
every anchor's oblique projector comes from one ``cond`` and one ``inv``
(:func:`_oblique_projectors`), both halves' chains of one branch share
each pass of one walk (:func:`_chain_samples`), and a walk's 2-norms are
taken once, after its last pass, by :func:`_norms`: in closed form from
the Gram matrix for n <= 2, by LAPACK's SVD for n >= 3.  Each gives
bitwise the result of its per-anchor form on the same primitives.  Against
the per-step ``solve``, ``qr`` and SVD calls these replaced, the norms
agree within 8 eps relative, the families seeded with true projectors
within 1e-14 of their largest entry, and over 75 benchmark solves N and nu
moved by at most 4.4e-16 relative and the solution by 2.9e-15 of its sup.

A norm that is not finite measures nothing, so no bound is checked on it:
:func:`_verify_halves` refuses it by its branch and (t, tau) pair, and a
NaN slack or seed residual is refused too, as a :class:`HyperbolicityError`
(exit 1), not a certified negative.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
# largest cond([R, K]) at which a range basis R and a kernel basis K count as
# transversal, so that the projector they define is formed
TANGENCY_COND_MAX = 1e12


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


def _norms(Z) -> np.ndarray:
    """2-norms of the (k, n, n) stack ``Z``, in closed form for n <= 2.

    For n = 2, sigma_max = sqrt((p + q)/2 + hypot((p - q)/2, r)) with p, q
    and r the entries of the Gram matrix Z^T Z.  Each matrix is first
    divided by the power of two that puts its largest entry in [1, 2), which
    is exact, so no square overflows, and a square that underflows is below
    2^-1000 of the largest: entries from 1e-300 to 1e300 keep their digits.
    For n = 1 the norm is |z|, and for n >= 3 LAPACK's SVD, as
    ``np.linalg.norm(Z, 2, axis=(1, 2))``.  A matrix with a NaN entry has
    norm NaN, and one with an infinite entry (and no NaN) inf, without an
    SVD.
    """
    big = np.max(np.abs(Z), axis=(1, 2), initial=0.0)
    finite = np.isfinite(big)
    n = Z.shape[-1]
    if n == 1:
        return big
    if n >= 3:
        out = big.copy()
        out[finite] = np.linalg.norm(Z[finite], 2, axis=(1, 2))
        return out
    scale = np.ldexp(1.0, np.frexp(np.where(finite, big, 1.0))[1] - 1)
    Y = np.where(finite[:, None, None], Z, 0.0) / scale[:, None, None]
    p, q = np.sum(Y * Y, axis=1).T
    r = np.sum(Y[:, :, 0] * Y[:, :, 1], axis=1)
    return np.where(finite, scale * np.sqrt((p + q) / 2.0 + np.hypot((p - q) / 2.0, r)), big)


def _oblique_projectors(anchors, R, K) -> np.ndarray:
    """Projector with range ``R[i]`` and kernel ``K[i]`` (columns are bases) at every anchor.

    ``R`` and ``K`` list the bases at ``anchors``; the result is (m, n, n).
    One stacked ``cond`` and one stacked ``inv`` serve every anchor.  The
    refusal names the first anchor, in anchor order, whose [R, K] is
    singular or has a condition number above ``TANGENCY_COND_MAX``.
    """
    R = np.stack(R)
    X = np.concatenate([R, np.stack(K)], axis=2)
    m, n, k = R.shape
    if X.shape != (m, n, n):
        raise ValueError("range and kernel dimensions must add up to n")
    cond = np.linalg.cond(X)
    tangent = ~(cond <= TANGENCY_COND_MAX)
    if tangent.any():
        i = int(np.argmax(tangent))
        raise NonHyperbolicError(
            f"range and kernel subspaces are nearly tangent at t = {anchors[i]:.6g}: "
            f"cond([R, K]) = {cond[i]:.3g} exceeds TANGENCY_COND_MAX = {TANGENCY_COND_MAX:g}"
        )
    return R @ np.linalg.inv(X)[:, :k, :]


def _as_operator(A) -> TransitionOperator:
    if isinstance(A, TransitionOperator):
        return A
    return TransitionOperator(A)


def _anchor_times(lo: float, hi: float) -> np.ndarray:
    """lo, the integers in (lo, hi) more than 1e-9 from both ends, then hi."""
    inner = np.arange(math.floor(lo + 1e-9) + 1, math.ceil(hi - 1e-9), dtype=float)
    return np.concatenate([[lo], inner, [hi]])


def _integrate_lattices(op: TransitionOperator, lattices) -> None:
    """Integrate the legs between consecutive anchors of every lattice in one batch.

    A stage that reads several lattices calls this first, so that their
    missing legs share one :meth:`TransitionOperator.solve_legs` batch.
    """
    op.solve_legs([span for anchors in lattices for span in zip(anchors[:-1], anchors[1:])])


def _leg_matrices(op: TransitionOperator, anchors: np.ndarray) -> np.ndarray:
    """Phi(anchors[i + 1], anchors[i]) of every leg: (m - 1, n, n).

    The missing legs are integrated in one batch, and each leg's matrix is
    its last node.
    """
    return np.stack([leg.Y[-1] for leg in op.solve_legs(zip(anchors[:-1], anchors[1:]))])


def _scaled_product_svd(mats, anchors):
    """SVD of the ordered product mats[-1] @ ... @ mats[0], overflow-safe.

    ``mats[i]`` is the leg from ``anchors[i]`` to ``anchors[i + 1]``.
    Returns (U, log_sigma, Vt) with log_sigma descending; the product is
    rescaled leg by leg, which changes singular values by a common factor
    tracked in log space and leaves singular vectors untouched.
    """
    n = mats[0].shape[0]
    B = np.eye(n)
    log_scale = 0.0
    for i, M in enumerate(mats):
        B = M @ B
        s = np.linalg.norm(B)
        if not np.isfinite(s) or s == 0.0:
            what = "vanished" if s == 0.0 else "overflowed"
            raise NonHyperbolicError(
                f"transition product overflowed or vanished: it {what} on leg "
                f"[{anchors[i]:.6g}, {anchors[i + 1]:.6g}], where its Frobenius norm, "
                f"1 before that leg, became {s:.3g}"
            )
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
        raise ValueError(f"estimation interval [{lo:.6g}, {hi:.6g}] is {hi - lo:.6g} time units "
                         "long, below the 10 an estimate needs")
    op = _as_operator(A)
    n = op.A.n
    anchors = _anchor_times(lo, hi)
    U, logs, Vt = _scaled_product_svd(_leg_matrices(op, anchors), anchors)
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
    from ``anchors[i]`` to ``anchors[i + 1]``, and ``inv_legs`` their
    inverses, from one stacked ``inv`` (:func:`_inverse_legs`), which every
    backward sweep and walk multiplies by.  ``seed_residual`` is the
    distance, at the data end, between the swept projector and the one the
    family was seeded with.
    """

    def __init__(self, anchors, projectors, legs, inv_legs, seed_residual):
        self.anchors = np.asarray(anchors, dtype=float)
        self.projectors = projectors
        self.legs = legs
        self.inv_legs = inv_legs
        self.seed_residual = seed_residual


def _family_anchors(lo: float, hi: float, rate: float) -> np.ndarray:
    """The anchors of a half family on [lo, hi], past its far end by a margin.

    The data end is the end nearer 0 (lo when |lo| <= |hi|); the margin
    beyond the other end is 12/rate clamped to [6, 30] (30 for a rate <= 0).
    """
    ext = 30.0 if rate <= 0.0 else min(30.0, max(6.0, 12.0 / rate))
    return _anchor_times(lo, hi + ext) if abs(lo) <= abs(hi) else _anchor_times(lo - ext, hi)


def _orthonormal(B) -> np.ndarray:
    """Orthonormal bases of the spans of the (k, n, w) stack ``B``, w >= 1.

    A one-column basis is divided by its norm; a wider one is the Q of one
    stacked ``qr``.
    """
    if B.shape[2] == 1:
        return B / np.linalg.norm(B, axis=1, keepdims=True)
    return np.linalg.qr(B)[0]


def _sweeps(mats, seeds, forward, orth=False):
    """Sweeps of every basis ``seeds[i]`` through the matrices ``mats[i]``, all in lockstep.

    Sweep i multiplies by ``mats[i]`` in order when ``forward[i]``, else in
    reverse order (a backward sweep is given the inverse legs), and
    re-orthonormalizes after each step (:func:`_orthonormal`; the seeds
    first when ``orth``); a zero-width basis passes through.  A shorter
    sweep is padded with identity matrices after its last step, whose bases
    are dropped, so each step is one stacked matmul and one orthonormalization
    per basis width.  Returns each sweep's (m, n, width) bases in anchor order.
    """
    n, steps = len(seeds[0]), max(len(M) for M in mats)
    eye = np.broadcast_to(np.eye(n), (steps, n, n))
    out = [np.broadcast_to(B, (steps + 1,) + B.shape) for B in seeds]
    for w in {B.shape[1] for B in seeds} - {0}:
        sweeps = [i for i, B in enumerate(seeds) if B.shape[1] == w]
        M = np.stack([np.concatenate([mats[i] if forward[i] else mats[i][::-1], eye[len(mats[i]):]])
                      for i in sweeps], axis=1)
        B = [np.stack([seeds[i] for i in sweeps])]
        if orth:
            B = [_orthonormal(B[0])]
        for Ms in M:
            B.append(_orthonormal(Ms @ B[-1]))
        for i, bases in zip(sweeps, np.stack(B, axis=1)):
            out[i] = bases
    return [B[:len(M) + 1] if f else B[len(M)::-1] for B, M, f in zip(out, mats, forward)]


def _inverse_legs(lattices, legs) -> list:
    """The inverse of every leg of ``legs[i]`` on ``lattices[i]``, from one stacked ``inv``.

    A leg that does not invert, because LAPACK meets a zero pivot, or the
    leg or its inverse is not finite, is refused by its span [t0, t1].
    """
    stack = np.concatenate(legs)
    try:
        inv = np.linalg.inv(stack)
        bad = ~np.isfinite(inv).all(axis=(1, 2))
    except np.linalg.LinAlgError:  # det meets the same zero pivot
        with np.errstate(invalid="ignore"):
            inv, bad = None, np.linalg.det(stack) == 0.0
    bad |= ~np.isfinite(stack).all(axis=(1, 2))
    if bad.any():
        t0, t1 = np.concatenate([np.column_stack([a[:-1], a[1:]]) for a in lattices])[np.argmax(bad)]
        raise HyperbolicityError(
            f"the transition matrix of the leg [{t0:.6g}, {t1:.6g}] does not invert: it is "
            "singular or not finite, or its inverse is not finite")
    return np.split(inv, np.cumsum([len(M) for M in legs[:-1]]))


def _build_families(op, halves, rate) -> list:
    """Forward-decaying projector families on the half-lines (P_seed, lo, hi) of ``halves``.

    ``P_seed`` is the exact projector at the data end, the end nearer 0 (lo
    when |lo| <= |hi|).  The kernel, forward-dominant, is swept forward and
    the range backward, so subspace errors contract along each sweep.  The
    seed's kernel starts the forward sweep at lo, or its range the backward
    sweep at hi; the other sweep starts, from the orthogonal complement of
    the first one's final value, past the far end by the margin of
    :func:`_family_anchors`, which lets it converge first.  All halves'
    missing legs are integrated in one batch and inverted in one stacked
    call; every half's data-end sweep then advances in lockstep with the
    others' (:func:`_sweeps`), and after them every far-end sweep.
    """
    at_lo = [abs(lo) <= abs(hi) for _, lo, hi in halves]
    anchors = [_family_anchors(lo, hi, rate) for _, lo, hi in halves]
    _integrate_lattices(op, anchors)
    legs = [_leg_matrices(op, a) for a in anchors]
    inv_legs = _inverse_legs(anchors, legs)
    Ps = np.stack([P for P, _, _ in halves])
    ranks = np.rint(np.trace(Ps, axis1=1, axis2=2)).astype(int)
    # one SVD of each P gives both seeds: the right singular vectors past the
    # rank span its kernel, the leading left ones its range (for an oblique P
    # the trailing left ones span the range's complement)
    U, _, Vt = np.linalg.svd(Ps)
    seeds = [V[r:].T if f else u[:, :r] for u, V, r, f in zip(U, Vt, ranks, at_lo)]
    data_end = _sweeps([M if f else M_inv for M, M_inv, f in zip(legs, inv_legs, at_lo)],
                       seeds, at_lo, orth=True)
    far_end = _sweeps([M_inv if f else M for M, M_inv, f in zip(legs, inv_legs, at_lo)],
                      [_orth_complement(B[-1] if f else B[0]) for B, f in zip(data_end, at_lo)],
                      [not f for f in at_lo])
    projectors = [_oblique_projectors(a, *((F, D) if f else (D, F)))
                  for a, f, D, F in zip(anchors, at_lo, data_end, far_end)]
    return [ProjectorFamily(a, Pi, M, M_inv, float(np.linalg.norm(Pi[0 if f else -1] - P, 2)))
            for P, a, Pi, M, M_inv, f in zip(Ps, anchors, projectors, legs, inv_legs, at_lo)]


def _walk(anchors, legs, starts, step, Z0, lo, hi, proj=None, cap=math.inf):
    """Norm samples of the (k, n, n) stack ``Z0``, chain i carried from anchor ``starts[i]``.

    ``legs[i]`` carries a chain across the leg between ``anchors[i]`` and
    ``anchors[i + 1]`` in the walk's direction: the transition matrix up, its
    inverse down.  Each pass moves every live chain one anchor up
    (``step=+1``) or down (``step=-1``) and left-multiplies the stack by
    each chain's leg between its two anchors, then by ``proj[j]`` at each
    chain's new anchor j when the stack ``proj`` is given.  A chain drops
    out before its first anchor outside [lo, hi] (scalars, or one pair per
    chain), farther than ``cap`` from its start, or NaN.  Returns an (r, 4)
    array of rows (separation, ||Z||, anchor, start anchor), pass after
    pass, and each row's chain i.  A chain's lifetime depends on these
    alone, so the schedule is computed before the first pass and the chains
    sorted by lifetime: each pass carries a prefix of them, and is only its
    gathers and matrix products.  Every pass's 2-norms come from one
    :func:`_norms` call after the last pass.
    """
    starts = np.asarray(starts)
    # (pass, chain) tables of the anchor each pass reaches; every chain has
    # left the lattice by pass len(anchors)
    j = starts + step * np.arange(1, len(anchors) + 1)[:, None]
    inside = (j >= 0) & (j < len(anchors))
    t = anchors[np.where(inside, j, 0)]
    sep = np.abs(t - anchors[starts])
    live = inside & (t >= lo - 1e-9) & (t <= hi + 1e-9) & (sep <= cap + 1e-9)
    life = np.argmin(live, axis=0)
    order = np.argsort(-life, kind="stable")
    alive = np.arange(life.max(initial=0))[:, None] < life
    counts = np.count_nonzero(alive, axis=1)
    Z, stacks, j_sorted = Z0[order], [Z0[:0]], j[:, order]
    # a product that overflows leaves a norm that is not finite, which the
    # caller refuses by its (t, tau) pair
    with np.errstate(over="ignore", invalid="ignore"):
        for p, c in enumerate(counts):
            jp = j_sorted[p, :c]
            Z = legs[np.minimum(jp, jp - step)] @ Z[:c]
            if proj is not None:
                Z = proj[jp] @ Z
            stacks.append(Z)
    # rows pass after pass, by chain within a pass; a chain's row in its
    # pass's stack is its place in ``order``
    p, chain = np.nonzero(alive)
    row = (np.cumsum(counts) - counts)[p] + np.argsort(order)[chain]
    norms = _norms(np.concatenate(stacks))[row]
    return np.column_stack([sep[p, chain], norms, t[p, chain], anchors[starts[chain]]]), chain


def _chain_samples(families, spans):
    """Norm samples ||Phi(t, tau) Pi(tau)|| of the chains from every anchor of each family's span.

    The chains of ``families[i]`` start at its anchors in ``spans[i]`` =
    (lo, hi) and stay there.  Returns ``[up, down]`` of each family in turn:
    ``up`` carries the forward-decaying projector up in time on the legs,
    ``down`` its complement down on the inverse legs.  Rows are
    :func:`_walk`'s, separation 0 included, ordered by start anchor, then by
    separation.  All families' chains of one direction go through one
    :func:`_walk`, on the families' lattices laid end to end with a NaN
    anchor after each, so no chain crosses into the next family.  Mid-chain
    re-projection is an exact identity in exact arithmetic and strips the
    exponentially growing numerical error component.
    """
    n = families[0].projectors.shape[-1]
    gap = np.full((1, n, n), np.nan)
    anchors = np.concatenate([np.append(fam.anchors, np.nan) for fam in families])
    legs = np.concatenate([M for fam in families for M in (fam.legs, gap, gap)])
    inv_legs = np.concatenate([M for fam in families for M in (fam.inv_legs, gap, gap)])
    projectors = np.concatenate([M for fam in families for M in (fam.projectors, gap)])
    offsets = np.cumsum([0] + [len(fam.anchors) + 1 for fam in families[:-1]])
    starts = [offset + np.flatnonzero((fam.anchors >= lo - 1e-9) & (fam.anchors <= hi + 1e-9))
              for fam, offset, (lo, hi) in zip(families, offsets, spans)]
    owner = np.repeat(np.arange(len(families)), [len(k) for k in starts])
    starts = np.concatenate(starts)
    lo, hi = np.asarray(spans, dtype=float)[owner].T
    t0 = anchors[starts]
    groups = [[] for _ in families]
    for step, proj, M in ((+1, projectors, legs), (-1, np.eye(n) - projectors, inv_legs)):
        Z0 = proj[starts]
        walked, chain = _walk(anchors, M, starts, step, Z0, lo, hi, proj=proj)
        at_start = np.column_stack([np.zeros_like(t0), _norms(Z0), t0, t0])
        rows = np.vstack([at_start, walked])
        owned = owner[np.concatenate([np.arange(len(starts)), chain])]
        for i, group in enumerate(groups):
            part = rows[owned == i]
            group.append(part[np.lexsort((part[:, 0], part[:, 3]))])
    return [rows for group in groups for rows in group]


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

    def walk(start, step, legs, Z0):
        rows, chain = _walk(family.anchors, legs, [start, start], step,
                            np.stack([Z0, eye]), lo, hi, cap=cap)
        trusted = RTOL * rows[chain == 1, 1] * np.linalg.norm(Z0, 2) <= SLACK_TOL
        return rows[chain == 0][np.logical_and.accumulate(trusted)]

    if abs(lo) > abs(hi):
        return walk(len(family.anchors) - 1, -1, family.inv_legs, eye - P)
    # mirrored check: the second inequality at t = lo reads
    # ||(I - P) Phi(lo, tau)||, the norm of its transpose, which the
    # transposed inverse legs carry up from (I - P)^T
    mirrored = walk(0, +1, family.inv_legs.swapaxes(1, 2), (eye - P).T)
    return np.vstack([walk(0, +1, family.legs, P), mirrored[:, [0, 1, 3, 2]]])


def _refuse_non_finite(groups) -> None:
    """Refuse the first sample row of the (rows, branch) ``groups`` whose norm is not finite.

    A NaN or an infinite norm is no measurement of the bound, so it is
    refused (exit 1), naming the branch and the (t, tau) pair of its row.
    """
    for rows, kind in groups:
        bad = ~np.isfinite(rows[:, 1])
        if bad.any():
            _, g, t, tau = rows[np.argmax(bad)]
            what = ("direct-row norm ||Phi(t, tau) P||" if kind == "direct"
                    else f"{kind} chain norm ||Phi(t, tau) Pi(tau)||")
            raise HyperbolicityError(f"certificate unverified: the {what} = {g} at "
                                     f"(t, tau) = ({t:.6g}, {tau:.6g}) is not finite")


def _verify_halves(op, halves, rate, N=None, nu=None):
    """Check one pair (N, nu) on every half-line (P, lo, hi) of ``halves``.

    Each half gets one family seeded with its P at the data end, all from
    one :func:`_build_families` (margin sized by ``rate``) whose sweeps
    advance every half in lockstep, and the chain samples of both branches
    from every anchor in [lo, hi], walked on a precomputed schedule
    (:func:`_walk`).  A missing N or nu is fitted to all halves' chains at
    once.  Separations up to 4.6/nu are also measured by
    :func:`_direct_rows`, so that a wrong P cannot hide behind the chains'
    stabilizing projections.  A norm that is not finite, which no bound can
    hold, is refused (:func:`_refuse_non_finite`) before the fit or the
    check reads it.  Returns (families, N, nu, largest slack, its (t, tau)
    pair, pairs checked); a NaN slack counts as the largest, and among equal
    slacks chains come first.
    """
    families = _build_families(op, halves, rate)
    chains = _chain_samples(families, [(lo, hi) for _, lo, hi in halves])
    groups = list(zip(chains, ("stable", "unstable") * len(halves)))
    _refuse_non_finite(groups)
    if N is None or nu is None:
        N, nu = _envelope_fit(chains)
    direct = [(_direct_rows(fam, P, lo, hi, min(hi - lo, 4.6 / nu)), "direct")
              for fam, (P, lo, hi) in zip(families, halves)]
    _refuse_non_finite(direct)
    groups += direct
    # a NaN slack (N * e^(-nu sep) can be inf * 0) outranks every number
    max_slack, worst = max((_bound_violations(rows, N, nu, kind) for rows, kind in groups),
                           key=lambda check: (math.isnan(check[0]), check[0]))
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
        "projector_norm_max": float(_norms(family.projectors).max()),
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
        eye = np.eye(P.shape[0])
        parts = [eye - Q, eye - P, P @ Q]
        # the three identities, then each product of parts against itself
        # (i = j) or 0; all twelve 2-norms in one stacked call
        stack = [P @ Q - Q @ P, P + Q - P @ Q - eye, sum(parts) - eye]
        stack += [a @ b - (a if i == j else 0.0)
                  for i, a in enumerate(parts) for j, b in enumerate(parts)]
        norms = _norms(np.stack(stack))
        return {
            "commute": float(norms[0]),
            "cover": float(norms[1]),
            "sum": float(norms[2]),
            "orthogonality": float(norms[3:].max()),
        }


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

    nu may exceed the spectral rate by at most cond(V) * (delta + eps ||A||_2):
    the Bauer-Fike radius of the numerical eigenvalues, plus the rounding
    of those eigenvalues themselves, which delta (computed from them in
    floating point) cannot see.  N must bound
    h(s) = ||e^{As} P|| e^{nu s} and ||e^{-As} (I - P)|| e^{nu s} within
    SLACK_TOL at 2001 separations s on [0, 2T], geometrically spaced to
    resolve the transient, each class's 2-norms from one :func:`_norms`
    call.  Returns the largest slack (h(s) - N) e^{-nu s} and its pair
    (stable from tau = -T, unstable from tau = T).
    """
    V, lam, V_inv, stable = modes
    health = op.eig_health
    radius = health["cond_V"] * (health["eig_residual"] + np.finfo(float).eps * health["norm_A"])
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
        h = _norms(((V[:, keep] * E[:, None, :]) @ V_inv[keep]).real)
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


# stage 1 of build_trichotomy on [-T, T]: P+ and P- with their report, the
# constants that size a window, and the rate hint that sizes the sweeps' margin
_Split = namedtuple("_Split", "T op P P_minus N nu rate_hint report modes")


def _split_trichotomy(A, T, P=None, Q=None, N=None, nu=None) -> _Split:
    """Stage 1 of :func:`build_trichotomy` on [-T, T]: P+ and P-, compatible, not verified."""
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
    modes = rate_hint = None
    if cf is not None:
        modes, spectral = cf
        N, nu = spectral.N, spectral.nu
        if not supplied:
            P_plus = P_minus = spectral.P
    elif supplied:
        rate_hint = float(nu) if nu else 1.0
    else:
        _integrate_lattices(op, [_anchor_times(0.0, T), _anchor_times(-T, 0.0)])
        est_plus = estimate_stable_projector(op, (0.0, T))
        est_minus = estimate_stable_projector(op, (-T, 0.0))
        P_plus, P_minus = est_plus.P, est_minus.P_end
        rate_hint = min(est_plus.rate_hint, est_minus.rate_hint)
    if N is None or nu is None:
        N, nu = 1.0, 0.95 * rate_hint

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
    if cf is not None:
        report.update(spectral.report)
    return _Split(T, op, P_plus, P_minus, float(N), float(nu), rate_hint, report, modes)


def _verify_split(split: _Split, N=None, nu=None) -> TrichotomyCertificate:
    """Stage 2 of :func:`build_trichotomy`: the certificate of ``split`` on its window."""
    T, op, report = split.T, split.op, dict(split.report)
    P_plus, P_minus, Q = split.P, split.P_minus, np.eye(op.A.n) - split.P_minus
    if split.modes is not None:
        return TrichotomyCertificate(interval=(-T, T), P=P_plus, Q=Q, N=split.N, nu=split.nu,
                                     report=report, modes=split.modes, op=op)

    families, N, nu, max_slack, worst, _ = _verify_halves(
        op, [(P_plus, 0.0, T), (P_minus, -T, 0.0)], split.rate_hint, N, nu)
    # a gate that reads NaN has measured nothing: it refuses with exit 1, as
    # no certificate and no certified negative
    if math.isnan(max_slack):
        raise HyperbolicityError(
            "certificate unverified: the max slack of ||Phi(t, tau) Pi(tau)|| - N e^(-nu |t - tau|) "
            f"at (t, tau) = ({worst['t']:.6g}, {worst['tau']:.6g}) is not a number")
    if max_slack > SLACK_TOL:
        raise NonHyperbolicError(
            f"certificate rejected: max slack = {max_slack:.6g} of ||Phi(t, tau) Pi(tau)|| - "
            f"N e^(-nu |t - tau|) with N = {N:.6g}, nu = {nu:.6g} exceeds SLACK_TOL = "
            f"{SLACK_TOL:g} at (t, tau) = ({worst['t']:.6g}, {worst['tau']:.6g})"
        )
    seeds = [fam.seed_residual for fam in families]
    side = int(np.argmax(seeds))  # the first NaN, if any
    if math.isnan(seeds[side]):
        raise HyperbolicityError("certificate unverified: the seed residual ||P_swept(0) - P(0)|| "
                                 f"on the {('plus', 'minus')[side]} half is not a number")
    if seeds[side] > SEED_TOL:
        raise NonHyperbolicError(
            f"certificate rejected: seed residual ||P_swept(0) - P(0)|| = {seeds[side]:.6g} "
            f"on the {('plus', 'minus')[side]} half exceeds SEED_TOL = {SEED_TOL:g}")
    report.update(seed_residual_plus=seeds[0], seed_residual_minus=seeds[1],
                  max_slack=max_slack, worst_pair=worst)
    return TrichotomyCertificate(interval=(-T, T), P=P_plus, Q=Q, N=N, nu=nu, report=report,
                                 families=tuple(families), op=op)


def build_trichotomy(A, T, P=None, Q=None, N=None, nu=None):
    """Assemble a trichotomy certificate on [-T, T], in two stages.

    Stage 1 (:func:`_split_trichotomy`): a constant A with a closed form
    (see :func:`_closed_form`) gets P = P_s, Q = I - P_s and its constants;
    supplied ``P`` and ``I - Q`` must equal P_s, and supplied constants must
    follow from it or pass its check.  Every other A is swept.  Both halves
    are estimated on ``op``'s legs, integrated in one batch: P+ at the start
    of [0, T], P- = I - Q at the end of [-T, 0] (``P_end``); supplied
    idempotent ``P``/``Q``, read at t = 0, skip the estimate.  The stage's N
    and nu size a window before a swept A is verified: the supplied ones,
    else N = 1 and nu = 0.95 times the estimates' rate hint.  The solve
    pipeline runs this stage alone first, to size the window that it
    verifies once.

    Stage 2 (:func:`_verify_split`): :func:`_verify_halves` checks a swept
    P+ on [0, T] and P- on [-T, 0] with one (N, nu), supplied or fitted to
    both halves (both when either is missing): the largest slack must be
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
    return _verify_split(_split_trichotomy(A, float(T), P, Q, N, nu), N, nu)


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
            plus, minus = cert.families
            self.anchors = np.concatenate([minus.anchors[:-1], plus.anchors])
            # the stable projector at each anchor, the plus family's at 0
            self.projectors = np.concatenate([minus.projectors[:-1], plus.projectors])
        # plans of the solver sweeps when ``modes`` is None, built on first
        # use: (sweep window lo, hi, grid origin, grid step) -> one plan of
        # stacked arrays that both sweep directions read, its moments and its
        # leg values each from one batched call
        self.plans = {}

    @property
    def n(self) -> int:
        return self.A.n


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
    raise TypeError(f"no JSON form for {type(cert).__name__}")
