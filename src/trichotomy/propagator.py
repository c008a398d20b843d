"""Transition (Cauchy) operator of x' = A(t) x.

A leg is the dense solution s -> Phi(s, t0) of the matrix equation on
[t0, t1]: a scalar s gives the flattened n*n matrix, an array of k times
gives shape (n*n, k).  Every leg is integrated by the sixth-order Magnus
method with three Gauss points (Blanes, Casas and Ros, BIT 40, 2000;
Iserles, Munthe-Kaas, Norsett and Zanna, Acta Numerica 9, 2000).  A step of
length h from t is Y <- exp(Omega) Y, with Omega built from A at
t + (1/2 -+ sqrt(15)/10) h and t + h/2 by two nested commutators
(:func:`_magnus_steps`); for a constant A the commutators vanish and
Omega = hA, so its nodes are exact to rounding.  The steps are independent
given A at the Gauss points, so :meth:`TransitionOperator.solve_legs`
integrates every missing leg of a sweep in one batch: A is evaluated over one
time array (:meth:`CoefficientMatrix.values`) and the step exponentials by
one batched :func:`expm`, which picks its Pade degree per matrix, so a leg's
bits do not depend on which legs share its batch.  Each leg takes
``FIRST_STEPS`` uniform steps, then twice as many; a leg whose Richardson
estimate |Y_2M - Y_M| / 63 at the shared nodes exceeds ``ATOL`` +
``RTOL`` |Y_2M| (entrywise, 1e-12 and 1e-9) is doubled again, up to
``MAX_STEPS``.  Between its nodes a leg is the barycentric interpolant at
its Chebyshev-Lobatto points (Berrut and Trefethen, SIAM Review 46, 2004),
fitted once, when the leg is first asked for a time off its nodes (a
certificate reads node matrices only, so it fits nothing): each point is
one partial Magnus step from the node below, and the degree, from 2
``FIRST_STEPS`` up to ``MAX_STEPS``, doubles until the interpolant meets
the same entrywise test at every node.  A dense call on a fitted leg is
then one small matrix product and takes no Magnus step, and
:meth:`TransitionOperator.leg_values` evaluates many legs at many times: it
fits the unfitted ones in one batch, and legs asked at the same fractions
of their spans share one cardinal matrix and one product.  A fit also
inverts the leg's d + 1 Chebyshev samples and keeps them
(``MagnusLeg.C_inv``) when their interpolant meets the same entrywise test
against the inverse node matrices, at the same degree.  From them
:meth:`TransitionOperator.inverse_moments` takes weighted sums of
Phi(s, t0)^-1 with no leg value and no inverse at any s: legs asked at the
same fractions with the same weights share one cardinal-moment matrix and
one product with their stacked inverse samples.  A leg whose inverse
samples missed gives its inverse at s instead.  No scipy is needed.

A constant A = V diag(lam) V^-1 with cond(V) <= ``EXACT_COND_MAX`` = 1e6
and delta = ||AV - V diag(lam)|| ||V^-1|| <= ``EIG_RESIDUAL_MAX`` *
max(1, ||A||) keeps that eigendecomposition (``TransitionOperator.eig``).
It is the input of the hyperbolicity module's closed-form certificate and
of the solvers' eigen-coordinate sweeps, so no command propagates a leg of
such an A.

Transition matrices over long windows are never assembled as a single
product chain in the growing direction; higher-level code (hyperbolicity
module) always works leg by leg and projects onto decaying directions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import eval_stack, free_vars, parse

__all__ = [
    "CoefficientMatrix",
    "MagnusLeg",
    "TransitionOperator",
    "PropagationError",
    "expm",
]

RTOL = 1e-9
ATOL = 1e-12
# largest eigenvector-matrix condition number for which a constant A keeps
# its eigendecomposition, the input of its closed form
EXACT_COND_MAX = 1e6
# largest eigen-residual delta / max(1, ||A||_2) for which eig is kept
EIG_RESIDUAL_MAX = 1e-10
# Magnus steps per leg: the first Richardson comparison is FIRST_STEPS
# against 2 * FIRST_STEPS, and no leg takes more than MAX_STEPS
FIRST_STEPS = 8
MAX_STEPS = 4096
# Magnus steps per batch slice, which bounds a batch's working memory
_BATCH_STEPS = 2**15

# Gauss-Legendre points of the sixth-order Magnus step, as fractions of h
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
# diagonal Pade approximants of exp: degree -> (coefficients b_j, largest
# 1-norm at which the approximant is exact to unit roundoff), from Higham,
# SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3
_PADE = {
    m: ([float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
         for j in range(m + 1)], theta)
    for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                     (7, 9.504178996162932e-1), (9, 2.097847961257068),
                     (13, 5.371920351148152))
}


class PropagationError(Exception):
    """Integration failure (unresolved or overflowing leg); carries the failing time."""

    def __init__(self, message: str, at_time: float):
        super().__init__(f"{message} (near t = {at_time:.6g})")
        self.at_time = at_time


def expm(X) -> np.ndarray:
    """exp of every matrix in the (..., n, n) stack ``X``.

    Scaling and squaring with a diagonal Pade approximant (Higham, 2005),
    chosen per matrix: the lowest degree whose bound covers the matrix's own
    1-norm, else degree 13 with the matrix scaled by its own power of 2
    below that degree's bound and squared back.  So each matrix of the stack
    gets the bits it would get alone, whatever shares its stack.
    """
    X = np.asarray(X, dtype=float)
    shape = X.shape
    X = X.reshape(-1, shape[-2], shape[-1])
    norm = np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)
    degree = np.select([norm <= _PADE[m][1] for m in (3, 5, 7, 9)], [3, 5, 7, 9], 13)
    out = np.empty_like(X)
    for m in np.unique(degree):
        at = degree == m
        out[at] = _pade_exp(X[at], norm[at], int(m))
    return out.reshape(shape)


def _pade_exp(X, norm, m: int) -> np.ndarray:
    """exp of the (k, n, n) stack ``X`` of 1-norms ``norm`` by the degree-``m`` approximant."""
    b, theta = _PADE[m]
    squarings = np.zeros(norm.shape, dtype=int)
    if m == 13:
        squarings = np.ceil(np.log2(np.maximum(norm / theta, 1.0))).astype(int)
        X = X / np.exp2(squarings)[:, None, None]
    eye = np.eye(X.shape[-1])
    X2 = X @ X
    if m < 13:
        powers = [eye, X2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ X2)
        U = X @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        X4 = X2 @ X2
        X6 = X4 @ X2
        U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
                 + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
        V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
             + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for j in range(int(squarings.max(initial=0))):
        more = squarings > j
        R[more] = R[more] @ R[more]
    return R


class CoefficientMatrix:
    """n x n matrix of expressions in the single variable ``t``."""

    def __init__(self, entries):
        n = len(entries)
        if n < 1 or any(len(row) != n for row in entries):
            raise ValueError("coefficient matrix must be square and non-empty")
        self.entries = [list(row) for row in entries]
        self.n = n
        for row in self.entries:
            for e in row:
                extra = free_vars(e) - {"t"}
                if extra:
                    raise ValueError(
                        f"coefficient entries may depend on t only, found {sorted(extra)}"
                    )

    @classmethod
    def from_strings(cls, rows) -> "CoefficientMatrix":
        return cls([[parse(s) for s in row] for row in rows])

    def value(self, t: float) -> np.ndarray:
        """A at the one time ``t``: shape (n, n)."""
        return self.values(t)

    def values(self, times) -> np.ndarray:
        """A at every time of the array ``times``: shape times.shape + (n, n).

        Each entry is one :func:`eval_expr` call over the whole array.
        """
        times = np.asarray(times, dtype=float)
        flat = eval_stack([e for row in self.entries for e in row], {"t": times}, times.shape)
        return flat.reshape(*times.shape, self.n, self.n)


def _magnus_steps(A: CoefficientMatrix, starts, h) -> np.ndarray:
    """exp(Omega) of the sixth-order Magnus steps of length ``h`` from ``starts`` (broadcast).

    With A1, A2, A3 = A at the Gauss points ``_GAUSS`` of each step,
    a1 = h A2, a2 = sqrt(15)/3 h (A3 - A1), a3 = 10/3 h (A3 - 2 A2 + A1),
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60, the step's exponent is
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240
    (Blanes, Casas and Ros, BIT 40, 2000).  A leg's integration steps and
    the partial steps to its Chebyshev points both come from here.
    """
    starts, h = np.broadcast_arrays(np.asarray(starts, dtype=float), np.asarray(h, dtype=float))
    Ag = A.values(starts[..., None] + h[..., None] * _GAUSS)
    A1, A2, A3 = Ag[..., 0, :, :], Ag[..., 1, :, :], Ag[..., 2, :, :]
    h = h[..., None, None]
    a1 = h * A2
    a2 = (math.sqrt(15.0) / 3.0) * h * (A3 - A1)
    a3 = (10.0 / 3.0) * h * (A3 - 2.0 * A2 + A1)
    C1 = _bracket(a1, a2)
    C2 = _bracket(a1, 2.0 * a3 + C1) / -60.0
    return expm(a1 + a3 / 12.0 + _bracket(-20.0 * a1 - a3 + C1, a2 + C2) / 240.0)


def _bracket(X, Y) -> np.ndarray:
    """The commutator XY - YX of every matrix pair of two stacks."""
    return X @ Y - Y @ X


def _magnus_nodes(A: CoefficientMatrix, t0, t1, M: int) -> np.ndarray:
    """Node matrices Phi(t0 + k h, t0), k = 0..M, h = (t1 - t0) / M, per leg: (L, M + 1, n, n).

    The legs go through in slices of at most ``_BATCH_STEPS`` steps.
    """
    per = max(1, _BATCH_STEPS // M)
    out = []
    for i in range(0, len(t0), per):
        a, b = t0[i:i + per], t1[i:i + per]
        h = (b - a) / M
        # an overflow is reported by the caller, from the non-finite nodes
        with np.errstate(over="ignore", invalid="ignore"):
            E = _magnus_steps(A, a[:, None] + h[:, None] * np.arange(M), h[:, None])
            # prefix products E[k] ... E[0] by doubling
            j = 1
            while j < M:
                E[:, j:] = E[:, j:] @ E[:, :-j]
                j *= 2
        out.append(np.concatenate([np.broadcast_to(np.eye(A.n), (len(a), 1, A.n, A.n)), E],
                                  axis=1))
    return np.concatenate(out)


def _magnus_legs(A: CoefficientMatrix, spans) -> list:
    """One :class:`MagnusLeg` per (t0, t1) of ``spans``, integrated in one batch.

    Every leg takes M = ``FIRST_STEPS`` steps, then 2M; legs whose
    Richardson estimate at the shared nodes passes are kept with the 2M
    nodes, the others double M again together.  The legs come back with
    their nodes only; each is fitted on its first dense use
    (:func:`_leg_values`).  Raises :class:`PropagationError` for a leg
    that overflows or is still unresolved at ``MAX_STEPS``.
    """
    t0, t1 = np.array(spans, dtype=float).reshape(-1, 2).T
    nodes = [None] * len(t0)
    active = np.arange(len(t0))
    M = FIRST_STEPS
    coarse = _magnus_nodes(A, t0, t1, M)
    while True:
        fine = _magnus_nodes(A, t0[active], t1[active], 2 * M)
        finite = np.isfinite(fine).reshape(len(active), -1).all(axis=1)
        if not finite.all():
            leg = active[int(np.argmin(finite))]
            raise PropagationError(f"Magnus leg [{t0[leg]:.6g}, {t1[leg]:.6g}] overflowed",
                                   t0[leg])
        shared = fine[:, ::2]
        # the step is sixth order: Y_M - Y_2M is about 2^6 - 1 times Y_2M's error
        est = np.abs(shared - coarse) / 63.0
        excess = (est - (ATOL + RTOL * np.abs(shared))).reshape(len(active), -1)
        done = excess.max(axis=1) <= 0.0
        for i in np.flatnonzero(done):
            nodes[active[i]] = fine[i].copy()
        if done.all():
            break
        if 2 * M >= MAX_STEPS:
            i = int(np.argmax(excess.max(axis=1)))
            leg, node = active[i], np.unravel_index(int(np.argmax(excess[i])), est[i].shape)[0]
            raise PropagationError(
                f"Magnus leg [{t0[leg]:.6g}, {t1[leg]:.6g}] unresolved at {2 * M} steps: "
                f"Richardson error estimate {est[i].max():.3g} exceeds ATOL + RTOL |Y| "
                f"(ATOL = {ATOL:g}, RTOL = {RTOL:g})",
                t0[leg] + (t1[leg] - t0[leg]) * node / M)
        active, coarse, M = active[~done], fine[~done], 2 * M
    legs = []
    for a, b, Y in zip(t0, t1, nodes):
        ts = a + (b - a) / (len(Y) - 1) * np.arange(len(Y))
        ts[-1] = b
        legs.append(MagnusLeg(A, ts, Y))
    return legs


@functools.lru_cache(maxsize=None)
def _lobatto(d: int):
    """The degree-``d`` Chebyshev-Lobatto points as fractions of [0, 1], and their barycentric weights.

    The fractions (1 - sin(pi (d - 2j) / (2d))) / 2 are symmetric and
    exactly 0 and 1 at the ends.
    """
    j = np.arange(d + 1)
    c = (1.0 - np.sin(np.pi * (d - 2 * j) / (2 * d))) / 2.0
    w = np.where(j % 2 == 0, 1.0, -1.0)
    w[[0, -1]] *= 0.5
    return c, w


def _cardinals(u, d: int) -> np.ndarray:
    """The degree-``d`` Lagrange basis on :func:`_lobatto` at the fractions ``u``: (len(u), d + 1).

    The second (true) barycentric formula (Berrut and Trefethen, SIAM
    Review 46, 2004); a fraction on a Chebyshev point gets that point's unit row.
    """
    c, w = _lobatto(d)
    diff = np.subtract.outer(u, c)
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        B = w / diff
        B /= B.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    B[rows] = hit[rows]
    return B


def _leg_samples(A: CoefficientMatrix, t0, t1, nodes, c) -> np.ndarray:
    """Each leg's Phi(t0 + (t1 - t0) c, t0) at the fractions ``c``: (L, len(c), n, n).

    ``nodes`` lists each leg's node matrices.  A fraction on a node takes
    that node's matrix; every other is one partial Magnus step from the node
    below, all of a slice of at most ``_BATCH_STEPS`` samples in one batch.
    """
    per = max(1, _BATCH_STEPS // len(c))
    if len(t0) > per:
        return np.concatenate([_leg_samples(A, t0[i:i + per], t1[i:i + per], nodes[i:i + per], c)
                               for i in range(0, len(t0), per)])
    N = np.array([len(Y) - 1 for Y in nodes])
    at = np.multiply.outer(N, c)
    k = np.floor(at).astype(int)
    first = np.cumsum(N + 1) - (N + 1)
    S = np.concatenate(nodes)[first[:, None] + k]
    # the node times as MagnusLeg.ts holds them
    start = t0[:, None] + ((t1 - t0) / N)[:, None] * k
    off = at != k
    s = t0[:, None] + (t1 - t0)[:, None] * c
    with np.errstate(over="ignore", invalid="ignore"):
        S[off] = _magnus_steps(A, start[off], s[off] - start[off]) @ S[off]
    return S


def _chebyshev_fits(A: CoefficientMatrix, t0, t1, nodes) -> list:
    """Each leg's samples at the Chebyshev-Lobatto points of [t0, t1] (:func:`_lobatto`),
    with their inverses: a list of (C, C_inv).

    The degree d starts at 2 ``FIRST_STEPS`` and doubles for the legs whose
    barycentric interpolant misses a node matrix Y by more than
    ``ATOL`` + ``RTOL`` |Y| in some entry, the test the nodes passed.
    Raises :class:`PropagationError` for a leg that still misses past
    degree ``MAX_STEPS``.  A fitted leg's C_inv comes from
    :func:`_inverse_samples` at its degree.
    """
    N = np.array([len(Y) - 1 for Y in nodes])
    fits = [None] * len(nodes)
    active = np.arange(len(nodes))
    d = 2 * FIRST_STEPS
    while True:
        S = _leg_samples(A, t0[active], t1[active], [nodes[i] for i in active], _lobatto(d)[0])
        gap = np.empty(len(active))
        excess = np.empty(len(active))
        for m in np.unique(N[active]):
            sel = np.flatnonzero(N[active] == m)
            Y = np.stack([nodes[i] for i in active[sel]])
            B = _cardinals(np.arange(m + 1) / m, d)
            flat = Y.reshape(len(sel), m + 1, -1)
            err = np.abs(B @ S[sel].reshape(len(sel), d + 1, -1) - flat)
            gap[sel] = err.max(axis=(1, 2))
            excess[sel] = (err - (ATOL + RTOL * np.abs(flat))).max(axis=(1, 2))
            ok = excess[sel] <= 0.0
            for i, C, C_inv in zip(sel[ok], S[sel[ok]], _inverse_samples(B, S[sel[ok]], Y[ok])):
                fits[active[i]] = (C, C_inv)
        done = excess <= 0.0
        if done.all():
            return fits
        if 2 * d > MAX_STEPS:
            i = int(np.argmax(excess))
            leg = active[i]
            raise PropagationError(
                f"Magnus leg [{t0[leg]:.6g}, {t1[leg]:.6g}] unresolved by its degree-{d} "
                f"Chebyshev interpolant: node error {gap[i]:.3g} exceeds "
                f"ATOL + RTOL |Y| (ATOL = {ATOL:g}, RTOL = {RTOL:g})",
                t0[leg])
        active, d = active[~done], 2 * d


def _inverse_samples(B, C, Y) -> list:
    """inv(C) of each leg of one degree and node count, or None for a leg whose
    inverse interpolant misses the node test.

    ``C`` holds the legs' Chebyshev samples, (L, d + 1, n, n), ``Y`` their
    node matrices, (L, M + 1, n, n), and ``B`` the degree-d cardinals at the
    node fractions k / M.  The barycentric interpolant of inv(C) must meet
    every inverse node matrix entrywise, |B inv(C) - Y^-1| <= ``ATOL`` +
    ``RTOL`` |Y^-1|, at the degree C was accepted at; a leg that misses, or
    whose samples or nodes do not invert, gets None.
    """
    L, n = len(C), C.shape[-1]
    try:
        Z, Y_inv = np.linalg.inv(C), np.linalg.inv(Y).reshape(L, len(B), n * n)
    except np.linalg.LinAlgError:  # a sample or node that underflowed to singular
        return [None] * L
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.abs(B @ Z.reshape(L, B.shape[1], n * n) - Y_inv)
        ok = (err <= ATOL + RTOL * np.abs(Y_inv)).all(axis=(1, 2))
    return [z if keep else None for z, keep in zip(Z, ok)]


class MagnusLeg:
    """Phi(s, t0) of a Magnus-integrated leg of x' = ``A`` x.

    ``ts`` holds the uniform nodes t0, ..., t1 and ``Y`` the node matrices
    Phi(ts[k], t0), shape (len(ts), n, n).  ``C`` holds Phi at the
    Chebyshev-Lobatto points of degree len(C) - 1 on [t0, t1]
    (:func:`_chebyshev_fits`), or None until the leg is first asked for a
    time off its nodes: :func:`_leg_values` fits it then, together with
    the other unfitted legs of that call.  At a node the leg returns its
    matrix; elsewhere the barycentric interpolant of ``C``.  ``C_inv``
    holds inv(C), the samples of Phi(s, t0)^-1 whose interpolant the Green
    moments read (:func:`_inverse_moments`), kept when that interpolant
    meets the node test against the inverse node matrices
    (:func:`_inverse_samples`); None on an unfitted leg or one that missed.
    """

    def __init__(self, A, ts, Y):
        self.A, self.ts, self.Y = A, ts, Y
        self.C = self.C_inv = None

    def __call__(self, s):
        """The value at the time or times ``s`` in the calling convention of
        the module docstring, from :func:`_leg_values`."""
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        out = _leg_values([self], np.zeros(flat.size, dtype=int), flat).reshape(flat.size, -1)
        return out.reshape(-1) if s.ndim == 0 else out.T


def _fit(legs) -> None:
    """Fit the legs of ``legs`` without ``C`` in one :func:`_chebyshev_fits` batch."""
    fit = [leg for leg in legs if leg.C is None]
    if fit:
        t0, t1 = np.array([(leg.ts[0], leg.ts[-1]) for leg in fit]).T
        for leg, (C, C_inv) in zip(fit, _chebyshev_fits(fit[0].A, t0, t1, [leg.Y for leg in fit])):
            leg.C, leg.C_inv = C, C_inv


def _by_leg(which, count) -> list:
    """The positions k with which[k] = i, in order, for each leg i < ``count``."""
    return np.split(np.argsort(which, kind="stable"),
                    np.cumsum(np.bincount(which, minlength=count))[:-1])


def _leg_values(legs, which, s) -> np.ndarray:
    """Phi(s[k], t0) on the leg ``legs[which[k]]`` for every k: shape (len(s), n, n).

    A time on a leg's node takes that node's matrix.  The legs asked for a
    time off their nodes are first fitted, those without ``C`` in one
    :func:`_chebyshev_fits` batch; then each is read at all its times.  A
    leg's layout is its interpolant degree and the fractions of its span at
    which it is asked, in the order asked: the legs of one layout share one
    cardinal matrix (:func:`_cardinals`) and one matrix product with their
    stacked Chebyshev samples.
    """
    s = np.asarray(s, dtype=float)
    which = np.asarray(which, dtype=int)
    n = legs[0].Y.shape[-1]
    t0, t1 = np.array([(leg.ts[0], leg.ts[-1]) for leg in legs]).T
    u = (s - t0[which]) / (t1[which] - t0[which])
    # the node rule: ts[j] = t0 + (t1 - t0) j / M, so a time on node j has
    # u M within a few ulps of j
    M = np.array([len(leg.ts) - 1 for leg in legs])
    first = np.cumsum(M + 1) - (M + 1)
    j = first[which] + np.clip(np.rint(u * M[which]), 0, M[which]).astype(int)
    on = np.concatenate([leg.ts for leg in legs])[j] == s
    out = np.empty((s.size, n, n))
    read = np.unique(which[~on])
    _fit([legs[i] for i in read])
    by_leg = _by_leg(which, len(legs))
    layouts = {}
    for i in read:
        layouts.setdefault((len(legs[i].C), u[by_leg[i]].tobytes()), []).append(i)
    for (size, _), members in layouts.items():
        pos = np.stack([by_leg[i] for i in members], axis=1)  # (times, legs)
        C = np.stack([legs[i].C for i in members], axis=1).reshape(size, -1)
        out[pos] = (_cardinals(u[pos[:, 0]], size - 1) @ C).reshape(*pos.shape, n, n)
    if on.any():
        out[on] = np.concatenate([leg.Y for leg in legs])[j[on]]
    return out


def _inverse_moments(legs, which, s, weights) -> np.ndarray:
    """sum_j weights[r, j, p] Phi(s[r, j], t0)^-1 on the leg ``legs[which[r]]``
    for every row r: shape (rows, p, n, n).

    ``s`` has shape (rows, m) and ``weights`` (rows, m, p).  Every row is
    one contraction of a moment matrix with samples of the inverse leg.  A
    leg with ``C_inv`` (fitted first, in one batch, if it is not)
    takes the cardinal moments sum_j weights[r, j, p] l_k(x_j), l_k the
    cardinals of its degree at the fractions x_j of its span, against
    C_inv: the legs of one layout (degree, fractions and weights of their
    rows, in order) share that matrix and one product with their stacked
    C_inv, and no such leg is evaluated at any s.  A leg whose C_inv missed
    the node test takes the weights themselves against the inverse of its
    interpolant at s.
    """
    s = np.asarray(s, dtype=float)
    which = np.asarray(which, dtype=int)
    rows, m = s.shape
    asked = np.unique(which)
    _fit([legs[i] for i in asked])
    n = legs[0].A.n
    out = np.empty((rows, weights.shape[-1], n, n))
    by_leg = _by_leg(which, len(legs))
    layouts, rest = {}, []
    t0, t1 = np.array([(leg.ts[0], leg.ts[-1]) for leg in legs]).T
    x = (s - t0[which, None]) / (t1 - t0)[which, None]
    for i in asked:
        r = by_leg[i]
        if legs[i].C_inv is None:
            rest.append(r)
        else:
            layouts.setdefault((len(legs[i].C_inv), x[r].tobytes(), weights[r].tobytes()),
                               []).append(i)
    for (size, _, _), members in layouts.items():
        pos = np.stack([by_leg[i] for i in members], axis=1)  # (rows, legs)
        B = _cardinals(x[pos[:, 0]].ravel(), size - 1).reshape(len(pos), m, size)
        K = weights[pos[:, 0]].transpose(0, 2, 1) @ B
        Z = np.stack([legs[i].C_inv for i in members], axis=1).reshape(size, -1)
        out[pos] = (K.reshape(-1, size) @ Z).reshape(len(pos), -1, len(members), n, n
                                                      ).transpose(0, 2, 1, 3, 4)
    if rest:
        r = np.concatenate(rest)
        samples = np.linalg.inv(_leg_values(legs, np.repeat(which[r], m), s[r].ravel()))
        out[r] = (weights[r].transpose(0, 2, 1) @ samples.reshape(len(r), m, n * n)
                  ).reshape(len(r), -1, n, n)
    return out


class TransitionOperator:
    """Dense-output solution operator Phi(t, tau) with leg caching.

    Cached legs map (t0, t1) to the :class:`MagnusLeg` of the matrix
    equation Y' = A(t) Y, Y(t0) = I on [t0, t1].  ``constant`` tells whether
    no entry of A mentions ``t``.  ``eig`` is the eigendecomposition
    (V, lam, V^-1) of a constant, well diagonalizable A, the input of its
    closed form, or None; ``eig_health`` then holds delta
    (``eig_residual``), ``cond_V`` and ``norm_A``.
    """

    def __init__(self, A: CoefficientMatrix):
        self.A = A
        self._legs = {}
        self.eig = None
        self.eig_health = None
        self.constant = not any(free_vars(e) for row in A.entries for e in row)
        if self.constant:
            A0 = A.value(0.0)
            lam, V = np.linalg.eig(A0)
            cond_V = float(np.linalg.cond(V))
            if cond_V <= EXACT_COND_MAX:
                V_inv = np.linalg.inv(V)
                delta = float(np.linalg.norm(A0 @ V - V * lam, 2) * np.linalg.norm(V_inv, 2))
                norm_A = float(np.linalg.norm(A0, 2))
                if delta <= EIG_RESIDUAL_MAX * max(1.0, norm_A):
                    self.eig = (V, lam, V_inv)
                    self.eig_health = {"eig_residual": delta, "cond_V": cond_V, "norm_A": norm_A}

    def solve_leg(self, t0: float, t1: float):
        """Dense solution of the matrix equation on [t0, t1] (either direction)."""
        key = (float(t0), float(t1))
        leg = self._legs.get(key)
        if leg is None:
            (leg,) = _magnus_legs(self.A, [key])
            self._legs[key] = leg
        return leg

    def solve_legs(self, spans) -> list:
        """:meth:`solve_leg` of every (t0, t1) of ``spans``.

        The legs missing from the cache are first integrated together, in
        one batched Magnus pass.
        """
        keys = [(float(t0), float(t1)) for t0, t1 in spans]
        missing = list(dict.fromkeys(k for k in keys if k not in self._legs))
        if missing:
            self._legs.update(zip(missing, _magnus_legs(self.A, missing)))
        return [self.solve_leg(*key) for key in keys]

    def leg_values(self, spans, which, s) -> np.ndarray:
        """Phi(s[k], t0) on the leg (t0, t1) = ``spans[which[k]]`` for every k: (len(s), n, n).

        The legs come from :meth:`solve_legs`, and their values from one
        batched evaluation (:func:`_leg_values`), which first fits the legs
        asked off their nodes that are not yet fitted.
        """
        return _leg_values(self.solve_legs(spans), which, s)

    def inverse_moments(self, spans, which, s, weights) -> np.ndarray:
        """sum_j weights[r, j, p] Phi(s[r, j], t0)^-1 on the leg (t0, t1) =
        ``spans[which[r]]`` for every row r: (rows, p, n, n).

        The legs come from :meth:`solve_legs`, and the moments from one
        :func:`_inverse_moments` call, which first fits the legs not yet
        fitted.
        """
        return _inverse_moments(self.solve_legs(spans), which, s, weights)
