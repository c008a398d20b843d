"""Transition (Cauchy) operator of x' = A(t) x.

A leg is the dense solution s -> Phi(s, t0) of the matrix equation on
[t0, t1].  Two kinds of leg share one calling convention (a scalar s gives
the flattened n*n matrix, an array of k times gives shape (n*n, k)):

* Exact legs, when no entry of A mentions ``t`` and A = V diag(lam) V^-1
  with cond(V) <= ``EXACT_COND_MAX`` = 1e6 and delta = ||AV - V diag(lam)||
  ||V^-1|| <= ``EIG_RESIDUAL_MAX`` * max(1, ||A||): Phi(s, t0) = V exp(lam
  (s - t0)) V^-1, whose rounding error (about cond(V) * machine eps <= 2e-10)
  stays below the integrator's tolerance.  One eigendecomposition per operator.
* Magnus legs otherwise (time-dependent A, or a defective or
  ill-conditioned constant A such as a Jordan block): the fourth-order
  Magnus method with two Gauss points (Iserles and Norsett, Phil. Trans.
  R. Soc. A 357, 1999; Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009).
  A step of length h from t is Y <- exp(Omega) Y with
  Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 (A2 A1 - A1 A2), where
  A1, A2 = A(t + (1/2 -+ sqrt(3)/6) h).  The steps are independent given A
  at the Gauss points, so :meth:`TransitionOperator.solve_legs` integrates
  every missing leg of a sweep in one batch: A is evaluated over one time
  array (:meth:`CoefficientMatrix.values`) and the step exponentials by one
  batched :func:`expm`.  Each leg takes ``FIRST_STEPS`` uniform steps, then
  twice as many; a leg whose Richardson estimate |Y_2M - Y_M| / 15 at the
  shared nodes exceeds ``ATOL`` + ``RTOL`` |Y_2M| (entrywise, 1e-12 and
  1e-9) is doubled again, up to ``MAX_STEPS``.  Between nodes a leg takes
  one partial Magnus step from the node below.  No scipy is needed.

Transition matrices over long windows are never assembled as a single
product chain in the growing direction; higher-level code (hyperbolicity
module) always works leg by leg and projects onto decaying directions.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import compile_expr, eval_expr, free_vars, parse

__all__ = [
    "CoefficientMatrix",
    "ExactLeg",
    "MagnusLeg",
    "TransitionOperator",
    "PropagationError",
    "expm",
]

RTOL = 1e-9
ATOL = 1e-12
# largest eigenvector-matrix condition number for which constant-A legs are
# computed from the eigendecomposition instead of integrated
EXACT_COND_MAX = 1e6
# largest eigen-residual delta / max(1, ||A||_2) for which eig is kept
EIG_RESIDUAL_MAX = 1e-10
# Magnus steps per leg: the first Richardson comparison is FIRST_STEPS
# against 2 * FIRST_STEPS, and no leg takes more than MAX_STEPS
FIRST_STEPS = 8
MAX_STEPS = 4096
# Magnus steps per batch slice, which bounds a batch's working memory
_BATCH_STEPS = 2**15

# Gauss-Legendre points of the fourth-order Magnus step, as fractions of h
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
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

    Scaling and squaring with a diagonal Pade approximant (Higham, 2005):
    the lowest degree whose bound covers the largest 1-norm of the stack,
    else degree 13 with each matrix scaled by its own power of 2 below
    that degree's bound and squared back.
    """
    X = np.asarray(X, dtype=float)
    shape = X.shape
    X = X.reshape(-1, shape[-2], shape[-1])
    norm = np.abs(X).sum(axis=-2).max(axis=-1, initial=0.0)
    top = float(norm.max(initial=0.0))
    m = next((m for m in (3, 5, 7, 9) if top <= _PADE[m][1]), 13)
    b, theta = _PADE[m]
    squarings = np.zeros(norm.shape, dtype=int)
    if m == 13:
        squarings = np.ceil(np.log2(np.maximum(norm / theta, 1.0))).astype(int)
        X = X / np.exp2(squarings)[:, None, None]
    eye = np.eye(shape[-1])
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
    return R.reshape(shape)


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
        self._fns = [[compile_expr(e, ("t",)) for e in row] for row in self.entries]

    @classmethod
    def from_strings(cls, rows) -> "CoefficientMatrix":
        return cls([[parse(s) for s in row] for row in rows])

    def value(self, t: float) -> np.ndarray:
        return np.array([[fn(t) for fn in row] for row in self._fns], dtype=float)

    def values(self, times) -> np.ndarray:
        """A at every time of the array ``times``: shape times.shape + (n, n).

        Each entry is one :func:`eval_expr` call over the whole array.
        """
        times = np.asarray(times, dtype=float)
        env = {"t": times}
        cols = [np.broadcast_to(np.asarray(eval_expr(e, env), dtype=float), times.shape)
                for row in self.entries for e in row]
        return np.stack(cols, axis=-1).reshape(*times.shape, self.n, self.n)


class ExactLeg:
    """Phi(s, t0) = V exp(lam (s - t0)) V^-1 of a diagonalizable constant A."""

    def __init__(self, V, lam, V_inv, t0: float):
        self.V, self.lam, self.V_inv, self.t0 = V, lam, V_inv, t0

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        E = np.exp(np.multiply.outer(s - self.t0, self.lam))
        Y = ((self.V * E[..., None, :]) @ self.V_inv).real
        n2 = self.lam.size ** 2
        return Y.reshape(n2) if s.ndim == 0 else Y.reshape(-1, n2).T


def _magnus_steps(A: CoefficientMatrix, starts, h) -> np.ndarray:
    """exp(Omega) of the Magnus steps of length ``h`` from ``starts`` (broadcast)."""
    starts, h = np.broadcast_arrays(np.asarray(starts, dtype=float), np.asarray(h, dtype=float))
    Ag = A.values(starts[..., None] + h[..., None] * _GAUSS)
    A1, A2 = Ag[..., 0, :, :], Ag[..., 1, :, :]
    h = h[..., None, None]
    return expm(0.5 * h * (A1 + A2) + (math.sqrt(3.0) / 12.0) * h * h * (A2 @ A1 - A1 @ A2))


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
    nodes, the others double M again together.  Raises
    :class:`PropagationError` for a leg that overflows or is still
    unresolved at ``MAX_STEPS``.
    """
    t0, t1 = np.array(spans, dtype=float).reshape(-1, 2).T
    legs = [None] * len(t0)
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
        est = np.abs(shared - coarse) / 15.0
        excess = (est - (ATOL + RTOL * np.abs(shared))).reshape(len(active), -1)
        done = excess.max(axis=1) <= 0.0
        for i in np.flatnonzero(done):
            leg = active[i]
            ts = t0[leg] + (t1[leg] - t0[leg]) / (2 * M) * np.arange(2 * M + 1)
            ts[-1] = t1[leg]
            legs[leg] = MagnusLeg(A, ts, fine[i].copy())
        if done.all():
            return legs
        if 2 * M >= MAX_STEPS:
            i = int(np.argmax(excess.max(axis=1)))
            leg, node = active[i], np.unravel_index(int(np.argmax(excess[i])), est[i].shape)[0]
            raise PropagationError(
                f"Magnus leg [{t0[leg]:.6g}, {t1[leg]:.6g}] unresolved at {2 * M} steps: "
                f"Richardson error estimate {est[i].max():.3g} exceeds ATOL + RTOL |Y| "
                f"(ATOL = {ATOL:g}, RTOL = {RTOL:g})",
                t0[leg] + (t1[leg] - t0[leg]) * node / M)
        active, coarse, M = active[~done], fine[~done], 2 * M


class MagnusLeg:
    """Phi(s, t0) of a Magnus-integrated leg.

    ``ts`` holds the uniform nodes t0, ..., t1 and ``Y`` the node matrices
    Phi(ts[k], t0), shape (len(ts), n, n).  At a node the leg returns its
    matrix; elsewhere it takes one partial Magnus step from the node below
    s (in the leg's direction), all such steps of a call in one batch.
    """

    def __init__(self, A: CoefficientMatrix, ts, Y):
        self.A, self.ts, self.Y = A, ts, Y

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        flat = s.reshape(-1)
        ts = self.ts
        sign = 1.0 if ts[-1] >= ts[0] else -1.0
        k = np.clip(np.searchsorted(sign * ts, sign * flat, side="right") - 1, 0, len(ts) - 1)
        out = self.Y[k]
        off = flat != ts[k]
        if off.any():
            out[off] = _magnus_steps(self.A, ts[k[off]], flat[off] - ts[k[off]]) @ out[off]
        n2 = self.A.n ** 2
        return out.reshape(n2) if s.ndim == 0 else out.reshape(-1, n2).T


class TransitionOperator:
    """Dense-output solution operator Phi(t, tau) with leg caching.

    Cached legs map (t0, t1) to the dense solution of the matrix equation
    Y' = A(t) Y, Y(t0) = I on [t0, t1]: an ``ExactLeg`` when A is constant
    and well diagonalizable, a ``MagnusLeg`` otherwise.  ``constant`` tells
    whether no entry of A mentions ``t``.  ``eig`` is the eigendecomposition
    (V, lam, V^-1) the exact legs use, or None; ``eig_health`` then holds
    delta (``eig_residual``), ``cond_V`` and ``norm_A``.
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
            if self.eig is not None:
                leg = ExactLeg(*self.eig, key[0])
            else:
                (leg,) = _magnus_legs(self.A, [key])
            self._legs[key] = leg
        return leg

    def solve_legs(self, spans) -> list:
        """:meth:`solve_leg` of every (t0, t1) of ``spans``.

        Without ``eig``, the legs missing from the cache are first
        integrated together, in one batched Magnus pass.
        """
        keys = [(float(t0), float(t1)) for t0, t1 in spans]
        if self.eig is None:
            missing = list(dict.fromkeys(k for k in keys if k not in self._legs))
            if missing:
                self._legs.update(zip(missing, _magnus_legs(self.A, missing)))
        return [self.solve_leg(*key) for key in keys]

    def matrix(self, t0: float, t1: float) -> np.ndarray:
        """Transition matrix Phi(t1, t0)."""
        n = self.A.n
        if t0 == t1:
            return np.eye(n)
        return self.solve_leg(t0, t1)(t1).reshape(n, n)
