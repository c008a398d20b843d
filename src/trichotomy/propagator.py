"""Transition (Cauchy) operator of x' = A(t) x.

A leg is the dense solution s -> Phi(s, t0) of the matrix equation on
[t0, t1].  Two kinds of leg share one calling convention (a scalar s gives
the flattened n*n matrix, an array of k times gives shape (n*n, k)):

* Exact legs, when no entry of A mentions ``t`` and A = V diag(lam) V^-1
  with cond(V) <= ``EXACT_COND_MAX`` = 1e6 and delta = ||AV - V diag(lam)||
  ||V^-1|| <= ``EIG_RESIDUAL_MAX`` * max(1, ||A||): Phi(s, t0) = V exp(lam
  (s - t0)) V^-1, whose rounding error (about cond(V) * machine eps <= 2e-10)
  stays below the integrator's tolerance.  One eigendecomposition per operator.
* Integrated legs otherwise (time-dependent A, or a defective or
  ill-conditioned constant A such as a Jordan block): scipy's embedded
  Runge-Kutta 5(4) pair (Dormand-Prince) with dense output, run at rel tol
  1e-9 / abs tol 1e-12.  scipy is imported at the first such leg.

Transition matrices over long windows are never assembled as a single
product chain in the growing direction; higher-level code (hyperbolicity
module) always works leg by leg and projects onto decaying directions.
"""

from __future__ import annotations

import numpy as np

from .expr import compile_expr, free_vars, parse

__all__ = [
    "CoefficientMatrix",
    "ExactLeg",
    "TransitionOperator",
    "PropagationError",
]

RTOL = 1e-9
ATOL = 1e-12
# largest eigenvector-matrix condition number for which constant-A legs are
# computed from the eigendecomposition instead of integrated
EXACT_COND_MAX = 1e6
# largest eigen-residual delta / max(1, ||A||_2) for which eig is kept
EIG_RESIDUAL_MAX = 1e-10


class PropagationError(Exception):
    """Integration failure (stiffness or blow-up); carries the failing time."""

    def __init__(self, message: str, at_time: float):
        super().__init__(f"{message} (near t = {at_time:.6g})")
        self.at_time = at_time


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


class TransitionOperator:
    """Dense-output solution operator Phi(t, tau) with leg caching.

    Cached legs map (t0, t1) to the dense solution of the matrix equation
    Y' = A(t) Y, Y(t0) = I on [t0, t1]: an ``ExactLeg`` when A is constant
    and well diagonalizable, an RK45 ``OdeSolution`` otherwise.  ``eig`` is
    the eigendecomposition (V, lam, V^-1) the exact legs use, or None;
    ``eig_health`` then holds delta (``eig_residual``), ``cond_V`` and ``norm_A``.
    """

    def __init__(self, A: CoefficientMatrix):
        self.A = A
        self._legs = {}
        self.eig = None
        self.eig_health = None
        if not any(free_vars(e) for row in A.entries for e in row):
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

    def _matrix_rhs(self, t, y):
        n = self.A.n
        return (self.A.value(t) @ y.reshape(n, n)).reshape(-1)

    def solve_leg(self, t0: float, t1: float):
        """Dense solution of the matrix equation on [t0, t1] (either direction)."""
        key = (float(t0), float(t1))
        cached = self._legs.get(key)
        if cached is not None:
            return cached
        if self.eig is not None:
            leg = self._legs[key] = ExactLeg(*self.eig, key[0])
            return leg
        # scipy is imported here, so that runs with exact legs never load it
        from scipy.integrate import solve_ivp

        n = self.A.n
        y0 = np.eye(n).reshape(-1)
        sol = solve_ivp(
            self._matrix_rhs,
            (t0, t1),
            y0,
            method="RK45",
            rtol=RTOL,
            atol=ATOL,
            dense_output=True,
        )
        if not sol.success:
            raise PropagationError(f"propagation failed: {sol.message}", sol.t[-1])
        self._legs[key] = sol.sol
        return sol.sol

    def matrix(self, t0: float, t1: float) -> np.ndarray:
        """Transition matrix Phi(t1, t0)."""
        n = self.A.n
        if t0 == t1:
            return np.eye(n)
        return self.solve_leg(t0, t1)(t1).reshape(n, n)
