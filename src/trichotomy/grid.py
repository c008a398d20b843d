"""Uniformly sampled vector-valued functions on a time window.

GridFunction is the common currency of the solver and diagnostic modules: a
window ``[a, b]``, a uniform step ``h`` and an array of samples, with cubic
interpolation between samples and the sup-norm taken as the max over samples.
A value asked for at a grid point is that point's sample, read by index.

The interpolant is the not-a-knot cubic spline (the one scipy's CubicSpline
builds by default; two samples give the line, three the parabola).  On a
uniform grid its slopes solve s[i-1] + 4 s[i] + s[i+1] = 3 (d[i-1] + d[i])
with divided differences d.  The symbol z^-1 + 4 + z factors as
(1 + rho z^-1)(1 + rho z) / rho with rho = 2 - sqrt(3), so a particular
solution comes from one causal and one anti-causal geometric filter, each
truncated at 32 taps (rho^32 < 1e-18); adding the two homogeneous solutions
(-rho)^i and (-rho)^(m-i) with weights from a 2x2 solve meets the not-a-knot
end rows.  The spline is stored as per-interval coefficients ``coeffs`` of
shape (4, m, n): on interval k, x(a + k h + u) = sum_p coeffs[p, k] u^p.
One row per power keeps every gather and Horner step of an evaluation on
contiguous (points, n) arrays.
"""

from __future__ import annotations

import numpy as np

from .expr import EvalError

__all__ = ["GridFunction", "KNOT_STEPS", "component_norm", "write_csv", "write_rows"]

_RHO = 2.0 - np.sqrt(3.0)

# knot rule of GridFunction.__call__: a value asked for within this many grid
# steps of a grid point is that point's sample
KNOT_STEPS = 1e-9

# rows of a CSV block: one % operation formats a block
_CSV_BLOCK_ROWS = 512


def component_squares(d: np.ndarray, out=None) -> np.ndarray:
    """Squared euclidean norm over the last axis: the sum ``np.linalg.norm`` takes the root of.

    Summed in component order, a fifth of the cost of numpy's reduction along a short
    last axis; from 8 components on numpy sums in unrolled blocks of 8, so that is kept.
    """
    if d.shape[-1] >= 8:
        return np.add.reduce(d * d, axis=-1, out=out)
    sq = np.multiply(d[..., 0], d[..., 0], out=out)
    for i in range(1, d.shape[-1]):
        sq += d[..., i] * d[..., i]
    return sq


def component_norm(d: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis: the same bits as ``np.linalg.norm(d, axis=-1)``."""
    return np.sqrt(component_squares(d))


def _raise_first_failure(fn, times):
    """Call ``fn`` at the first time whose prefix of ``times`` raises :class:`EvalError`."""
    ok, bad = 0, len(times)
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            fn(times[:mid])
        except EvalError:
            bad = mid
        else:
            ok = mid
    fn(times[bad - 1])


class GridFunction:
    """Samples of a function ``[a, b] -> R^n`` on a uniform grid.

    Parameters
    ----------
    a, b : float
        Window endpoints, ``a < b``.
    values : array_like, shape (m+1, n) or (m+1,)
        Samples at ``a + k*(b-a)/m``; 1-d input is treated as scalar-valued.
    """

    def __init__(self, a: float, b: float, values):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("values must be a (m+1, n) array with m >= 1")
        if not b > a:
            raise ValueError("window must satisfy a < b")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must all be finite")
        self.a = float(a)
        self.b = float(b)
        self.values = values
        self._coeffs = None

    @classmethod
    def from_callable(cls, fn, a: float, b: float, step: float) -> "GridFunction":
        """Sample ``fn`` (vectorized or not over t) at spacing <= ``step``.

        A callable that cannot take the time array (it raises ``TypeError``,
        or does not give one row per time) is called point by point.  An
        :class:`EvalError` of the array call is raised again from one scalar
        call at the first failing time, which bisection over prefixes of the
        array finds in O(log m) array calls.
        """
        m = max(1, int(np.ceil((b - a) / step - 1e-12)))
        times = np.linspace(a, b, m + 1)
        try:
            out = fn(times)
        except EvalError:
            _raise_first_failure(fn, times)
            raise
        except TypeError:
            out = None
        try:
            vals = np.asarray(out, dtype=float)
        except ValueError:  # a ragged result
            vals = None
        if vals is None or vals.shape[:1] != times.shape:
            vals = np.asarray([np.atleast_1d(fn(t)) for t in times], dtype=float)
        return cls(a, b, vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.values.shape[0] - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.values.shape[0])

    @property
    def sup_norm(self) -> float:
        """Max over samples of the euclidean vector norm."""
        return float(np.max(component_norm(self.values)))

    @property
    def coeffs(self) -> np.ndarray:
        """Spline coefficients, shape (4, m, n), in powers of u = t - (a + k h)."""
        if self._coeffs is None:
            self._coeffs = _spline_coeffs(self.values, self.h)
        return self._coeffs

    def __call__(self, t, nu: int = 0):
        """Spline value (``nu=0``) or first derivative (``nu=1``) at ``t``.

        ``t`` is a scalar or an array; the result has shape ``t.shape + (n,)``.
        Evaluation is strict on bounds, up to a relative slack of 1e-9.
        Values follow one knot rule: a point within ``KNOT_STEPS`` (1e-9) of
        a step of a grid point returns that grid point's sample exactly, and a
        call whose points all lie on the grid reads the samples by index
        without building the spline.  Other points, and every ``nu=1`` query,
        take the cubic.
        """
        if nu not in (0, 1):
            raise ValueError("nu must be 0 or 1")
        t = np.asarray(t, dtype=float)
        slack = 1e-9 * max(1.0, abs(self.a), abs(self.b))
        if t.size and (t.min() < self.a - slack or t.max() > self.b + slack):
            raise ValueError(
                f"evaluation at t outside window [{self.a}, {self.b}]"
            )
        h = self.h
        x = (t - self.a) / h
        samples = None
        if nu == 0:
            nearest = np.rint(x)
            knot = np.abs(x - nearest) <= KNOT_STEPS
            if knot.any():  # gathered only for a call with a point on the grid
                index = np.clip(nearest, 0, self.values.shape[0] - 1).astype(np.intp)
                samples = self.values.take(index, axis=0)
                if knot.all():
                    return samples
        C = self.coeffs
        k = np.clip(x, 0, C.shape[1] - 1).astype(np.intp)
        # u broadcast over the components of each gathered (points, n) row
        u = (np.clip(t, self.a, self.b) - (self.a + k * h))[..., None]
        if nu == 0:
            out = C[3].take(k, axis=0) * u
            for p in (2, 1):
                out += C[p].take(k, axis=0)
                out *= u
            out += C[0].take(k, axis=0)
            if samples is not None:
                np.copyto(out, samples, where=knot[..., None])
        else:
            out = 3.0 * C[3].take(k, axis=0) * u
            out += 2.0 * C[2].take(k, axis=0)
            out *= u
            out += C[1].take(k, axis=0)
        return out

    def restrict(self, a2: float, b2: float) -> "GridFunction":
        """Slice to the grid-aligned subwindow containing ``[a2, b2]``."""
        h = self.h
        i0 = max(0, int(np.floor((a2 - self.a) / h + 1e-9)))
        i1 = min(self.values.shape[0] - 1, int(np.ceil((b2 - self.a) / h - 1e-9)))
        if i1 - i0 < 1:
            raise ValueError("restriction window too small")
        a_new, b_new = self.a + i0 * h, self.a + i1 * h
        # absorb accumulated rounding when the request is already a node
        if abs(a_new - a2) <= 1e-9 * max(1.0, abs(a2)):
            a_new = float(a2)
        if abs(b_new - b2) <= 1e-9 * max(1.0, abs(b2)):
            b_new = float(b2)
        return GridFunction(a_new, b_new, self.values[i0 : i1 + 1])

    def derivative_grid(self) -> np.ndarray:
        """Fourth-order finite-difference derivative at the sample points.

        Central five-point stencils inside, one-sided fourth-order stencils at
        the first/last two points.
        """
        v = self.values
        h = self.h
        m = v.shape[0]
        if m < 5:
            return self(self.times, 1)
        d = np.empty_like(v)
        d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
        fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
        for k in (0, 1):
            d[k] = fwd @ v[k : k + 5]
            idx = np.arange(m - 1 - k, m - 6 - k, -1)
            d[m - 1 - k] = -(fwd @ v[idx])
        return d


def _slopes(d: np.ndarray) -> np.ndarray:
    """Not-a-knot spline slopes from the divided differences ``d`` (shape (m, n))."""
    m = d.shape[0]
    if m == 1:
        return np.concatenate([d, d])
    if m == 2:
        return np.stack([1.5 * d[0] - 0.5 * d[1], 0.5 * (d[0] + d[1]),
                         1.5 * d[1] - 0.5 * d[0]])
    # particular solution p of p[i-1] + 4 p[i] + p[i+1] = r[i], i = 1..m-1:
    # the causal filter sum_k (-rho)^k S^k, then the anti-causal one, each
    # applied as five doublings of 1 + c S^j (2^5 = 32 taps)
    r = np.zeros((m + 1, d.shape[1]))
    r[1:-1] = 3.0 * (d[:-1] + d[1:])
    for j in (1, 2, 4, 8, 16):
        r[j:] = r[j:] + (-_RHO) ** j * r[:-j]
    for j in (1, 2, 4, 8, 16):
        r[:-j] = r[:-j] + (-_RHO) ** j * r[j:]
    p = _RHO * r
    # p + alpha g + beta g[::-1] with g[i] = (-rho)^i meets the end rows
    # s[0] + 2 s[1] = (5 d[0] + d[1]) / 2 and its mirror image
    g = (-_RHO) ** np.arange(m + 1.0)
    diag, off = g[0] + 2.0 * g[1], g[-1] + 2.0 * g[-2]
    e0 = 0.5 * (5.0 * d[0] + d[1]) - p[0] - 2.0 * p[1]
    e1 = 0.5 * (5.0 * d[-1] + d[-2]) - p[-1] - 2.0 * p[-2]
    det = diag * diag - off * off
    alpha = (diag * e0 - off * e1) / det
    beta = (diag * e1 - off * e0) / det
    return p + np.outer(g, alpha) + np.outer(g[::-1], beta)


def _spline_coeffs(y: np.ndarray, h: float) -> np.ndarray:
    """Per-interval cubic coefficients of samples ``y``, shape (4, m, n), lowest power first."""
    d = np.diff(y, axis=0) / h
    s = _slopes(d)
    t = (s[:-1] + s[1:] - 2.0 * d) / h
    return np.stack([y[:-1], s[:-1], (d - s[:-1]) / h - t, t / h])


def write_rows(fh, rows: np.ndarray, fmt: str, newline: str = "\n", nan: str = "nan") -> None:
    """Write a 2-D float array as comma-separated lines, each cell as ``fmt % x``.

    The text is the one a per-row ``",".join([fmt] * ncols) % tuple(row)``
    gives.  Rows go in blocks of ``_CSV_BLOCK_ROWS``: one ``%`` with the line
    format repeated over the block's flat values, so the lists built stay a
    block long.  A NaN cell, which ``%g`` writes as ``nan``, is written as
    the text ``nan`` instead; no other ``%g`` cell contains those letters.
    """
    line = ",".join([fmt] * rows.shape[1]) + newline
    for lo in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
        block = rows[lo : lo + _CSV_BLOCK_ROWS]
        text = (line * block.shape[0]) % tuple(block.ravel().tolist())
        fh.write(text if nan == "nan" else text.replace("nan", nan))


def write_csv(path, gf: GridFunction) -> None:
    """Write ``t, x1..xn`` rows with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(f"x{i+1}" for i in range(gf.dim)) + "\n")
        write_rows(fh, np.column_stack([gf.times, gf.values]), "%.17g")
