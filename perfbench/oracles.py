"""Independent outcome checks for one job's exit code and artifacts.

Closed forms come from the generator's parameters and plain numpy/scipy:
``(i w I - A)^-1`` for trigonometric forcing on constant A, a manufactured
``w atan(k t)`` solution for remotely stationary forcing, the rotating-frame
solution for rotation-conjugated saddles, ``k (c tanh(ct) cos(mu t) +
mu sin(mu t)) / (c^2 + mu^2)`` for the tanh center component pinned at 0, and
``scipy.optimize.root`` equilibria for constant-forcing semilinear problems.
Shift residuals for the almost-period scans are recomputed from the closed
form on the solution's own grid.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

# Solution error allowed against a closed form, in units of the job's tol and
# relative to the solution's size.  This matches the solver's own 10*tol residual gate.
ERR_FACTOR = 10.0
# Shift residuals this close to eps are too near the decision boundary to judge.
DECISION_MARGIN = 1e-3
RAP_SCHEDULE = (5.0, 10.0, 20.0, 40.0)


@dataclass
class Verdict:
    ok: bool
    detail: str


def _read_json(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(out, name):
    data = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1:]


# ---------------------------------------------------------------------------
# closed forms


def _harmonic(A, trig, t):
    """Bounded solution of x' = A x + sum a cos(w t) + b sin(w t)."""
    n = A.shape[0]
    x = np.zeros((t.size, n))
    for w, a, b in trig:
        c = np.asarray(a) - 1j * np.asarray(b)
        m = np.linalg.solve(1j * w * np.eye(n) - A, c)
        x += np.real(np.exp(1j * w * t)[:, None] * m[None, :])
    return x


def const_solution(system, t):
    A = np.asarray(system["A"], dtype=float)
    x = _harmonic(A, system["trig"], t)
    if system["atan"] is not None:
        k, w = system["atan"]["k"], np.asarray(system["atan"]["w"])
        x += np.arctan(k * t)[:, None] * w[None, :]
    return x


def const_forcing(system, t):
    A = np.asarray(system["A"], dtype=float)
    f = np.zeros((t.size, A.shape[0]))
    for w, a, b in system["trig"]:
        f += np.cos(w * t)[:, None] * np.asarray(a) + np.sin(w * t)[:, None] * np.asarray(b)
    if system["atan"] is not None:
        k, w = system["atan"]["k"], np.asarray(system["atan"]["w"])
        f += (k / (1.0 + (k * t) ** 2))[:, None] * w - np.arctan(k * t)[:, None] * (A @ w)
    return f


def rotation_solution(o, t):
    d = (-o["a"], o["b"])
    y = np.zeros((t.size, 2))
    for j in range(2):
        c = o["p"][j] - 1j * o["q"][j]
        y[:, j] = np.real(c / (1j * o["mu"][j] - d[j]) * np.exp(1j * o["mu"][j] * t))
    co, so = np.cos(o["omega"] * t), np.sin(o["omega"] * t)
    return np.stack([co * y[:, 0] - so * y[:, 1], so * y[:, 0] + co * y[:, 1]], axis=-1)


def tanh_solution(o, t):
    x12 = _harmonic(np.asarray(o["A12"]), o["trig"], t)
    c, k, mu = o["c"], o["k"], o["mu"]
    x3 = k * (c * np.tanh(c * t) * np.cos(mu * t) + mu * np.sin(mu * t)) / (c * c + mu * mu)
    return np.column_stack([x12, x3])


_FN = {"sin": np.sin, "tanh": np.tanh}


def equilibrium(o, eps):
    """Root of A x + f + eps F(x) = 0 (the bounded solution is this constant)."""
    A, f = np.asarray(o["A"]), np.asarray(o["f"])

    def g(x):
        Fx = np.zeros_like(x)
        for i, (k, fn, j) in enumerate(o["F"]):
            Fx[i] = k * _FN[fn](x[j])
        return A @ x + f + eps * Fx

    sol = root(g, np.linalg.solve(A, -f), tol=1e-13)
    if np.linalg.norm(g(sol.x)) > 1e-11:
        raise RuntimeError(f"equilibrium root failed: {sol.message}")
    return sol.x


_SOLUTIONS = {
    "const-linear": const_solution,
    "window": const_solution,
    "rotation": rotation_solution,
    "tanh": tanh_solution,
}


def _solution_error(t, X, exact):
    err = float(np.max(np.linalg.norm(X - exact, axis=1)))
    scale = max(1.0, float(np.max(np.linalg.norm(exact, axis=1))))
    return err, scale


# ---------------------------------------------------------------------------
# shift residuals


def shift_residuals(fn, times, taus, side):
    """Residual table (tau x horizon) as the scan defines it, NaN past support.

    For each tau the horizons are tried in ascending order; the first horizon
    without samples on any requested side ends the row.
    """
    a, b = times[0], times[-1]
    base = fn(times)
    sides = ("+", "-") if side == "both" else (side,)
    out = np.full((len(taus), len(RAP_SCHEDULE)), np.nan)
    for i, tau in enumerate(taus):
        in_win = (times + tau <= b + 1e-12) & (times + tau >= a - 1e-12)
        diff = np.linalg.norm(fn(times + tau) - base, axis=1)
        for j, T in enumerate(RAP_SCHEDULE):
            vals = []
            for s in sides:
                mask = in_win & ((times >= T - 1e-12) if s == "+" else (times <= -T + 1e-12))
                if mask.any():
                    vals.append(diff[mask].max())
            if not vals:
                break
            out[i, j] = max(vals)
    return out


def _decisions(table, eps):
    """tau index -> accepted, for rows whose every residual is clear of eps."""
    out = {}
    for i, row in enumerate(table):
        vals = row[~np.isnan(row)]
        if vals.size and np.all(np.abs(vals - eps) > DECISION_MARGIN):
            out[i] = bool(np.any(vals < eps))
    return out


def _compare_accepts(label, taus, accepted, table, eps):
    got = {round(float(x), 9) for x in accepted}
    for i, want in _decisions(table, eps).items():
        if (round(float(taus[i]), 9) in got) != want:
            verb = "rejected" if want else "accepted"
            return f"{label}: tau {taus[i]:.4g} {verb} against analytic residuals at eps {eps:g}"
    return None


def _taus(flags):
    lo, hi, step = flags["tau_range"]
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


# ---------------------------------------------------------------------------
# per-kind checks


def _check_linear(job, out, fn):
    rep = _read_json(out, "report.json")
    tol = job.problem["tol"]
    if rep["ode_residual_max"] > 10 * tol:
        return Verdict(False, f"ode_residual_max {rep['ode_residual_max']:.3g} > 10*tol")
    t, X = _read_csv(out, "sol.csv")
    err, scale = _solution_error(t, X, fn(job.oracle, t))
    if err > ERR_FACTOR * tol * scale:
        return Verdict(False, f"solution error {err:.3g} > {ERR_FACTOR:g}*tol*{scale:.3g}")
    return Verdict(True, f"solution error {err:.2e}")


def _check_dichotomy(job, out):
    data = _read_json(out, "dichotomy.json")
    if not data.get("ok"):
        return Verdict(False, "dichotomy rejected")
    P_err = float(np.linalg.norm(np.asarray(data["P"]) - np.asarray(job.oracle["P"]), 2))
    if P_err > 1e-6:
        return Verdict(False, f"projector error {P_err:.3g} > 1e-6")
    if not (data["N"] >= 1.0 and 0.0 < data["nu"] <= job.oracle["rate"] * (1 + 1e-9)):
        return Verdict(False, f"constants N={data['N']:.4g}, nu={data['nu']:.4g} "
                              f"inadmissible for rate {job.oracle['rate']:.4g}")
    return Verdict(True, f"projector error {P_err:.2e}")


def _check_semilinear(job, out):
    tol = job.problem["tol"]
    if job.command == "solve-semilinear":
        rep = _read_json(out, "report.json")
        if rep["ode_residual"] > 10 * tol:
            return Verdict(False, f"ode_residual {rep['ode_residual']:.3g} > 10*tol")
        if rep["measured_deviation"] > rep["r_bound"]:
            return Verdict(False, f"measured_deviation {rep['measured_deviation']:.3g} "
                                  f"> r_bound {rep['r_bound']:.3g}")
        cases = [(1.0, "sol.csv", None, None)]
    else:
        rows = _read_json(out, "continuation.json")["results"]
        if [r["eps"] for r in rows] != list(job.flags["eps"]):
            return Verdict(False, "continuation eps ladder differs from the request")
        cases = [(r["eps"], r["csv"], r["deviation"], r["bound"]) for r in rows]
    x_lin = equilibrium(job.oracle, 0.0)
    worst = 0.0
    for eps, csv, dev, bound in cases:
        x_star = equilibrium(job.oracle, eps)
        _, X = _read_csv(out, csv)
        err = float(np.max(np.linalg.norm(X - x_star, axis=1)))
        scale = max(1.0, float(np.linalg.norm(x_star)))
        worst = max(worst, err / scale)
        if err > ERR_FACTOR * tol * scale:
            return Verdict(False, f"eps {eps:g}: error vs equilibrium {err:.3g}")
        if dev is not None:
            exact_dev = float(np.linalg.norm(x_star - x_lin))
            if dev > bound or abs(dev - exact_dev) > ERR_FACTOR * tol * scale:
                return Verdict(False, f"eps {eps:g}: deviation {dev:.4g} (exact "
                                      f"{exact_dev:.4g}, bound {bound:.4g})")
    return Verdict(True, f"equilibrium error {worst:.2e}")


def _check_rap(job, out):
    system = job.oracle["system"]
    tol = job.problem["tol"]
    t, X = _read_csv(out, "sol.csv")
    def exact(s):
        return const_solution(system, s)

    err, scale = _solution_error(t, X, exact(t))
    if err > ERR_FACTOR * tol * scale:
        return Verdict(False, f"solution error {err:.3g}")
    taus = _taus(job.flags)
    side = job.flags["side"]
    sol_table = shift_residuals(exact, t, taus, side)
    if job.command == "rap-scan":
        rep = _read_json(out, "rap_report.json")
        eps = job.flags["eps"][0]
        got = np.array([[np.nan if row[f"T_{T:g}"] is None else row[f"T_{T:g}"]
                         for T in RAP_SCHEDULE] for row in rep["residual_curves"]])
        if got.shape != sol_table.shape or not np.array_equal(np.isnan(got), np.isnan(sol_table)):
            return Verdict(False, "scanned horizons differ from the window's support")
        res_err = float(np.nanmax(np.abs(got - sol_table))) if np.isfinite(got).any() else 0.0
        if res_err > ERR_FACTOR * tol * scale:
            return Verdict(False, f"shift residual error {res_err:.3g}")
        bad = _compare_accepts("solution", taus, rep["accepted"], sol_table, eps)
        return Verdict(bad is None, bad or f"shift residual error {res_err:.2e}")
    audit = _read_json(out, "audit.json")
    n = len(system["A"])
    tables = {f"f[{i + 1}]": shift_residuals(
        lambda s, i=i: const_forcing(system, s)[:, i:i + 1], t, taus, side) for i in range(n)}
    const_table = shift_residuals(lambda s: np.zeros((s.size, 1)), t, taus, side)
    for i in range(n):
        for j in range(n):
            tables[f"A[{i + 1}][{j + 1}]"] = const_table
    for eps_key, entry in audit["per_eps"].items():
        eps = float(eps_key)
        for label, table in tables.items():
            bad = _compare_accepts(label, taus, entry["input_accepted"][label], table, eps)
            if bad:
                return Verdict(False, bad)
        bad = _compare_accepts("solution", taus, entry["solution_accepted"], sol_table, eps)
        if bad:
            return Verdict(False, bad)
    return Verdict(True, f"solution error {err:.2e}")


def check(job, rc, out, stderr: str) -> Verdict:
    """Judge one job: exit class first, then artifacts against the oracle."""
    kind = job.oracle["kind"]
    expected = {"negative": 2, "window": 1}.get(kind, 0)
    if kind == "window" and rc == 0:
        return _check_linear(job, out, _SOLUTIONS[kind])
    if rc != expected:
        return Verdict(False, f"exit {rc}, expected {expected}")
    try:
        if kind == "window":
            ok = "window" in stderr.lower()
            return Verdict(ok, "window too small" if ok
                           else f"exit 1 without a window finding: {stderr.strip()[:80]}")
        if kind == "negative":
            name = ("trichotomy.json" if os.path.exists(os.path.join(out, "trichotomy.json"))
                    else "report.json")
            ok = _read_json(out, name).get("ok") is False
            return Verdict(ok, "certified negative" if ok else f"exit 2 but {name} reports ok")
        if kind in _SOLUTIONS:
            return _check_linear(job, out, _SOLUTIONS[kind])
        if kind == "dichotomy":
            return _check_dichotomy(job, out)
        if kind == "equilibrium":
            return _check_semilinear(job, out)
        return _check_rap(job, out)
    except (OSError, KeyError, ValueError) as exc:
        return Verdict(False, f"artifact unreadable or incomplete: {exc!r}")
