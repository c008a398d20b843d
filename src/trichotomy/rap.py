"""Finite-horizon diagnostics for remote almost periodicity.

A function is remotely tau-periodic when |phi(t + tau) - phi(t)| becomes
small far from the origin, and remotely almost periodic when, for every
eps > 0, the tau's achieving residual < eps beyond some horizon form a
relatively dense set.  These are statements about limits at infinity, so a
finite window can only gather evidence up to a horizon T; every report in
this module carries its horizons explicitly and claims nothing beyond them.

Every report reads one residual table per function: the sup of
|phi(t + tau) - phi(t)| beyond each horizon, for every scanned tau, built
once.  The residuals do not depend on eps, so each eps of a scan or of an
audit's ladder is only a threshold on that table.  The table is built in
blocks of taus sized to stay in cache: per block, phi at every shifted grid
time, then one segment max per horizon cut of the grid, whatever the tau.
A block whose taus are all whole multiples of the grid step reads the
shifted samples by index; any other block evaluates phi.  GridFunction's
knot rule makes phi at a grid point its sample exactly, so either way the
table is the same one the per-tau formula gives, bit for bit.

The module also provides an empirical Lagrange stability report
(boundedness plus modulus of continuity) and a compatibility audit
comparing the almost periods of a solution with those of the problem data
that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import KNOT_STEPS, GridFunction, component_norm, write_rows
from .hyperbolicity import WindowTooSmall

__all__ = [
    "RapReport",
    "LagrangeReport",
    "AuditReport",
    "remote_period_residual",
    "almost_period_scan",
    "lagrange_report",
    "solution_rap_audit",
    "DEFAULT_T_SCHEDULE",
]

DEFAULT_T_SCHEDULE = (5.0, 10.0, 20.0, 40.0)

# shifted samples (taus times grid points) per block of a residual table, so
# that a block's shifted times, spline values and norms stay in cache
_BLOCK_SAMPLES = 8192

# a scan holds one row of residuals per tau, so its tau count is capped
_MAX_TAUS = 10**6


def _residual_table(phi: GridFunction, taus, schedule, side: str) -> np.ndarray:
    """Sup of |phi(t + tau) - phi(t)| beyond each horizon, one row per tau.

    Shape (len(taus), len(schedule)).  The taus are taken in blocks of about
    ``_BLOCK_SAMPLES`` shifted samples: per block, phi is taken once at
    t + tau for every grid time t and tau of the block, and a shift that
    leaves the window scores -inf, which no norm beats.  When every tau of a
    block is within half of ``KNOT_STEPS`` grid steps of a whole number j of
    grid steps, phi at t[k] + tau is read as ``phi.values[k + j]``, which
    skips the knot test of every shifted time: each of them is within
    ``KNOT_STEPS`` of a step of grid point k + j, where GridFunction's knot
    rule returns that sample exactly, so the index read equals the
    evaluation bit for bit.  Other blocks evaluate phi.  The samples beyond
    a horizon are t[first:] for t >= T ('+') and t[:count] for t <= -T ('-')
    whatever tau is, so the horizons cut the grid into a few segments; one
    ``maximum.reduceat`` takes each segment's max, and a running max over
    those columns gives every horizon.  NaN marks a horizon with no sample
    in the window; as T grows the sample sets shrink, so the NaNs of a row
    fill its largest horizons.  A phi constant in t skips the spline: its
    spline is that constant exactly, so every in-window residual is 0.
    """
    if side not in ("+", "-", "both"):
        raise ValueError(f"side must be '+', '-' or 'both', got {side!r}")
    horizons = np.asarray(schedule, dtype=float)
    if np.any(horizons < 0):
        raise ValueError("horizon T must be nonnegative")
    t = phi.times
    m = t.size
    taus = np.asarray(taus, dtype=float)
    first = np.searchsorted(t, horizons - 1e-12)  # first t >= T
    count = np.searchsorted(t, -horizons + 1e-12, side="right")  # t <= -T
    # segment j is t[cuts[j]:cuts[j + 1]]; a mask, not np.unique, which
    # imports numpy.ma on its first call
    starts = np.zeros(m + 1, dtype=bool)
    starts[first] = starts[count] = starts[0] = True
    cuts = np.flatnonzero(starts[:m])
    plus = (first < m) & (side != "-")
    minus = (count > 0) & (side != "+")
    plus_seg = np.searchsorted(cuts, first[plus])  # the segment t[first:] starts
    minus_seg = np.searchsorted(cuts, count[minus]) - 1  # the one t[:count] ends
    table = np.full((taus.size, horizons.size), -np.inf)
    rows = max(1, _BLOCK_SAMPLES // m)
    constant = not np.ptp(phi.values, axis=0).any()
    steps = taus / phi.h
    whole = np.rint(steps)
    # half the knot tolerance, so the rounding of t + tau keeps each shifted
    # time of an index block inside GridFunction's knot rule
    on_grid = np.abs(steps - whole) <= 0.5 * KNOT_STEPS
    for lo in range(0, taus.size, rows):
        shifted = t + taus[lo : lo + rows, None]
        inside = (shifted <= phi.b + 1e-12) & (shifted >= phi.a - 1e-12)
        if constant:
            diff = np.where(inside, 0.0, -np.inf)
        else:
            if on_grid[lo : lo + rows].all():
                index = np.arange(m) + whole[lo : lo + rows, None].astype(np.intp)
                moved = phi.values.take(np.clip(index, 0, m - 1), axis=0)
            else:
                # a shift out of the window is evaluated at t instead
                moved = phi(np.where(inside, shifted, t))
            diff = component_norm(moved - phi.values)
            diff[~inside] = -np.inf
        seg = np.maximum.reduceat(diff, cuts, axis=1)
        tail = np.maximum.accumulate(seg[:, ::-1], axis=1)[:, ::-1]
        head = np.maximum.accumulate(seg, axis=1)
        block = table[lo : lo + rows]
        block[:, plus] = tail[:, plus_seg]
        block[:, minus] = np.maximum(block[:, minus], head[:, minus_seg])
    table[table == -np.inf] = math.nan
    return table


def remote_period_residual(phi: GridFunction, tau: float, T: float, side: str = "both") -> float:
    """Sup of |phi(t + tau) - phi(t)| over grid points beyond the horizon T.

    ``side`` selects t >= T ('+'), t <= -T ('-'), or the max of both.
    The shifted argument must stay inside the window, so the window has to
    reach at least T + tau past the horizon on each requested side.
    """
    worst = _residual_table(phi, [tau], [T], side)[0, 0]
    if math.isnan(worst):
        raise WindowTooSmall(
            f"no grid samples beyond horizon T = {T:g} with t + tau in "
            f"window [{phi.a:g}, {phi.b:g}]",
            T + abs(tau),
        )
    return float(worst)


@dataclass
class RapReport:
    """Almost-period scan findings over a finite tau range and T schedule.

    ``accepted`` lists the tau's whose residual drops below eps at some
    horizon in the schedule; ``L_hat`` maps each accepted tau to the
    smallest such horizon.  ``ell_hat`` is the largest gap in the accepted
    set, measured against the scanned range boundaries, so it is finite and
    at most the range length whenever anything was accepted; an empty
    accept list raises the ``not_relatively_dense`` flag instead.
    """

    eps: float
    side: str
    schedule: tuple
    tau_values: np.ndarray
    residuals: np.ndarray
    accepted: list
    L_hat: dict
    ell_hat: float
    not_relatively_dense: bool
    two_sided: bool

    def to_json(self) -> dict:
        """The report as JSON data; a curve row maps ``tau`` and ``T_<T>`` to floats, None for NaN."""
        keys = ["tau"] + [f"T_{T:g}" for T in self.schedule]
        cells = self.residuals.astype(object)
        cells[np.isnan(self.residuals)] = None
        curves = [dict(zip(keys, [tau, *row]))
                  for tau, row in zip(self.tau_values.tolist(), cells.tolist())]
        return {
            "eps": self.eps,
            "side": self.side,
            "T_schedule": [float(T) for T in self.schedule],
            "accepted": [float(t) for t in self.accepted],
            "L_hat": {f"{t:.12g}": float(T) for t, T in self.L_hat.items()},
            "ell_hat": None if math.isinf(self.ell_hat) else self.ell_hat,
            "not_relatively_dense": self.not_relatively_dense,
            "two_sided": self.two_sided,
            "residual_curves": curves,
        }

    def write_csv(self, path) -> None:
        """Residual curves as CSV: one row per tau, one column per horizon.

        Cells carry 12 significant digits, rows end in ``\\r\\n`` as
        ``csv.writer`` ends them, and an unsupported horizon (NaN) is an
        empty cell.
        """
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(["tau"] + [f"T_{T:g}" for T in self.schedule]) + "\r\n")
            write_rows(fh, np.column_stack([self.tau_values, self.residuals]),
                       "%.12g", "\r\n", nan="")


def _tau_count(tau_range: tuple, tau_step: float) -> int:
    """How many taus lo, lo + step, ... up to hi a scan holds; at most ``_MAX_TAUS``."""
    if tau_step <= 0:
        raise ValueError("tau step must be positive")
    lo, hi = float(tau_range[0]), float(tau_range[1])
    if hi < lo:
        raise ValueError("empty tau range")
    count = int(math.floor((hi - lo) / tau_step + 1e-9)) + 1
    if count > _MAX_TAUS:
        raise ValueError(
            f"tau range [{lo:g}, {hi:g}] at step {tau_step:g} holds {count} taus, "
            f"more than the {_MAX_TAUS} a scan may hold"
        )
    return count


def _scan_table(phi: GridFunction, tau_range: tuple, tau_step: float, schedule, side: str):
    """The scanned taus, the sorted schedule and phi's residual table over them."""
    taus = float(tau_range[0]) + tau_step * np.arange(_tau_count(tau_range, tau_step))
    if phi.h > tau_step + 1e-12:
        raise ValueError(
            f"grid resolution {phi.h:g} is coarser than tau step {tau_step:g}"
        )
    schedule = tuple(sorted(float(T) for T in schedule))
    return taus, schedule, _residual_table(phi, taus, schedule, side)


def _accepted(taus, residuals, schedule, eps: float):
    """Taus whose residual beats eps at some horizon, and that least horizon.

    NaN entries (unsupported horizons) never beat eps.
    """
    hits = residuals < eps
    rows = hits.any(axis=1)
    accepted = np.asarray(taus, dtype=float)[rows].tolist()
    least = hits[rows].argmax(axis=1).tolist() if accepted else []
    return accepted, {tau: schedule[j] for tau, j in zip(accepted, least)}


def almost_period_scan(
    phi: GridFunction,
    eps: float,
    tau_range: tuple,
    tau_step: float,
    schedule=DEFAULT_T_SCHEDULE,
    side: str = "both",
) -> RapReport:
    """Scan tau over a range for eps-almost-periods of phi.

    For each tau the residual is evaluated at every horizon in the schedule
    that the window supports; tau is accepted if any of them beats eps, and
    the smallest such horizon is recorded as L_hat(eps, tau).  Horizons the
    window cannot support are skipped (recorded as NaN in the curves), so an
    empty accept list is a finding, not an error.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    taus, schedule, residuals = _scan_table(phi, tau_range, tau_step, schedule, side)
    accepted, L_hat = _accepted(taus, residuals, schedule, eps)
    knots = [float(tau_range[0])] + accepted + [float(tau_range[1])]
    ell_hat = float(max(b - a for a, b in zip(knots, knots[1:]))) if accepted else math.inf
    return RapReport(
        eps=eps,
        side=side,
        schedule=schedule,
        tau_values=taus,
        residuals=residuals,
        accepted=accepted,
        L_hat=L_hat,
        ell_hat=ell_hat,
        not_relatively_dense=not accepted,
        two_sided=(side == "both"),
    )


@dataclass
class LagrangeReport:
    """Boundedness and uniform-continuity evidence on a finite window."""

    sup_norm: float
    window: tuple
    delta_ladder: list
    omega_hat: list
    slope: float
    bounded: bool
    uc_doubtful: bool
    lagrange_stable: bool

    def to_json(self) -> dict:
        return {
            "sup_norm": self.sup_norm,
            "window": list(self.window),
            "delta_ladder": self.delta_ladder,
            "omega_hat": self.omega_hat,
            "log_log_slope": self.slope,
            "bounded_evidence": self.bounded,
            "uniform_continuity_doubtful": self.uc_doubtful,
            "lagrange_stable_evidence": self.lagrange_stable,
        }


def lagrange_report(phi: GridFunction) -> LagrangeReport:
    """Empirical Lagrange-stability check: bounded range + equicontinuity.

    The modulus of continuity omega_hat(delta) = max |phi(t) - phi(s)| over
    grid pairs with |t - s| <= delta is tabulated on the ladder
    delta in {h, 2h, 4h, 8h, 16h}.  Evidence of boundedness is the absence
    of edge growth (full-window sup within 20% of the middle-80% sup);
    uniform continuity is doubtful when omega_hat decays much slower than
    linearly (log-log slope below 0.5), which is what unresolved
    oscillation looks like on a grid.
    """
    h = phi.h
    vals = phi.values
    m = vals.shape[0]
    ladder = [h * k for k in (1, 2, 4, 8, 16) if k < m]
    omega = []
    w = 0.0
    steps = 0
    for delta in ladder:
        k = int(round(delta / h))
        for j in range(steps + 1, k + 1):
            d = float(component_norm(vals[j:] - vals[:-j]).max())
            w = max(w, d)
        steps = k
        omega.append(w)

    sup = phi.sup_norm
    margin = 0.1 * (phi.b - phi.a)
    mid = phi.restrict(phi.a + margin, phi.b - margin)
    mid_sup = mid.sup_norm
    bounded = sup <= 1.2 * mid_sup + 1e-12

    if omega and omega[-1] > 1e-10:
        lo = max(omega[0], 1e-300)
        slope = float(
            np.polyfit(np.log(ladder), np.log(np.maximum(omega, lo * 1e-6)), 1)[0]
        )
    else:
        slope = 1.0
    uc_doubtful = bool(omega and omega[-1] > 1e-10 and slope < 0.5)
    return LagrangeReport(
        sup_norm=sup,
        window=(phi.a, phi.b),
        delta_ladder=ladder,
        omega_hat=omega,
        slope=slope,
        bounded=bounded,
        uc_doubtful=uc_doubtful,
        lagrange_stable=bool(bounded and not uc_doubtful),
    )


@dataclass
class AuditReport:
    """Comparison of almost periods of a solution against its problem data.

    Remote compatibility would make every common almost period of the data
    an almost period of the solution; this audit checks that one direction
    on a finite scan.  It can support the property, never refute it.
    """

    eps_ladder: list
    entries: dict
    scan_params: dict

    def to_json(self) -> dict:
        return {
            "eps_ladder": self.eps_ladder,
            "scan_params": self.scan_params,
            "per_eps": {f"{eps:g}": entry for eps, entry in self.entries.items()},
        }


def solution_rap_audit(
    phi: GridFunction,
    inputs: dict,
    eps_ladder,
    tau_range: tuple,
    tau_step: float,
    schedule=DEFAULT_T_SCHEDULE,
    side: str = "both",
) -> AuditReport:
    """Audit whether the solution inherits the almost periods of the data.

    ``inputs`` maps labels (coefficient entries, forcing components,
    nonlinearity slices) to GridFunctions on the window of ``phi``.  For
    each eps in the ladder, every tau accepted by all inputs should be
    accepted for the solution; the ``missing`` list holds the exceptions.
    Each input and the solution get one residual table; each eps is a
    threshold on those tables.
    """
    for name, g in inputs.items():
        if (g.a, g.b) != (phi.a, phi.b):
            raise ValueError(f"input {name!r} does not share the solution window")
    if any(eps <= 0 for eps in eps_ladder):
        raise ValueError("eps must be positive")
    if len(set(map(float, eps_ladder))) < len(eps_ladder):
        raise ValueError(f"eps ladder repeats a value: {list(eps_ladder)}")
    scan = (tau_range, tau_step, schedule, side)
    input_tables = {name: _scan_table(g, *scan)[2] for name, g in inputs.items()}
    taus, sorted_schedule, sol_table = _scan_table(phi, *scan)
    entries = {}
    for eps in eps_ladder:
        input_acc = {
            name: _accepted(taus, table, sorted_schedule, eps)[0]
            for name, table in input_tables.items()
        }
        sets = [set(accepted) for accepted in input_acc.values()]
        common = sorted(set.intersection(*sets)) if sets else []
        sol_acc = _accepted(taus, sol_table, sorted_schedule, eps)[0]
        missing = sorted(set(common) - set(sol_acc))
        entries[float(eps)] = {
            "input_accepted": input_acc,
            "common_input_accepted": common,
            "solution_accepted": sol_acc,
            "missing": missing,
            "compatible_evidence": not missing,
        }
    return AuditReport(
        eps_ladder=[float(e) for e in eps_ladder],
        entries=entries,
        scan_params={
            "tau_range": [float(tau_range[0]), float(tau_range[1])],
            "tau_step": float(tau_step),
            "T_schedule": [float(T) for T in schedule],
            "side": side,
        },
    )
