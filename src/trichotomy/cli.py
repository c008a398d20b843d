"""Command-line driver: problem ingestion, dispatch, artifact export.

A problem file is JSON describing x' = A(t) x + f(t) + F(t, x) on a
symmetric window [-T, T] (see ``problems/problem.schema.json``; the bundled
problems under ``trichotomy/problems/`` are working examples).  Each command
loads the problem, certifies it through ``build_trichotomy`` (for
``check-dichotomy``, a trichotomy whose center R = PQ is 0), runs one
pipeline, writes CSV/JSON artifacts into the --out directory and prints a
short summary.  Exit codes are scriptable: 0 on success, 2 when the run
completed but certified a negative finding (no dichotomy, a center on
``check-dichotomy``, incompatible half-line projectors, contraction
refusal), 1 on errors.  :func:`run` turns every certified negative into
exit 2 in one place.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

import numpy as np
import jsonschema

from .expr import ExprError, eval_expr, free_vars, parse
from .grid import GridFunction, write_csv
from .propagator import CoefficientMatrix, PropagationError, TransitionOperator
from .hyperbolicity import (
    DichotomyCertificate,
    GreenKernel,
    HyperbolicityError,
    NoDichotomyDetected,
    NonHyperbolicError,
    TrichotomyIncompatibility,
    _check_spectral_constants,
    build_trichotomy,
    certificate_to_json,
)
from .solvers import (
    AccuracyError,
    ContractionError,
    LipschitzSpec,
    SolverError,
    _deviation_bound,
    _grid_values,
    _sampled_lipschitz_ratio,
    _state_env,
    _tail_horizon,
    epsilon_continuation,
    ode_residual,
    picard_solve,
    solve_linear_bounded,
)
from .rap import _tau_count, almost_period_scan, lagrange_report, solution_rap_audit

__all__ = [
    "ProblemSpec",
    "ProblemError",
    "load_problem",
    "save_problem",
    "run",
    "main",
    "COMMANDS",
]

COMMANDS = (
    "check-dichotomy",
    "check-trichotomy",
    "solve-linear",
    "solve-semilinear",
    "continue-epsilon",
    "rap-scan",
    "audit",
)

OUTPUT_STEP = 0.02
# most forcing-grid values (points times dimension) a solve may allocate
MAX_GRID_VALUES = 2_000_000


class ProblemError(Exception):
    """Problem file rejected: schema violation, bad expression, bad shape."""


@dataclass
class ProblemSpec:
    """Validated problem with all expressions parsed and compiled."""

    dim: int
    A_strings: list
    window: float
    f_strings: Optional[list] = None
    F_strings: Optional[list] = None
    L: Optional[float] = None
    eps: Optional[float] = None
    certificate: Optional[dict] = None
    tol: float = 1e-6
    name: Optional[str] = None
    description: Optional[str] = None
    A: CoefficientMatrix = field(default=None, repr=False, compare=False)
    f_exprs: list = field(default=None, repr=False, compare=False)
    F_exprs: list = field(default=None, repr=False, compare=False)

    def serialize(self) -> dict:
        """Plain JSON data; load_problem(serialize()) round-trips."""
        data = {}
        if self.name is not None:
            data["name"] = self.name
        if self.description is not None:
            data["description"] = self.description
        data["dim"] = self.dim
        data["A"] = [list(row) for row in self.A_strings]
        if self.f_strings is not None:
            data["f"] = list(self.f_strings)
        if self.F_strings is not None:
            data["F"] = list(self.F_strings)
        if self.L is not None:
            data["L"] = self.L
        if self.eps is not None:
            data["eps"] = self.eps
        if self.certificate is not None:
            cert = {"P": [list(map(float, r)) for r in self.certificate["P"]]}
            if self.certificate.get("Q") is not None:
                cert["Q"] = [list(map(float, r)) for r in self.certificate["Q"]]
            cert["N"] = self.certificate["N"]
            cert["nu"] = self.certificate["nu"]
            data["certificate"] = cert
        data["window"] = self.window
        data["tol"] = self.tol
        return data

    def forcing_fn(self):
        """Vectorized t -> f(t) sampler (zero when the problem has no f)."""
        exprs = self.f_exprs
        n = self.dim

        def fn(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape + (n,))
            if exprs is not None:
                for i, e in enumerate(exprs):
                    out[..., i] = eval_expr(e, {"t": t})
            return out

        return fn


def _schema():
    path = resources.files("trichotomy").joinpath("problems/problem.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _pointer(err) -> str:
    return "/" + "/".join(str(p) for p in err.absolute_path)


def _parse_entry(src, where, allowed):
    try:
        e = parse(src)
    except ExprError as exc:
        raise ProblemError(f"expression error at {where}: {exc}") from exc
    extra = free_vars(e) - allowed
    if extra:
        raise ProblemError(
            f"expression at {where} uses undeclared variables "
            f"{', '.join(sorted(extra))} (allowed: {', '.join(sorted(allowed))})"
        )
    return e


def load_problem(path) -> ProblemSpec:
    """Load, schema-check and compile a JSON problem file."""
    if isinstance(path, dict):
        data = path
        label = "<dict>"
    else:
        label = str(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ProblemError(f"cannot read {label}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ProblemError(f"{label} is not valid JSON: {exc}") from exc

    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        raise ProblemError(f"{label}: {e.message} (at {_pointer(e)})")

    dim = data["dim"]
    A_rows = data["A"]
    if len(A_rows) != dim or any(len(r) != dim for r in A_rows):
        raise ProblemError(f"{label}: A must be {dim}x{dim} (at /A)")
    for key in ("f", "F"):
        if key in data and len(data[key]) != dim:
            raise ProblemError(
                f"{label}: {key} must have {dim} components (at /{key})"
            )
    cert = data.get("certificate")
    if cert is not None:
        for mat in ("P", "Q"):
            if mat in cert:
                M = cert[mat]
                if len(M) != dim or any(len(r) != dim for r in M):
                    raise ProblemError(
                        f"{label}: certificate {mat} must be {dim}x{dim} "
                        f"(at /certificate/{mat})"
                    )

    t_only = {"t"}
    state_vars = t_only | {f"x{i + 1}" for i in range(dim)}
    A_exprs = [
        [_parse_entry(src, f"/A/{i}/{j}", t_only) for j, src in enumerate(row)]
        for i, row in enumerate(A_rows)
    ]
    f_exprs = None
    if "f" in data:
        f_exprs = [
            _parse_entry(src, f"/f/{i}", t_only) for i, src in enumerate(data["f"])
        ]
    F_exprs = None
    if "F" in data:
        F_exprs = [
            _parse_entry(src, f"/F/{i}", state_vars)
            for i, src in enumerate(data["F"])
        ]

    return ProblemSpec(
        dim=dim,
        A_strings=[list(r) for r in A_rows],
        window=float(data["window"]),
        f_strings=list(data["f"]) if "f" in data else None,
        F_strings=list(data["F"]) if "F" in data else None,
        L=float(data["L"]) if "L" in data else None,
        eps=float(data["eps"]) if "eps" in data else None,
        certificate=cert,
        tol=float(data.get("tol", 1e-6)),
        name=data.get("name"),
        description=data.get("description"),
        A=CoefficientMatrix(A_exprs),
        f_exprs=f_exprs,
        F_exprs=F_exprs,
    )


def save_problem(spec: ProblemSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.serialize(), fh, indent=2)
        fh.write("\n")


def bundled_problem_path(name: str):
    """Filesystem path of a bundled problem (e.g. 'diag_cos')."""
    return resources.files("trichotomy").joinpath(f"problems/{name}.json")


# ---------------------------------------------------------------------------
# command plumbing


@dataclass
class Flags:
    out: str = "out"
    window: Optional[float] = None
    tol: Optional[float] = None
    eps: Optional[list] = None
    tau_range: tuple = (0.5, 8.0, 0.5)
    side: str = "both"


def _write_json(out_dir, name, data) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, default=float)
        fh.write("\n")
    return path


def _tol(spec, flags) -> float:
    return flags.tol if flags.tol is not None else spec.tol


def _window(spec, flags) -> float:
    return flags.window if flags.window is not None else spec.window


def _certificate_args(spec):
    if spec.certificate is None:
        return {}
    P = np.asarray(spec.certificate["P"], dtype=float)
    Q = spec.certificate.get("Q")
    Q = np.eye(spec.dim) - P if Q is None else np.asarray(Q, dtype=float)
    return {
        "P": P,
        "Q": Q,
        "N": float(spec.certificate["N"]),
        "nu": float(spec.certificate["nu"]),
    }


def _solve_pipeline(spec, flags, margin_factor=1.0):
    """Shared two-pass solve: size windows, build kernel, sample forcing.

    Returns (kernel, cert, f).  ``margin_factor`` is 1 for the linear solve
    and 2 for Picard (whose restriction step consumes twice the tail horizon).
    The tail horizon Tc starts from a rough sup of f on the output window;
    f is resampled on a wider [-W, W] while its sup there makes
    S_out + margin_factor * Tc exceed W.
    """
    tol = _tol(spec, flags)
    S_out = _window(spec, flags)
    cert = build_trichotomy(TransitionOperator(spec.A), max(S_out, 12.0),
                            **_certificate_args(spec))
    fnorm, W = 0.0, 0.0
    if spec.f_exprs is not None:
        fnorm = GridFunction.from_callable(spec.forcing_fn(), -S_out, S_out, 0.1).sup_norm
    while True:
        Tc = _tail_horizon(cert.N, cert.nu, fnorm, tol)
        if S_out + margin_factor * Tc <= W:
            break
        W = math.ceil((S_out + margin_factor * Tc + 1.0) / OUTPUT_STEP - 1e-9) * OUTPUT_STEP
        if 2.0 * W / OUTPUT_STEP * spec.dim > MAX_GRID_VALUES:
            raise SolverError(f"forcing window [-{W:.6g}, {W:.6g}] (tail horizon {Tc:.6g}) needs "
                              f"over {MAX_GRID_VALUES:.4g} grid values at step {OUTPUT_STEP:g}")
        f = GridFunction.from_callable(spec.forcing_fn(), -W, W, OUTPUT_STEP)
        fnorm = max(fnorm, f.sup_norm)
    if W > cert.interval[1]:
        # the same operator and legs; P and Q are compatible on any window,
        # and N and nu are the closed form's, refitted, or the file's checked
        given = {**_certificate_args(spec), "P": cert.P, "Q": cert.Q}
        cert = build_trichotomy(cert.op, W + 0.5, **given)
    return GreenKernel(cert), cert, f


def _lipschitz_spec(spec) -> LipschitzSpec:
    if spec.F_strings is None:
        raise ProblemError(
            "problem declares no nonlinearity F; use solve-linear instead"
        )
    if spec.L is not None:
        return LipschitzSpec(spec.F_strings, spec.L)
    worst = _sampled_lipschitz_ratio(spec.F_exprs, draws=12, seed=1)
    if worst == 0.0:
        raise ProblemError("nonlinearity sampled as identically zero")
    L = 1.05 * worst
    print(f"note: no declared L; sampled estimate L = {L:.6g}")
    # the spec's own sampling checks the estimate; a refusal names both ratios
    return LipschitzSpec(spec.F_strings, L, label=f"sampled estimate L = 1.05 * {worst:.6g}")


# ---------------------------------------------------------------------------
# commands


def _cmd_check_dichotomy(spec, flags) -> int:
    """A trichotomy certificate whose center R = PQ is 0 is a dichotomy on the line."""
    T = _window(spec, flags)
    try:
        cert = build_trichotomy(spec.A, T, **_certificate_args(spec))
        if center := int(round(np.trace(cert.R))):
            raise NonHyperbolicError(f"no dichotomy on [-{T:g}, {T:g}]: the certified trichotomy "
                                     f"has a centre of rank {center} (trace of R = PQ)")
    except (NoDichotomyDetected, NonHyperbolicError) as exc:
        data = {"type": "dichotomy", "ok": False, "interval": [-T, T], "reason": str(exc)}
        if isinstance(exc, NoDichotomyDetected):
            data.update(log_singular_values=[float(x) for x in exc.log_singular_values],
                        gap_ratio=float(exc.gap_ratio))
        _write_json(flags.out, "dichotomy.json", data)
        raise
    report, N = dict(cert.report), cert.N
    if cert.modes is not None:
        if "max_slack" not in report:
            # the exact norms of a constant A, sampled at every separation; its
            # constants follow from the closed form, so nu stands in for the rate
            check = _check_spectral_constants(cert.op, cert.modes, cert.nu, N, cert.nu, T)
            report["max_slack"], report["worst_pair"] = check
        health = f"delta = {report['eig_residual']:.3g}, cond(V) = {report['cond_V']:.3g}"
    else:
        # N is checked on each half line; a pair tau < 0 < t factors through
        # 0, Phi(t, tau) P(tau) = Phi(t, 0) P(0) Phi(0, tau) P(tau), so N^2 holds
        report["N_half_line"], N = N, N * N
        health = (f"seed residuals = {report['seed_residual_plus']:.3g} (plus), "
                  f"{report['seed_residual_minus']:.3g} (minus)")
    result = DichotomyCertificate(cert.interval, cert.P, N, cert.nu, report)
    _write_json(flags.out, "dichotomy.json", certificate_to_json(result))
    print(f"dichotomy on [{-T:g}, {T:g}]: certified")
    print(f"  rank P = {int(round(np.trace(cert.P)))}, N = {N:.6g}, nu = {cert.nu:.6g}")
    print(f"  max slack = {report['max_slack']:.3g}, {health}")
    return 0


def _cmd_check_trichotomy(spec, flags) -> int:
    T = _window(spec, flags)
    cert = build_trichotomy(spec.A, T, **_certificate_args(spec))
    _write_json(flags.out, "trichotomy.json", certificate_to_json(cert))
    res = cert.identity_residuals()
    print(f"trichotomy on [-{T:g}, {T:g}]: certified")
    print(f"  rank P = {int(round(np.trace(cert.P)))}, "
          f"rank Q = {int(round(np.trace(cert.Q)))}, "
          f"rank center = {int(round(np.trace(cert.P3)))}")
    print(f"  N = {cert.N:.6g}, nu = {cert.nu:.6g}")
    print("  identity residuals: " +
          ", ".join(f"{k} = {v:.2e}" for k, v in res.items()))
    return 0


def _cmd_solve_linear(spec, flags) -> int:
    if spec.f_exprs is None:
        raise ProblemError("problem declares no forcing f")
    tol = _tol(spec, flags)
    S_out = _window(spec, flags)
    kernel, cert, f = _solve_pipeline(spec, flags)
    phi = solve_linear_bounded(kernel, f, tol=tol).restrict(-S_out, S_out)
    residual = float(ode_residual(spec.A, phi, f.restrict(-S_out, S_out)).max())
    bound = 2.0 * cert.N / cert.nu * f.sup_norm
    if not phi.sup_norm <= bound * (1.0 + 1e-6):
        raise AccuracyError(
            f"sup_norm = {phi.sup_norm:.8g} of the solution exceeds "
            f"operator_bound = 2N/nu * ||f|| = {bound:.8g}"
        )
    data = {
        "window": [phi.a, phi.b],
        "sup_norm": phi.sup_norm,
        "forcing_norm": f.sup_norm,
        "operator_bound": bound,
        "bound_satisfied": True,
        "ode_residual_max": residual,
        "N": cert.N,
        "nu": cert.nu,
        "tol": tol,
    }
    write_csv(os.path.join(flags.out, "sol.csv"), phi)
    _write_json(flags.out, "report.json", data)
    _write_json(flags.out, "trichotomy.json", certificate_to_json(cert))
    x0 = phi(0.0) if phi.a <= 0.0 <= phi.b else None
    print(f"bounded solution on [{phi.a:g}, {phi.b:g}]")
    if x0 is not None:
        print("  phi(0) = " + np.array2string(x0, precision=8))
    print(f"  sup norm = {phi.sup_norm:.8g} (bound {bound:.8g})")
    print(f"  ODE residual max = {residual:.3g}")
    return 0


def _cmd_solve_semilinear(spec, flags) -> int:
    tol = _tol(spec, flags)
    S_out = _window(spec, flags)
    Fspec = _lipschitz_spec(spec)
    kernel, cert, f = _solve_pipeline(spec, flags, margin_factor=2.0)
    phi, report = picard_solve(kernel, f, Fspec, tol=tol)
    phi = phi.restrict(-S_out, S_out)
    data = report.to_json()
    data["window"] = [phi.a, phi.b]
    data["sup_norm"] = phi.sup_norm
    write_csv(os.path.join(flags.out, "sol.csv"), phi)
    _write_json(flags.out, "report.json", data)
    _write_json(flags.out, "trichotomy.json", certificate_to_json(cert))
    print(f"semilinear bounded solution on [{phi.a:g}, {phi.b:g}]")
    print(f"  alpha = {report.alpha:.6g}, iterations = {report.iterations}")
    print(f"  deviation from linear solution = {report.measured_deviation:.6g} "
          f"(bound r = {report.r_bound:.6g})")
    if phi.a <= 0.0 <= phi.b:
        print("  phi(0) = " + np.array2string(phi(0.0), precision=8))
    return 0


def _cmd_continue_epsilon(spec, flags) -> int:
    tol = _tol(spec, flags)
    S_out = _window(spec, flags)
    Fspec = _lipschitz_spec(spec)
    eps_list = flags.eps if flags.eps else [0.4, 0.2, 0.1, 0.05]
    kernel, cert, f = _solve_pipeline(spec, flags, margin_factor=2.0)
    results = epsilon_continuation(kernel, f, Fspec, eps_list, tol=tol)
    N, nu = cert.N, cert.nu
    rows = []
    print("eps continuation: deviation from the linear solution")
    for i, (eps, phi_eps, dev) in enumerate(results):
        phi_r = phi_eps.restrict(-S_out, S_out)
        bound = _deviation_bound(N, nu, abs(eps) * Fspec.L, f.sup_norm)
        rows.append({
            "eps": eps,
            "deviation": dev,
            "bound": bound,
            "sup_norm": phi_r.sup_norm,
            "csv": f"sol_eps_{i}.csv",
        })
        write_csv(os.path.join(flags.out, f"sol_eps_{i}.csv"), phi_r)
        print(f"  eps = {eps:<8g} deviation = {dev:.6g}  (bound {bound:.6g})")
    _write_json(flags.out, "continuation.json", {
        "eps": [r["eps"] for r in rows],
        "results": rows,
        "N": N,
        "nu": nu,
        "L": Fspec.L,
        "forcing_norm": f.sup_norm,
    })
    _write_json(flags.out, "trichotomy.json", certificate_to_json(cert))
    return 0


def _single_eps(command, flags, default) -> float:
    """The one --eps value of a command that takes no eps ladder."""
    if not flags.eps:
        return default
    if len(flags.eps) > 1:
        raise ValueError(
            f"{command} takes one --eps value, got {len(flags.eps)}; "
            "the audit command takes an eps ladder"
        )
    return flags.eps[0]


def _solve_for_scan(spec, flags):
    _tau_count(flags.tau_range[:2], flags.tau_range[2])  # refuse a bad range before solving
    if spec.F_exprs is not None:
        Fspec = _lipschitz_spec(spec)
        kernel, _, f = _solve_pipeline(spec, flags, margin_factor=2.0)
        phi, _ = picard_solve(kernel, f, Fspec, tol=_tol(spec, flags))
    else:
        if spec.f_exprs is None:
            raise ProblemError("problem declares no forcing f to solve with")
        kernel, _, f = _solve_pipeline(spec, flags)
        phi = solve_linear_bounded(kernel, f, tol=_tol(spec, flags))
    S_out = _window(spec, flags)
    return phi.restrict(max(phi.a, -S_out), min(phi.b, S_out))


def _cmd_rap_scan(spec, flags) -> int:
    eps = _single_eps("rap-scan", flags, 0.1)
    phi = _solve_for_scan(spec, flags)
    lo, hi, step = flags.tau_range
    report = almost_period_scan(phi, eps, (lo, hi), step, side=flags.side)
    _write_json(flags.out, "rap_report.json", report.to_json())
    report.write_csv(os.path.join(flags.out, "residuals.csv"))
    write_csv(os.path.join(flags.out, "sol.csv"), phi)
    lag = lagrange_report(phi)
    _write_json(flags.out, "lagrange.json", lag.to_json())
    n_acc = len(report.accepted)
    n_all = len(report.tau_values)
    print(f"almost-period scan at eps = {eps:g}, tau in [{lo:g}, {hi:g}] "
          f"step {step:g}, side {flags.side}")
    print(f"  accepted {n_acc} of {n_all} scanned tau values")
    if report.accepted:
        ell = report.ell_hat
        print(f"  inclusion length estimate = {ell:.6g}")
    else:
        print("  accepted set empty: not relatively dense in range")
    print(f"  Lagrange evidence: bounded = {lag.bounded}, "
          f"stable = {lag.lagrange_stable}")
    return 0


def _cmd_audit(spec, flags) -> int:
    phi = _solve_for_scan(spec, flags)
    times = phi.times

    def sampled(exprs, env):
        return GridFunction(phi.a, phi.b, _grid_values(exprs, env, times.shape))

    inputs = {}
    for i, row in enumerate(spec.A.entries):
        for j, e in enumerate(row):
            inputs[f"A[{i + 1}][{j + 1}]"] = sampled([e], {"t": times})
    if spec.f_exprs is not None:
        f_vals = spec.forcing_fn()(times)
        for i in range(spec.dim):
            inputs[f"f[{i + 1}]"] = GridFunction(phi.a, phi.b, f_vals[:, [i]])
    if spec.F_exprs is not None:
        # F along each unit vector e_k, with the state entries as scalars
        for k, x in enumerate(np.eye(spec.dim)):
            inputs[f"F(.,e{k + 1})"] = sampled(spec.F_exprs, _state_env(times, x))

    eps_ladder = flags.eps if flags.eps else [0.1, 0.05]
    lo, hi, step = flags.tau_range
    report = solution_rap_audit(
        phi, inputs, eps_ladder, (lo, hi), step, side=flags.side
    )
    _write_json(flags.out, "audit.json", report.to_json())
    write_csv(os.path.join(flags.out, "sol.csv"), phi)
    print(f"almost-period audit, tau in [{lo:g}, {hi:g}] step {step:g}")
    ok_all = True
    for eps, entry in report.entries.items():
        n_common = len(entry["common_input_accepted"])
        n_missing = len(entry["missing"])
        n_sol = len(entry["solution_accepted"])
        ok = entry["compatible_evidence"]
        ok_all = ok_all and ok
        print(f"  eps = {eps:<8g} input periods = {n_common}, "
              f"solution periods = {n_sol}, missing = {n_missing} "
              f"-> {'compatible' if ok else 'INCOMPATIBLE EVIDENCE'}")
    return 0


_COMMANDS = {
    "check-dichotomy": _cmd_check_dichotomy,
    "check-trichotomy": _cmd_check_trichotomy,
    "solve-linear": _cmd_solve_linear,
    "solve-semilinear": _cmd_solve_semilinear,
    "continue-epsilon": _cmd_continue_epsilon,
    "rap-scan": _cmd_rap_scan,
    "audit": _cmd_audit,
}


def run(command: str, spec: ProblemSpec, flags: Flags) -> int:
    """Execute one command against a loaded problem; returns the exit code."""
    if command not in _COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 1
    os.makedirs(flags.out, exist_ok=True)
    try:
        return _COMMANDS[command](spec, flags)
    except (NoDichotomyDetected, NonHyperbolicError, ContractionError) as exc:
        if isinstance(exc, TrichotomyIncompatibility):
            _write_json(flags.out, "trichotomy.json", certificate_to_json(exc))
        else:
            _write_json(flags.out, "report.json", {"ok": False, "certified_failure": str(exc)})
        print(f"certified {'refusal' if isinstance(exc, ContractionError) else 'failure'}: {exc}")
        return 2
    except (ProblemError, ExprError, PropagationError, SolverError,
            HyperbolicityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _parse_eps(text: str) -> list:
    values = [_finite(x) for x in text.split(",") if x.strip()]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise argparse.ArgumentTypeError(f"eps value {value:g} is repeated")
    return values


def _parse_tau_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"tau range must be A:B:STEP, got {text!r}"
        )
    lo, hi, step = (_finite(x) for x in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad tau range {text!r}")
    return lo, hi, step


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, since exit code 2 means a certified negative."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="trichotomy",
        description=(
            "Bounded-solution and almost-periodicity toolkit for "
            "nonautonomous linear and semilinear ODE systems."
        ),
        epilog=(
            "Exit codes: 0 success, 2 certified negative finding, 1 error."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("problem",
                        help="path to a JSON problem file, or the name of "
                             "a bundled problem (e.g. diag_cos)")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--window", type=_positive, default=None,
                        help="override the problem window half-width T")
    parser.add_argument("--tol", type=_positive, default=None,
                        help="override the problem tolerance")
    parser.add_argument("--eps", type=_parse_eps, default=None,
                        metavar="LIST", help="comma-separated values")
    parser.add_argument("--tau-range", type=_parse_tau_range,
                        default=(0.5, 8.0, 0.5), metavar="A:B:STEP",
                        help="shift scan range (default 0.5:8:0.5)")
    parser.add_argument("--side", choices=("plus", "minus", "both"),
                        default="both", help="horizon side for scans")
    args = parser.parse_args(argv)

    flags = Flags(
        out=args.out,
        window=args.window,
        tol=args.tol,
        eps=args.eps,
        tau_range=args.tau_range,
        side={"plus": "+", "minus": "-", "both": "both"}[args.side],
    )
    problem = args.problem
    if not os.path.exists(problem):
        candidate = bundled_problem_path(problem)
        if candidate.is_file():
            problem = str(candidate)
    try:
        spec = load_problem(problem)
    except ProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(args.command, spec, flags)


if __name__ == "__main__":
    sys.exit(main())
