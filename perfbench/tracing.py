"""Timing and count wrappers around the public entry points of each layer.

``Tracer.install()`` swaps each traced function for a wrapper in every
``trichotomy`` module that binds it (and on its class for methods);
``uninstall()`` restores the originals.  A span records (name, start, end,
parent, job); spans stay in memory and are written once, by ``dump``.  A
span's self time is its duration minus the time its child spans cover, so
within one job the self times of all spans add up to the root ``cli.run``
span exactly.

Count-only hooks (``CoefficientMatrix.value``, leg dense-output calls,
``remote_period_residual``) add no span, to keep the tracing overhead small.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict

from scipy.integrate._ivp.common import OdeSolution

# span name -> (module, attribute, class or None, per-layer metric of its self
# time in seconds per job, or None if it has none)
SPANS = {
    "cli.run": ("cli", "run", None, "cli.self_s"),
    "cli.load_problem": ("cli", "load_problem", None, None),
    "propagator.solve_leg": ("propagator", "solve_leg", "TransitionOperator",
                             "propagator.solve_leg_s"),
    "hyperbolicity.build_trichotomy": ("hyperbolicity", "build_trichotomy", None,
                                       "hyperbolicity.build_trichotomy_self_s"),
    "hyperbolicity.estimate_stable_projector": ("hyperbolicity", "estimate_stable_projector", None,
                                                "hyperbolicity.estimate_stable_projector_self_s"),
    "hyperbolicity.estimate_constants": ("hyperbolicity", "estimate_constants", None,
                                         "hyperbolicity.estimate_constants_self_s"),
    "hyperbolicity.verify_dichotomy": ("hyperbolicity", "verify_dichotomy", None,
                                       "hyperbolicity.verify_dichotomy_self_s"),
    "hyperbolicity.green_kernel_init": ("hyperbolicity", "__init__", "GreenKernel",
                                        "hyperbolicity.green_kernel_init_s"),
    "solvers.solve_linear_bounded": ("solvers", "solve_linear_bounded", None,
                                     "solvers.solve_linear_bounded_self_s"),
    "solvers.ode_residual": ("solvers", "ode_residual", None, "solvers.ode_residual_s"),
    "solvers.picard": ("solvers", "picard_solve", None, "solvers.picard_self_s"),
    "solvers.epsilon_continuation": ("solvers", "epsilon_continuation", None,
                                     "solvers.epsilon_continuation_self_s"),
    "solvers.lipschitz_validate": ("solvers", "_validate", "LipschitzSpec",
                                   "solvers.lipschitz_validate_s"),
    "rap.almost_period_scan": ("rap", "almost_period_scan", None, "rap.almost_period_scan_s"),
    "rap.audit": ("rap", "solution_rap_audit", None, "rap.audit_self_s"),
    "rap.lagrange_report": ("rap", "lagrange_report", None, "rap.lagrange_report_s"),
    "grid.from_callable": ("grid", "from_callable", "GridFunction", "grid.from_callable_s"),
    "grid.write_csv": ("grid", "write_csv", None, "grid.write_csv_s"),
}


# per-layer metric -> counter (per job) kept by the tracer
COUNTERS = {
    "propagator.legs_integrated": "legs_integrated",
    "propagator.leg_cache_hits": "leg_cache_hits",
    "propagator.rk_steps": "rk_steps",
    "propagator.coeff_evals": "coeff_evals",
    "propagator.dense_points": "dense_points",
    "solvers.solve_linear_bounded_calls": "solvers.solve_linear_bounded.calls",
    "solvers.picard_iterations": "picard_iterations",
    "rap.scan_calls": "rap.almost_period_scan.calls",
    "rap.remote_period_residual_calls": "remote_period_residual_calls",
    "grid.write_csv_bytes": "write_csv_bytes",
}

class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.self_time = defaultdict(float)  # (job, name) -> seconds
        self.counts = defaultdict(float)  # (job, counter) -> count
        self.job = None
        self._stack = []  # [span index, child seconds]
        self._undo = []
        self._leg_sols = weakref.WeakSet()

    # -- recording -----------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[idx] = (name, start, end, parent, self.job)
                self.self_time[(self.job, name)] += dur - frame[1]
                self.counts[(self.job, name + ".calls")] += 1
            self._on_return(name, args, result)
            return result

        return wrapper

    def _on_return(self, name, args, result):
        job = self.job
        if name == "propagator.solve_leg":
            try:
                seen = result in self._leg_sols
            except TypeError:
                seen = False
            if seen:
                self.counts[(job, "leg_cache_hits")] += 1
            else:
                self.counts[(job, "legs_integrated")] += 1
                ts = getattr(result, "ts", None)
                if ts is not None:
                    self.counts[(job, "rk_steps")] += len(ts) - 1
                try:
                    self._leg_sols.add(result)
                except TypeError:
                    pass
        elif name == "solvers.picard":
            self.counts[(job, "picard_iterations")] += result[1].iterations
        elif name == "grid.write_csv":
            self.counts[(job, "write_csv_bytes")] += os.path.getsize(args[0])

    def _counted(self, counter, fn, size=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.job, counter)] += 1 if size is None else size(args)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _modules(self):
        return [m for name, m in sys.modules.items()
                if name == "trichotomy" or name.startswith("trichotomy.")]

    def _patch_function(self, module, attr, wrapper_for):
        orig = getattr(sys.modules[f"trichotomy.{module}"], attr)
        wrapped = wrapper_for(orig)
        for mod in self._modules():
            if getattr(mod, attr, None) is orig:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def _patch_method(self, cls, attr, wrapper_for):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapper_for(raw.__func__))
        else:
            wrapped = wrapper_for(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def install(self):
        import trichotomy.cli  # noqa: F401  (loads every layer module)

        for name, (module, attr, cls_name, _) in SPANS.items():
            wrap = functools.partial(self._timed, name)
            if cls_name is None:
                self._patch_function(module, attr, wrap)
            else:
                cls = getattr(sys.modules[f"trichotomy.{module}"], cls_name)
                self._patch_method(cls, attr, wrap)
        prop = sys.modules["trichotomy.propagator"]
        self._patch_method(prop.CoefficientMatrix, "value",
                           functools.partial(self._counted, "coeff_evals"))
        self._patch_function("rap", "remote_period_residual",
                             functools.partial(self._counted, "remote_period_residual_calls"))
        leg_sols, counts = self._leg_sols, self.counts
        orig_call = OdeSolution.__call__

        def dense_call(sol, t):
            if sol in leg_sols:
                counts[(self.job, "dense_points")] += getattr(t, "size", 1)
            return orig_call(sol, t)

        self._undo.append((OdeSolution, "__call__", orig_call))
        OdeSolution.__call__ = dense_call

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def job_table(self, jobs):
        """Mean per job over ``jobs``: span self times and counters."""
        self_s = defaultdict(float)
        counts = defaultdict(float)
        for (job, name), v in self.self_time.items():
            if job in jobs:
                self_s[name] += v
        for (job, name), v in self.counts.items():
            if job in jobs:
                counts[name] += v
        k = max(1, len(jobs))
        return ({n: v / k for n, v in self_s.items()}, {n: v / k for n, v in counts.items()})

    def self_sum_error(self, jobs):
        """Largest |sum of self times - cli.run duration| / duration over jobs."""
        root = {s[4]: s[2] - s[1] for s in self.spans if s and s[0] == "cli.run"}
        worst = 0.0
        for job in jobs:
            total = sum(v for (j, _), v in self.self_time.items() if j == job)
            worst = max(worst, abs(total - root[job]) / root[job])
        return worst

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": [list(s) for s in self.spans if s]}, fh)
