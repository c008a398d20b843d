#!/usr/bin/env python3
"""Benchmark of the ``trichotomy`` CLI: certified-solve goodput per workload.

    python3 perfbench/run.py --workload linear-const --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload rap-audit --seed 1 --smoke

Each workload is a closed loop: one process, one client, one job at a time,
the next job starting when the last returns.  A job is ``cli.load_problem``
(done once per problem during set-up) followed by ``cli.run(command, spec,
Flags(...))`` in-process; its exit code and artifacts are then checked
against an independent oracle (``oracles.py``).  The job list is one seeded
cycle of stratified families (``workloads.py``); whole cycles are replayed
until about ``--seconds`` have passed and at least ``MIN_CORRECT`` jobs came
out right.  BLAS pools are pinned to one thread and TRICHOTOMY_THREADS is
unset, so the program runs its sequential path.

A shared virtual machine (2 vCPUs) was measured changing speed by up to 2x
over tens of seconds, for all processes alike.  So before each job the
harness times a fixed reference
kernel that touches no program code (``_reference_s``), and the end-to-end
times are quoted in reference-normalized seconds: wall seconds times
``REF_NOMINAL_S`` over the reference time measured around that job.  The
raw wall-clock values are printed alongside.  ``setup_s`` (importing the CLI
and loading every problem) is normalized the same way against a pure-Python
kernel (``_python_reference_s``), since imports track that kernel rather than
the numpy/scipy one.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``tracing.py``), in which every job runs once
untraced and once traced so that the tracing overhead is measured on the
same jobs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
from the program is counted, never a reason to exit non-zero; the exit code
is non-zero only when the harness itself cannot run.
"""

import os
import sys

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"
_TRICHOTOMY_THREADS = os.environ.pop("TRICHOTOMY_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

# The tail is the p60 of correct-job time: with at least MIN_CORRECT
# correct jobs per run, ten or more lie beyond it.
TAIL_Q = 0.6
MIN_CORRECT = 25
SETUP_REPEATS = 7
HARD_LIMIT_S = 150.0
# Normalized seconds are wall seconds on a host where _reference_s() takes this
# long; each job uses the median reference time of the five jobs around it.
REF_NOMINAL_S = 0.030
REF_WINDOW = 2
# Normalized set-up seconds are wall seconds on a host where
# _python_reference_s() takes this long, timed before and after each sample.
PY_REF_NOMINAL_S = 0.040

_IMPORT_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
                   "print(run._setup_sample(run._import_program))")


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a wrong program answer)."""


@dataclass
class Record:
    job: object
    cycle: int
    seconds: float
    ok: bool
    detail: str
    ref: float = 0.0
    norm: float = 0.0  # seconds at the nominal reference speed


def _reference_s():
    """Time a fixed kernel built from the program's two hot patterns.

    RK45 with dense output on a 2x2 matrix ODE whose right-hand side is
    Python scalar code, then a batched solve against the dense output at many
    points.  It uses numpy and scipy only, so program changes never move it.
    """
    import math

    import numpy as np
    from scipy.integrate import solve_ivp

    start = time.perf_counter()

    def rhs(t, y):
        c, s = math.cos(0.6 * t), math.sin(0.6 * t)
        return (np.array([[-c, -s - 0.3], [0.3 - s, c]]) @ y.reshape(2, 2)).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 16.0), np.eye(2).reshape(-1), rtol=1e-9, atol=1e-12,
                    dense_output=True)
    pts = np.linspace(0.0, 16.0, 6400)
    np.linalg.solve(sol.sol(pts).T.reshape(-1, 2, 2), np.ones((pts.size, 2, 1)))
    return time.perf_counter() - start


def _normalize(records):
    """Set each record's normalized seconds from the nearby reference times."""
    refs = [r.ref for r in records]
    for i, r in enumerate(records):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        r.norm = r.seconds * REF_NOMINAL_S / statistics.median(near)


def _python_reference_s():
    """Time a fixed pure-Python kernel: compile and run generated source, then loop."""
    start = time.perf_counter()
    src = "\n".join(f"def f{i}(x):\n    return [x * {i} + j for j in range(20)]"
                    for i in range(300))
    for _ in range(3):
        exec(compile(src, "<reference>", "exec"), {})
    total = 0
    for i in range(60000):
        total += i % 7
    return time.perf_counter() - start


def _setup_sample(fn):
    """Normalized seconds of ``fn()``, against the pure-Python kernel around it."""
    before = _python_reference_s()
    start = time.perf_counter()
    fn()
    seconds = time.perf_counter() - start
    ref = (before + _python_reference_s()) / 2
    return seconds * PY_REF_NOMINAL_S / ref


def _import_program():
    """Import the CLI from the checkout's sources."""
    if not (SRC / "trichotomy" / "cli.py").is_file():
        raise HarnessError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trichotomy.cli  # noqa: F401


def _fresh_import_time():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, str(HERE)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise HarnessError(f"import in a fresh interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _run_job(cli, job, spec, workdir, oracles):
    out = workdir / job.id
    shutil.rmtree(out, ignore_errors=True)
    flags = cli.Flags(out=str(out), **job.flags)
    stdout, stderr = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.run(job.command, spec, flags)
        except Exception as exc:  # a crash is a wrong outcome of the job
            rc, crash = None, exc
        seconds = time.perf_counter() - start
    if crash is not None:
        verdict = oracles.Verdict(False, f"uncaught {type(crash).__name__}: {crash}")
    else:
        verdict = oracles.check(job, rc, str(out), stderr.getvalue())
    shutil.rmtree(out, ignore_errors=True)
    return seconds, verdict


def run(args):
    spec_metrics = _spec_metrics(args.trace)
    import_in_process = _setup_sample(_import_program)
    import trichotomy.cli as cli

    sys.path.insert(0, str(HERE))
    import numpy as np
    import scipy
    import jsonschema
    import oracles
    import tracing
    import workloads

    jobs = workloads.generate(args.workload, args.seed, smoke=args.smoke)
    schema = json.loads((SRC / "trichotomy" / "problems" / "problem.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for job in jobs:
        errors = list(validator.iter_errors(job.problem))
        if errors:
            raise HarnessError(f"generated problem {job.id} violates the schema: "
                               f"{errors[0].message}")

    tracer = tracing.Tracer() if args.trace else None
    # set-up: import in fresh interpreters plus loading every problem, repeated
    import_times = [import_in_process] + [_fresh_import_time() for _ in range(SETUP_REPEATS - 1)]
    load_times = []
    specs = {}

    def load_all():
        specs.update((job.id, cli.load_problem(job.problem)) for job in jobs)

    for rep in range(SETUP_REPEATS):
        if tracer is not None and rep == 0:
            tracer.install()
        load_times.append(_setup_sample(load_all))
        if tracer is not None and rep == 0:
            tracer.uninstall()
    setup_s = statistics.median(import_times) + statistics.median(load_times)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    records, traced = [], []
    try:
        start = time.perf_counter()
        cycle, target = 0, 1
        while True:
            for job in jobs:
                ref = _reference_s()
                sec, verdict = _run_job(cli, job, specs[job.id], workdir, oracles)
                records.append(Record(job, cycle, sec, verdict.ok, verdict.detail, ref))
                if tracer is not None:
                    tracer.job = f"{cycle}:{job.id}"
                    tracer.install()
                    try:
                        sec, verdict = _run_job(cli, job, specs[job.id], workdir, oracles)
                    finally:
                        tracer.uninstall()
                    traced.append(Record(job, cycle, sec, verdict.ok, verdict.detail))
            cycle += 1
            elapsed = time.perf_counter() - start
            if cycle == 1:
                target = max(1, round(args.seconds / elapsed))
            n_correct = sum(r.ok for r in records)
            if args.smoke or elapsed > HARD_LIMIT_S:
                break
            if cycle >= target and n_correct >= MIN_CORRECT:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           "TRICHOTOMY_THREADS": "unset" if _TRICHOTOMY_THREADS is None
           else f"unset (was {_TRICHOTOMY_THREADS})"}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client  {json.dumps(env)}")
    print(f"cycle of {len(jobs)} jobs run {cycle} times")
    _normalize(records)
    if tracer is None:
        metrics = _end_to_end(records, setup_s)
        shown = records
    else:
        metrics = _per_layer(tracer, records, traced)
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        shown = traced
    _print_families(shown)
    if set(metrics) != set(spec_metrics):
        raise HarnessError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(spec_metrics))}")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {spec_metrics[name]}")
    wrong = [r for r in records + traced if not r.ok]
    unexpected = [r for r in wrong if r.job.known_failure is None]
    for r in unexpected[:10]:
        print(f"WRONG {r.job.id} ({r.job.family}, {r.job.command}): {r.detail}")
    result = {
        "correct": not unexpected,
        "attempted": len(shown),
        "failed": sum(1 for r in shown if not r.ok and r.job.known_failure is None),
        "metrics": {name: {"value": value, "unit": spec_metrics[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


def _spec_metrics(trace):
    """Metric name -> unit, from the end_to_end or per_layer list of BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _timings(records, setup_s, attr):
    """setup_s, jobs_per_s, job_s_p50 and job_s_tail from one time attribute."""
    import numpy as np

    ok = [getattr(r, attr) for r in records if r.ok]
    total = sum(getattr(r, attr) for r in records)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(ok) / total,
        "job_s_p50": statistics.median(ok) if ok else float("nan"),
        "job_s_tail": float(np.quantile(ok, TAIL_Q)) if ok else float("nan"),
    }


def _end_to_end(records, setup_s):
    n = len(records)
    n_ok = sum(r.ok for r in records)
    refs = [r.ref for r in records]
    print(f"jobs attempted {n}, correct {n_ok}, wrong {n - n_ok} "
          f"(known failures {sum(1 for r in records if not r.ok and r.job.known_failure)})")
    print(f"  {'failed_frac':52s} {(n - n_ok) / n:14.6g} ratio")
    print(f"  job_s_tail is the p{100 * TAIL_Q:.0f} of {n_ok} correct-job times")
    print(f"  reference kernel {statistics.median(refs):.5f} s (range {min(refs):.5f}-"
          f"{max(refs):.5f}); nominal {REF_NOMINAL_S} s")
    for name, value in _timings(records, setup_s, "seconds").items():
        if name != "setup_s":
            print(f"  {name + ' (wall clock)':52s} {value:14.6g}")
    metrics = _timings(records, setup_s, "norm")
    metrics["ok_frac"] = n_ok / n
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _per_layer(tracer, records, traced):
    import tracing

    keys = {f"{r.cycle}:{r.job.id}" for r in traced}
    self_s, counts = tracer.job_table(keys)
    run_s = [s[2] - s[1] for s in tracer.spans if s and s[0] == "cli.run"]
    mean_run = statistics.fmean(run_s)
    print(f"per-layer self time per traced job (mean of {len(keys)} jobs; "
          f"cli.run {mean_run:.4f} s)")
    for name, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
        if name != "cli.load_problem":
            print(f"    {name:44s} {v:10.5f} s  {100 * v / mean_run:6.2f}%")
    covered = sum(v for n, v in self_s.items() if n != "cli.load_problem")
    print(f"  self times sum to {covered:.6f} s per job; traced cli.run {mean_run:.6f} s; "
          f"max per-job |sum - run| / run = {tracer.self_sum_error(keys):.2e}")
    metrics = {name: self_s.get(span, 0.0)
               for span, (*_, name) in tracing.SPANS.items() if name is not None}
    for name, counter in tracing.COUNTERS.items():
        metrics[name] = counts.get(counter, 0.0)
    legs, hits = counts.get("legs_integrated", 0.0), counts.get("leg_cache_hits", 0.0)
    metrics["propagator.leg_hit_ratio"] = hits / (legs + hits) if legs + hits else 0.0
    metrics["hyperbolicity.certificates_built"] = (
        counts.get("hyperbolicity.build_trichotomy.calls", 0.0)
        + counts.get("hyperbolicity.verify_dichotomy.calls", 0.0))
    loads = [s[2] - s[1] for s in tracer.spans if s and s[0] == "cli.load_problem"]
    metrics["cli.load_problem_s"] = statistics.fmean(loads)
    metrics["trace.cli_run_s"] = mean_run
    untraced = sum(r.seconds for r in records)
    traced_total = sum(r.seconds for r in traced)
    metrics["trace.overhead_frac"] = 1.0 - untraced / traced_total
    return dict(sorted(metrics.items()))


def _print_families(records):
    attempted, wrong = Counter(), Counter()
    known = {}
    for r in records:
        attempted[r.job.family] += 1
        if not r.ok:
            wrong[r.job.family] += 1
        known[r.job.family] = r.job.known_failure
    print("per-family outcomes (wrong / attempted):")
    for fam in sorted(attempted):
        note = f"  known failure: {known[fam]}" if known[fam] and wrong[fam] else ""
        print(f"    {fam:24s} {wrong[fam]:4d} / {attempted[fam]:<4d} "
              f"failed_frac {wrong[fam] / attempted[fam]:.3f}{note}")


def _run_all(args):
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, text=True, capture_output=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="linear-const, linear-varying, semilinear-continuation, "
                             "rap-audit, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one job per family, one cycle, oracles on")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            sys.path.insert(0, str(HERE))
            return _run_all(args)
        run(args)
    except Exception:  # any failure of the harness itself: report, print no result
        traceback.print_exc()
        print("benchmark error: no result", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
