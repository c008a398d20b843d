#!/usr/bin/env python3
"""Check that two sets of benchmark runs of the same code agree within bounds.

    python3 perfbench/agree.py                       # 2 sets x 10 seeds x every workload
    python3 perfbench/agree.py --smoke --runs 3      # fast: smoke runs, same seeds per set
    python3 perfbench/agree.py --workloads rap-audit --runs 5

For every workload and end-to-end metric in BENCHMARK.json it reports each
set's median and spread (interquartile range over median, from
``statistics.quantiles(values, n=4)``).  The check passes when every spread
is within the metric's bound and the second set's median is not worse than
the first's by more than the bound.  Full runs use fresh seeds in each set;
``--smoke`` runs reuse the seeds, so only timing noise differs.  Exit status: 0 agree, 1 disagree, 2 a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse(metric, first, second):
    """Relative worsening of the second median against the first."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def _one_run(workload, seed, seconds, smoke):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    values = {}  # (set, workload, metric) -> list
    try:
        for s in range(2):
            for w in args.workloads:
                for i in range(args.runs):
                    seed = 1 + i if args.smoke else 1 + i + 1000 * s
                    result = _one_run(w, seed, args.seconds, args.smoke)
                    if not result["correct"]:
                        print(f"note: {w} seed {seed} reports unexpected wrong answers")
                    for m, v in result["metrics"].items():
                        values.setdefault((s, w, m), []).append(v["value"])
                    print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                        f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2

    ok = True
    print(f"\n{'workload':24s} {'metric':12s} {'median1':>10s} {'spread1':>8s} "
          f"{'median2':>10s} {'spread2':>8s} {'worse':>7s} {'bound':>6s}")
    for w in args.workloads:
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians, cells = [], []
            for s in range(2):
                vals = values[(s, w, m)]
                med, spr = statistics.median(vals), _spread(vals)
                medians.append(med)
                cells.append(f"{med:10.4g} {spr:8.3f}")
                ok = ok and spr <= bound
            worse = _worse(metric, *medians)
            ok = ok and worse <= bound
            print(f"{w:24s} {m:12s} {' '.join(cells)} {worse:7.3f} {bound:6.3f}")
    print("\nAGREE" if ok else "\nDISAGREE: a spread or a median shift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
