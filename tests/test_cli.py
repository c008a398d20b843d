"""Problem files, command dispatch, exit codes and artifacts."""

import importlib.metadata
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from conftest import problem_path, read_solution_csv, run_cli
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trichotomy.cli
import trichotomy.hyperbolicity
import trichotomy.propagator
import trichotomy.rap
import trichotomy.solvers
from trichotomy import CoefficientMatrix, GridFunction, build_trichotomy
from trichotomy.cli import Flags, ProblemError, load_problem
from trichotomy.expr import parse
from trichotomy.hyperbolicity import (
    SLACK_TOL,
    WindowTooSmall,
    _bound_violations,
    _chain_samples,
)
from trichotomy.propagator import TransitionOperator

REPO_ROOT = Path(__file__).resolve().parents[1]

BUNDLED = (
    "diag_cos",
    "scalar_sin",
    "arctan",
    "trich_tanh",
    "rotation",
    "c1_cubic",
    "atan_forced",
)


def minimal(**over):
    data = {"dim": 1, "A": [["-1"]], "window": 10.0}
    data.update(over)
    return data


class TestLoadProblem:
    def test_bundled_problem_loads(self):
        spec = load_problem(problem_path("diag_cos"))
        assert spec.dim == 2
        assert spec.window == 10.0
        assert spec.f_exprs == [parse("cos(t)"), parse("cos(t)")]
        assert spec.A.value(0.0)[0, 0] == -1.0

    @pytest.mark.parametrize("name", BUNDLED)
    def test_spec_is_the_file_parsed(self, name):
        # name, description and c1_cubic's eps load and are read by nothing
        path = problem_path(name)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spec = load_problem(path)

        def trees(key):
            return [parse(src) for src in data[key]] if key in data else None

        assert spec.A.entries == [[parse(src) for src in row] for row in data["A"]]
        assert (spec.f_exprs, spec.F_exprs) == (trees("f"), trees("F"))
        assert (spec.dim, spec.window, spec.L, spec.tol, spec.certificate) == (
            data["dim"], data["window"], data.get("L"), data.get("tol", 1e-6),
            data.get("certificate"))

    def test_undeclared_variable_is_named(self):
        with pytest.raises(ProblemError, match=r"x9.*allowed: t"):
            load_problem(minimal(A=[["sin(x9)"]]))

    def test_forcing_cannot_use_state_variables(self):
        with pytest.raises(ProblemError, match="/f/0"):
            load_problem(minimal(f=["x1"]))

    def test_nonlinearity_can_use_state_variables(self):
        spec = load_problem(minimal(F=["0.1*sin(x1)"], L=0.1))
        assert spec.F_exprs == [parse("0.1*sin(x1)")]

    def test_missing_required_field(self):
        with pytest.raises(ProblemError, match="required"):
            load_problem({"dim": 1, "A": [["-1"]]})

    def test_schema_violation_carries_pointer(self):
        with pytest.raises(ProblemError, match=r"\(at /dim\)"):
            load_problem(minimal(dim=0))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ProblemError):
            load_problem(minimal(bogus=1))

    def test_coefficient_shape_checked(self):
        with pytest.raises(ProblemError, match="/A"):
            load_problem({"dim": 2, "A": [["-1"]], "window": 10.0})

    def test_certificate_shape_checked(self):
        with pytest.raises(ProblemError, match="/certificate/P"):
            load_problem(
                minimal(certificate={"P": [[1.0, 0.0]], "N": 1.0, "nu": 1.0})
            )

    def test_parse_error_carries_location(self):
        with pytest.raises(ProblemError, match=r"expression error at /A/0/0"):
            load_problem(minimal(A=[["2*+t"]]))

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ProblemError, match="valid JSON"):
            load_problem(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError, match="cannot read"):
            load_problem(tmp_path / "absent.json")

    def test_default_tolerance(self):
        assert load_problem(minimal()).tol == 1e-6


class TestSolveLinearCommand:
    def test_exit_code_and_artifacts(self, cli_runs):
        run = cli_runs["diag_cos"]
        assert run["rc"] == 0
        for name in ("sol.csv", "report.json", "trichotomy.json"):
            assert (run["out"] / name).exists()

    def test_report_contents(self, cli_runs):
        report = json.loads((cli_runs["diag_cos"]["out"] / "report.json").read_text())
        assert report["bound_satisfied"] is True
        assert report["ode_residual_max"] <= 1e-5
        assert report["sup_norm"] <= report["operator_bound"]
        assert report["window"] == [-10.0, 10.0]

    def test_solution_values(self, cli_runs):
        phi = read_solution_csv(cli_runs["diag_cos"]["out"] / "sol.csv")
        assert phi.dim == 2
        assert (phi.a, phi.b) == (-10.0, 10.0)
        assert np.allclose(phi(0.0), [0.5, -0.5], atol=1e-6)
        t = phi.times
        exact = np.stack(
            [(np.cos(t) + np.sin(t)) / 2.0, (np.sin(t) - np.cos(t)) / 2.0], axis=-1
        )
        assert np.max(np.abs(phi.values - exact)) <= 1e-6

    def test_csv_header(self, cli_runs):
        first = (cli_runs["diag_cos"]["out"] / "sol.csv").read_text().splitlines()[0]
        assert first == "t,x1,x2"

    def test_certificate_artifact(self, cli_runs):
        cert = json.loads(
            (cli_runs["diag_cos"]["out"] / "trichotomy.json").read_text()
        )
        assert cert["type"] == "trichotomy" and cert["ok"] is True
        P = np.asarray(cert["P"])
        assert np.max(np.abs(P - np.diag([1.0, 0.0]))) <= 1e-6

    def test_violated_operator_bound_is_an_error(self, tmp_path, capsys, monkeypatch):
        # supplied nu = 50 against the true rate 1 of a time-dependent A, with
        # the slack check switched off so that the run reaches the bound gate:
        # the solution is fine, the bound is not
        monkeypatch.setattr(trichotomy.hyperbolicity, "SLACK_TOL", float("inf"))
        data = json.loads(Path(problem_path("trich_tanh")).read_text())
        data["certificate"] = {"P": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
                               "Q": [[0, 0, 0], [0, 1, 0], [0, 0, 1]], "N": 1, "nu": 50}
        prob = tmp_path / "fast.json"
        prob.write_text(json.dumps(data))
        out = tmp_path / "out"
        rc = run_cli(["solve-linear", prob, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: sup_norm = 1.000091 of the solution exceeds "
            "operator_bound = 2N/nu * ||f|| = 0.069282032\n"
        )
        assert not (out / "sol.csv").exists()

    def test_constant_A_rate_above_spectrum_is_rejected(self, tmp_path, capsys):
        # on a constant A the supplied nu = 50 meets the exact rate 1 before any solve
        data = json.loads(Path(problem_path("diag_cos")).read_text())
        data["certificate"] = {"P": [[1, 0], [0, 0]], "Q": [[0, 0], [0, 1]], "N": 1, "nu": 50}
        prob = tmp_path / "fast.json"
        prob.write_text(json.dumps(data))
        out = tmp_path / "out"
        rc = run_cli(["solve-linear", prob, "--out", out])
        assert rc == 2
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("certified failure: supplied certificate rejected: "
                               "nu = 50 exceeds the spectral rate min |Re lam| = 1 ")
        report = json.loads((out / "report.json").read_text())
        assert report["ok"] is False and "nu = 50" in report["certified_failure"]
        assert not (out / "sol.csv").exists()

    def test_forcing_sup_beyond_the_output_window_widens_the_grid(self, tmp_path):
        # the beat of two close frequencies peaks outside [-10, 10]: at rate
        # 0.0563 its larger sup on the sampled window needs a longer tail
        terms = [(1.403, -0.9314, 0.772), (1.429, 1.0762, 1.0411)]
        f = " + ".join(f"{c}*cos({w}*t) + {s}*sin({w}*t)" for w, c, s in terms)
        prob = tmp_path / "beat.json"
        prob.write_text(json.dumps(minimal(A=[["-0.0563"]], f=[f])))
        out = tmp_path / "out"
        assert run_cli(["solve-linear", prob, "--out", out]) == 0
        phi = read_solution_csv(out / "sol.csv")
        assert (phi.a, phi.b) == (-10.0, 10.0)
        exact = sum(((c - 1j * s) / (1j * w + 0.0563) * np.exp(1j * w * phi.times)).real
                    for w, c, s in terms)
        assert np.max(np.abs(phi.values[:, 0] - exact)) <= 1e-5

    def test_infinite_tail_horizon_is_refused_by_name(self, tmp_path, capsys):
        # the squares of 1e300 t^3 overflow, so the sup norm and the tail
        # horizon are inf: a refusal that names both, not an OverflowError
        prob = tmp_path / "cube.json"
        prob.write_text(json.dumps(minimal(f=["1e300*t*t*t"])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["solve-linear", prob, "--out", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: forcing window [-inf, inf] for the tail horizon inf and the forcing sup "
            "norm inf needs over 2e+06 grid values at step 0.02\n")

    def test_forcing_grid_cap_refuses_before_sampling(self, tmp_path, capsys):
        # rate 1e-5 needs a tail horizon near 2.6e6: far more grid than the cap
        prob = tmp_path / "slow.json"
        prob.write_text(json.dumps(minimal(dim=2, A=[["-1e-5", "0"], ["0", "1"]],
                                           f=["cos(t)", "0"])))
        start = time.monotonic()
        rc = run_cli(["solve-linear", prob, "--out", tmp_path / "out"])
        assert time.monotonic() - start < 2.0
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: forcing window [-")
        cap = trichotomy.cli.MAX_GRID_VALUES
        assert f"over {cap:.4g} grid values at step 0.02" in err

    @pytest.mark.parametrize("forcing, value", [("ln(t+5)", "-5"), ("ln(14-t)", "0")])
    def test_forcing_domain_error_prints_a_plain_float(self, tmp_path, capsys, monkeypatch,
                                                       forcing, value):
        # the array call raises the error itself, naming the first failing
        # value: no scalar call and no point-by-point pass over the grid
        calls = []
        forcing_fn = trichotomy.cli.ProblemSpec.forcing_fn

        def counted(spec):
            fn = forcing_fn(spec)
            return lambda t: calls.append(np.shape(t)) or fn(t)

        monkeypatch.setattr(trichotomy.cli.ProblemSpec, "forcing_fn", counted)
        prob = tmp_path / "ln.json"
        prob.write_text(json.dumps(minimal(f=[forcing])))
        rc = run_cli(["solve-linear", prob, "--out", tmp_path / "out"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: ln of non-positive value {value}\n"
        assert () not in calls
        # at most a passing sup-norm sample and the failing call
        assert len(calls) <= 2

    def test_forcing_required(self, tmp_path):
        prob = tmp_path / "nof.json"
        prob.write_text(json.dumps(minimal()))
        rc = run_cli(["solve-linear", prob, "--out", tmp_path / "out"])
        assert rc == 1


class TestSemilinearCommand:
    def test_scalar_sin_run(self, cli_runs):
        run = cli_runs["scalar_sin"]
        assert run["rc"] == 0
        report = json.loads((run["out"] / "report.json").read_text())
        assert report["alpha"] == pytest.approx(0.2)
        assert report["r_bound"] == pytest.approx(0.25)
        assert report["measured_deviation"] <= 0.25 * (1 + 1e-3)
        assert report["ode_residual"] <= 1e-5
        assert all(r <= 0.25 for r in report["contraction_ratios"])

    def test_solution_near_scalar_fixed_point(self, cli_runs):
        phi = read_solution_csv(cli_runs["scalar_sin"]["out"] / "sol.csv")
        assert np.max(np.abs(phi.values - 0.5524799869065703)) <= 1e-5

    def test_contraction_refusal_is_certified(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(["solve-semilinear", problem_path("c1_cubic"), "--out", out])
        assert rc == 2
        report = json.loads((out / "report.json").read_text())
        assert report["ok"] is False
        assert "certified_failure" in report
        # the refused L is the sampled estimate, and the refusal says so
        assert capsys.readouterr().out.splitlines()[-1] == (
            "certified refusal: contraction requires L < nu/(2N) = 0.5; "
            "sampled estimate L = 1.05 * 9.69887 = 10.1838 gives alpha = 20.3676 >= 1"
        )

    def test_nonlinearity_required(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(["solve-semilinear", problem_path("diag_cos"), "--out", out])
        assert rc == 1

    @pytest.mark.parametrize("F, L", [
        (["0.1*sin(x1)"], 0.1048890319250809),
        (["0.1*sin(x1)", "0.05*tanh(x2) + 0.02*x1"], 0.10185031620888463),
    ])
    def test_sampled_lipschitz_constant(self, F, L):
        # pinned values: the estimate keeps its own draws (seed 1, 12 pairs
        # per time), separate from LipschitzSpec validation (seed 0, 8 pairs)
        n = len(F)
        A = [["-1" if i == j else "0" for j in range(n)] for i in range(n)]
        spec = load_problem({"dim": n, "A": A, "F": F, "window": 6.0})
        assert trichotomy.cli._lipschitz_spec(spec).L == pytest.approx(L, rel=1e-12)

    def test_undeclared_constant_is_sampled(self, tmp_path):
        data = json.loads(Path(problem_path("scalar_sin")).read_text())
        del data["L"]
        prob = tmp_path / "no_L.json"
        prob.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert run_cli(["solve-semilinear", prob, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["alpha"] == pytest.approx(2.0 * 0.1048890319250809, rel=1e-12)
        phi = read_solution_csv(out / "sol.csv")
        assert np.max(np.abs(phi.values - 0.5524799869065703)) <= 1e-5

    def test_refused_estimate_is_not_called_declared(self, tmp_path, capsys):
        # x' = -x + 3 + 0.01 x^3: the validation sampling finds a larger
        # ratio than the 1.05 * ratio estimate of the first sampling
        prob = tmp_path / "cubic.json"
        prob.write_text(json.dumps(minimal(f=["3"], F=["0.01*x1^3"], window=12.0)))
        rc = run_cli(["solve-semilinear", prob, "--out", tmp_path / "out"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "note: no declared L; sampled estimate L = 0.104096" in captured.out
        assert "declared" not in captured.err
        assert captured.err.strip() == (
            "error: sampled Lipschitz ratio 0.114799 exceeds "
            "sampled estimate L = 1.05 * 0.0991388 = 0.104096"
        )

    def test_diverging_picard_iteration_names_its_step(self, tmp_path, capsys):
        # x' = -x + 5 + 0.01 x^3 with the too-small declared L = 0.13 has no
        # bounded solution near the linear one: the iterates blow up
        prob = tmp_path / "cubic.json"
        prob.write_text(json.dumps(minimal(f=["5"], F=["0.01*x1^3"], L=0.13, window=12.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["solve-semilinear", prob, "--out", tmp_path / "out"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert err.startswith("error: Picard iteration stopped at iterate 11: "
                              "sup|psi_11 - psi_10| is not finite; ")
        assert "last finite step sup|psi_10 - psi_9| = " in err
        assert err.strip().endswith("alpha = 0.26")

    @pytest.mark.parametrize("command", ["solve-semilinear", "continue-epsilon"])
    def test_deviation_above_its_bound_is_an_error(self, tmp_path, capsys, monkeypatch, command):
        # a printed r must bound the measured deviation, or nothing is written
        monkeypatch.setattr(trichotomy.solvers, "_deviation_bound", lambda *args: 1e-9)
        out = tmp_path / "out"
        assert run_cli([command, problem_path("scalar_sin"), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: measured_deviation = 0.0")
        assert err.endswith(" from the linear solution exceeds "
                            "r_bound = 4N^2 L ||f|| / (nu (nu - 2NL)) = 1e-09\n")
        assert not any(out.iterdir())

    def test_identically_zero_nonlinearity_rejected(self, tmp_path, capsys):
        prob = tmp_path / "zero.json"
        prob.write_text(json.dumps(minimal(f=["0.5"], F=["0*x1"])))
        rc = run_cli(["solve-semilinear", prob, "--out", tmp_path / "out"])
        assert rc == 1
        assert "identically zero" in capsys.readouterr().err


class TestCheckCommands:
    def test_dichotomy_certified(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(["check-dichotomy", problem_path("diag_cos"), "--out", out])
        assert rc == 0
        data = json.loads((out / "dichotomy.json").read_text())
        assert data["ok"] is True
        assert data["interval"] == [-10.0, 10.0]
        assert data["report"]["max_slack"] <= 1e-6

    def test_dichotomy_failure_is_exit_two(self, tmp_path):
        prob = tmp_path / "rot.json"
        prob.write_text(
            json.dumps({"dim": 2, "A": [["0", "1"], ["-1", "0"]], "window": 10.0})
        )
        out = tmp_path / "out"
        rc = run_cli(["check-dichotomy", prob, "--out", out])
        assert rc == 2
        data = json.loads((out / "dichotomy.json").read_text())
        assert data["ok"] is False
        assert "reason" in data

    def test_dichotomy_stages_share_one_operator(self, tmp_path, monkeypatch):
        built = []
        init = TransitionOperator.__init__

        def counting_init(self, A):
            built.append(A)
            init(self, A)

        monkeypatch.setattr(TransitionOperator, "__init__", counting_init)
        rc = run_cli(["check-dichotomy", problem_path("diag_cos"), "--out", tmp_path])
        assert rc == 0
        assert len(built) == 1

    def test_fast_saddle_certifies_without_reading_between_nodes(self, tmp_path, capsys):
        # no degree up to 4096 fits the legs of +-30 between their nodes
        # (ROADMAP direction 21), but a certificate reads node matrices only
        prob = tmp_path / "fast.json"
        prob.write_text(json.dumps({"dim": 2, "A": [["-30 + sin(t)", "0"], ["0", "30 + cos(t)"]],
                                    "f": ["cos(t)", "sin(t)"], "window": 12.0}))
        assert run_cli(["check-trichotomy", prob, "--out", tmp_path / "cert"]) == 0
        N, nu = map(float, re.search(r"N = (\S+), nu = (\S+)", capsys.readouterr().out).groups())
        t, tau = np.meshgrid(np.linspace(-12.0, 12.0, 481), np.linspace(-12.0, 12.0, 481))
        up, down = t >= tau, t <= tau
        # |Phi(t, tau) P| for t >= tau, and |Phi(t, tau)(I - P)| for t <= tau
        stable = np.exp(-30.0 * (t - tau)[up] - np.cos(t[up]) + np.cos(tau[up]))
        unstable = np.exp(30.0 * (t - tau)[down] + np.sin(t[down]) - np.sin(tau[down]))
        assert np.all(stable <= N * np.exp(-nu * (t - tau)[up]) * (1.0 + 1e-12))
        assert np.all(unstable <= N * np.exp(nu * (t - tau)[down]) * (1.0 + 1e-12))
        # the solve reads the legs between their nodes, so it still refuses them
        assert run_cli(["solve-linear", prob, "--out", tmp_path / "sol"]) == 1
        assert "unresolved by its degree-4096 Chebyshev interpolant" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-trichotomy", "check-dichotomy"])
    def test_short_estimation_window_names_its_interval(self, tmp_path, capsys, command):
        spec = load_problem(problem_path("rotation"))
        assert trichotomy.cli.run(command, spec, Flags(out=str(tmp_path), window=5.0)) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: estimation interval [0, 5] is 5 time units long, "
                                "below the 10 an estimate needs\n")
        assert captured.out == ""

    def test_trichotomy_certified(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(["check-trichotomy", problem_path("trich_tanh"), "--out", out])
        assert rc == 0
        data = json.loads((out / "trichotomy.json").read_text())
        assert data["ok"] is True
        P = np.asarray(data["P"])
        Q = np.asarray(data["Q"])
        assert np.max(np.abs(P - np.diag([1.0, 0.0, 1.0]))) <= 1e-4
        assert np.max(np.abs(Q - np.diag([0.0, 1.0, 1.0]))) <= 1e-4
        assert max(data["identity_residuals"].values()) <= 1e-9

    @pytest.mark.parametrize("command", ["check-dichotomy", "check-trichotomy", "solve-linear"])
    def test_conjugated_rotation_stays_a_certified_negative(self, tmp_path, command):
        # W rot(1.3) W^-1 has |Re lam| near 1e-16: on the imaginary axis, which
        # the closed form refuses on every command
        W = np.array([[1.0, 2.0], [0.5, 3.0]])
        A = W @ np.array([[0.0, 1.3], [-1.3, 0.0]]) @ np.linalg.inv(W)
        prob = tmp_path / "wrot.json"
        prob.write_text(json.dumps(minimal(dim=2, A=[[f"{x:.17g}" for x in r] for r in A],
                                           f=["cos(t)", "0"])))
        out = tmp_path / "out"
        assert run_cli([command, prob, "--out", out]) == 2

    @pytest.mark.parametrize("a, om", [(3, 6), (3, 8), (2, 10), (1, 12)])
    def test_fast_rotating_saddle_is_certified(self, tmp_path, a, om):
        # R(om t) diag(-a, a) R(om t)^T + om J has Phi(t, s) = R(om t)
        # e^{diag(-a, a)(t - s)} R(om s)^T: N = 1, and the estimate fits 0.95 a
        c, s = f"cos({om}*t)", f"sin({om}*t)"
        A = [[f"-{a}*{c}^2 + {a}*{s}^2", f"-{2 * a}*{c}*{s} - {om}"],
             [f"-{2 * a}*{c}*{s} + {om}", f"-{a}*{s}^2 + {a}*{c}^2"]]
        prob = tmp_path / "saddle.json"
        prob.write_text(json.dumps(minimal(dim=2, A=A, f=["cos(t)", "0"])))
        out = tmp_path / "out"
        assert run_cli(["check-dichotomy", prob, "--out", out]) == 0
        data = json.loads((out / "dichotomy.json").read_text())
        assert data["N"] == pytest.approx(1.0, abs=1e-6)
        assert data["nu"] == pytest.approx(0.95 * a, abs=1e-6)

    def test_incompatible_halves_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(["check-trichotomy", problem_path("arctan"), "--out", out])
        assert rc == 2
        data = json.loads((out / "trichotomy.json").read_text())
        assert data["ok"] is False
        assert data["compatibility_residual"] == pytest.approx(1.0, abs=1e-6)
        printed = capsys.readouterr().out
        assert "incompatible" in printed
        assert "= 1 exceeds COMPAT_TOL = 1e-06" in printed


def _spy_verify_halves(monkeypatch):
    """The (lo, hi) spans of every half in each ``_verify_halves`` call."""
    calls, verify = [], trichotomy.hyperbolicity._verify_halves

    def counting(op, halves, *args):
        calls.append([(lo, hi) for _, lo, hi in halves])
        return verify(op, halves, *args)

    monkeypatch.setattr(trichotomy.hyperbolicity, "_verify_halves", counting)
    return calls


class TestOneOperatorPerCommand:
    @pytest.mark.parametrize("name", ["rotation", "trich_tanh"])
    def test_one_operator_and_no_leg_integrated_twice(self, tmp_path, monkeypatch, name):
        built, spans = [], []
        init, magnus_legs = TransitionOperator.__init__, trichotomy.propagator._magnus_legs

        def counting_init(self, A):
            built.append(A)
            init(self, A)

        def counting_magnus_legs(A, batch):
            spans.extend(batch)
            return magnus_legs(A, batch)

        monkeypatch.setattr(TransitionOperator, "__init__", counting_init)
        monkeypatch.setattr(trichotomy.propagator, "_magnus_legs", counting_magnus_legs)
        verified = _spy_verify_halves(monkeypatch)
        assert run_cli(["solve-linear", problem_path(name), "--out", tmp_path]) == 0
        assert len(built) == 1
        # one verified build, on the forcing window grown past 12 by the
        # estimate's constants; the estimates and the families read the one
        # operator's integer-anchored legs
        S = json.loads((tmp_path / "trichotomy.json").read_text())["interval"][1]
        assert S > 12.0
        assert verified == [[(0.0, S), (-S, 0.0)]]
        assert spans and len(set(spans)) == len(spans)

    # each bundled constant A with its exit codes, in trichotomy.cli.COMMANDS
    # order; such an A is certified and solved in closed form, so no command
    # integrates a leg or sweeps a family
    @pytest.mark.parametrize("name, codes", [
        ("atan_forced", [0, 0, 0, 1, 1, 0, 0]),
        ("c1_cubic", [0, 0, 1, 2, 2, 2, 2]),
        ("diag_cos", [0, 0, 0, 1, 1, 0, 0]),
        ("scalar_sin", [0, 0, 0, 0, 0, 0, 0]),
    ])
    def test_constant_A_integrates_no_leg_and_sweeps_no_family(self, tmp_path, monkeypatch,
                                                               name, codes):
        calls = []
        for owner, attr in ((trichotomy.propagator, "_magnus_legs"),
                            (trichotomy.hyperbolicity, "_build_families")):
            spied = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args, attr=attr, spied=spied:
                                calls.append(attr) or spied(*args))
        assert TransitionOperator(load_problem(problem_path(name)).A).eig is not None
        rcs = [run_cli([command, problem_path(name), "--out", tmp_path / command])
               for command in trichotomy.cli.COMMANDS]
        assert rcs == codes
        assert calls == []

    @pytest.mark.parametrize("command, name", [("solve-linear", "diag_cos"),
                                               ("solve-semilinear", "scalar_sin")])
    def test_grown_closed_form_kernel_samples_no_constants(self, tmp_path, monkeypatch,
                                                           command, name):
        calls, kernels = [], []
        verify = trichotomy.cli._verify_split

        def counting_verify(split, *given):
            kernels.append(split.T)
            return verify(split, *given)

        monkeypatch.setattr(trichotomy.hyperbolicity, "_check_spectral_constants",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(trichotomy.cli, "_verify_split", counting_verify)
        assert run_cli([command, problem_path(name), "--out", tmp_path]) == 0
        assert len(kernels) == 1 and kernels[0] > 12.0
        assert calls == []

    def test_kernel_certificate_covers_the_forcing_window(self):
        # the constants are fitted on the certificate's whole window, which
        # holds the forcing window, and hold at every chain sample there
        spec = load_problem(problem_path("trich_tanh"))
        kernel, cert, f = trichotomy.cli._solve_pipeline(spec)
        S = cert.interval[1]
        assert kernel.cert is cert
        assert cert.interval[0] <= f.a < f.b <= S and f.b > 12.0
        fam_plus, fam_minus = cert.families
        groups = _chain_samples([fam_plus, fam_minus], [(0.0, S), (-S, 0.0)])
        worst = max(_bound_violations(rows, cert.N, cert.nu, "chain")[0] for rows in groups)
        assert worst <= SLACK_TOL


def _saddle_rows(a, b, om):
    """A = R(om t) diag(-a, b) R(om t)^T + om J, as problem-file strings."""
    h, g = (b - a) / 2.0, (a + b) / 2.0
    c2, s2 = f"cos({2 * om!r}*t)", f"sin({2 * om!r}*t)"
    return [[f"{h!r} - {g!r}*{c2}", f"{-g!r}*{s2} - {om!r}"],
            [f"{-g!r}*{s2} + {om!r}", f"{h!r} + {g!r}*{c2}"]]


def _tanh_rows(a, b, c):
    return [[repr(-a), "0", "0"], ["0", repr(b), "0"], ["0", "0", f"{-c!r}*tanh({c!r}*t)"]]


def _margin_covered(spec, cert, f):
    """S_out + margin(N, nu) <= W <= the certificate's reach, with the pipeline's sup of f."""
    fnorm = max(GridFunction.from_callable(spec.forcing_fn(), -spec.window, spec.window,
                                           0.1).sup_norm, f.sup_norm)
    margin = trichotomy.solvers._tail_margin(cert.N, cert.nu, fnorm, spec.tol, False)[1]
    return spec.window + margin <= f.b <= cert.interval[1] and f.a == -f.b


class TestOneCertificatePerSolve:
    """The solve pipeline sizes its forcing window from stage 1's constants and verifies once."""

    PROBLEMS = {
        "rotation": json.loads(Path(problem_path("rotation")).read_text()),
        "trich_tanh": json.loads(Path(problem_path("trich_tanh")).read_text()),
        "saddle": {"dim": 2, "A": _saddle_rows(1.3, 0.95, 0.4), "f": ["cos(t)", "sin(0.7*t)"],
                   "window": 11},
    }

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    @pytest.mark.parametrize("command", ["solve-linear", "solve-semilinear", "continue-epsilon",
                                         "rap-scan", "audit"])
    def test_each_solving_command_verifies_once(self, tmp_path, monkeypatch, name, command):
        data = dict(self.PROBLEMS[name], F=["0.02*sin(x1)"] + ["0"] * (
            self.PROBLEMS[name]["dim"] - 1), L=0.02)
        prob = tmp_path / "p.json"
        prob.write_text(json.dumps(data))
        verified = _spy_verify_halves(monkeypatch)
        assert run_cli([command, prob, "--out", tmp_path / "out", "--tau-range", "1:2:0.5"]) == 0
        (halves,) = verified
        S = halves[0][1]
        assert halves == [(0.0, S), (-S, 0.0)] and S > data["window"] + 2.0
        written = tmp_path / "out" / "trichotomy.json"
        if written.exists():
            assert json.loads(written.read_text())["interval"] == [-S, S]

    def test_grown_window_keeps_whether_p_and_q_were_estimated(self, tmp_path):
        # both verify on a window grown past max(S_out, 12) + 0.5, whose stage 1
        # takes stage 1's P and Q as given
        rotation = self.PROBLEMS["rotation"]
        supplied = dict(rotation, certificate={"P": [[1.0, 0.0], [0.0, 0.0]],
                                               "Q": [[0.0, 0.0], [0.0, 1.0]], "N": 1.0, "nu": 0.95})
        for data, estimated in ((rotation, True), (supplied, False)):
            prob = tmp_path / "p.json"
            prob.write_text(json.dumps(data))
            assert run_cli(["solve-linear", prob, "--out", tmp_path / "out"]) == 0
            cert = json.loads((tmp_path / "out" / "trichotomy.json").read_text())
            assert cert["interval"][1] > 12.5
            assert cert["report"]["estimated"] is estimated

    def test_undershooting_constants_regrow_the_window_once(self, monkeypatch):
        # S(t) diag(-1, 1) S(t)^-1 + S'(t) S(t)^-1 with S(t) = [[1, 6 sin t], [0, 1]]:
        # the halves meet orthogonally at 0, where the estimate sees N = 1, but
        # the frame shears them apart and the verified N is near 6
        spec = load_problem({"dim": 2, "A": [["-1", "12*sin(t) + 6*cos(t)"], ["0", "1"]],
                             "f": ["cos(t)", "sin(t)"], "window": 10})
        verified = _spy_verify_halves(monkeypatch)
        _, cert, f = trichotomy.cli._solve_pipeline(spec)
        assert cert.N > 5.0
        # both checks cover a forcing window: the guessed one, then the regrown one
        assert len(verified) == 2 and 12.0 < verified[0][0][1] < verified[1][0][1]
        assert verified[1] == [(0.0, cert.interval[1]), (-cert.interval[1], 0.0)]
        assert _margin_covered(spec, cert, f)

    def test_a_rate_hint_of_zero_is_verified_before_any_refusal(self, tmp_path, capsys):
        # x2' = 0 gives the estimate a singular value of exactly 1, a rate hint
        # of 0 and an infinite guessed horizon; the fit then refuses the centre
        prob = tmp_path / "flat.json"
        prob.write_text(json.dumps(minimal(dim=2, A=[["1 + 0.1*sin(t)", "0"], ["0", "0"]],
                                           f=["cos(t)", "sin(t)"])))
        assert run_cli(["solve-linear", prob, "--out", tmp_path / "out"]) == 2
        assert "fitted decay rate -0 is not positive" in capsys.readouterr().out

    @settings(max_examples=8, deadline=None)
    @given(a=st.floats(0.9, 1.4), b=st.floats(0.9, 1.4), c=st.floats(0.9, 1.4),
           om=st.floats(0.1, 0.5), tanh=st.booleans(), window=st.floats(10.0, 14.0))
    def test_estimate_sizes_the_window_without_a_regrow(self, a, b, c, om, tanh, window):
        rows = _tanh_rows(a, b, c) if tanh else _saddle_rows(a, b, om)
        spec = load_problem({"dim": len(rows), "A": rows, "window": window,
                             "f": ["cos(t)", f"sin({om!r}*t)", "1"][:len(rows)]})
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_verify_halves(mp)
            _, cert, f = trichotomy.cli._solve_pipeline(spec)
        assert len(calls) == 1
        assert _margin_covered(spec, cert, f)


def _heat(n):
    """u_t = u_xx + 2.5 u on (0, pi), n interior points: one unstable mode."""
    h = np.pi / (n + 1)
    return (np.diag(np.full(n, -2.0 / h**2 + 2.5)) + np.diag(np.full(n - 1, 1.0 / h**2), 1)
            + np.diag(np.full(n - 1, 1.0 / h**2), -1))


def _constant_problem(path, A, window=10.0):
    path.write_text(json.dumps({"dim": len(A), "A": [[repr(float(x)) for x in row] for row in A],
                                "window": window}))
    return path


class TestConstantsCoverTheirWindow:
    """Printed N and nu come from the closed form, a fit on the window, or a check there."""

    @pytest.mark.parametrize("command", ["check-trichotomy", "solve-linear"])
    def test_supplied_rate_above_the_true_one_is_rejected(self, tmp_path, capsys, command):
        # diag(-1, 1, -tanh t) decays at rate 1; nu = 50 must not print "certified"
        data = json.loads(Path(problem_path("trich_tanh")).read_text())
        data["certificate"] = {"P": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
                               "Q": [[0, 0, 0], [0, 1, 0], [0, 0, 1]], "N": 1, "nu": 50}
        prob = tmp_path / "fast.json"
        prob.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert run_cli([command, prob, "--out", out]) == 2
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("certified failure: certificate rejected: max slack = 0.648054 ")
        # 1/cosh(1) - e^-50 is the slack at both (1, 0) and (-1, 0); the
        # legs' last bits pick which of the two tied pairs is printed
        assert "exceeds SLACK_TOL = 1e-06 at (t, tau) = (1, 0)" in line
        assert not (out / "sol.csv").exists() and not (out / "trichotomy.json").exists()

    def test_grown_kernel_constants_are_fitted_on_the_grown_window(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["solve-linear", problem_path("trich_tanh"), "--out", out]) == 0
        data = json.loads((out / "trichotomy.json").read_text())
        S = data["interval"][1]
        assert S > 12.0
        fresh = build_trichotomy(load_problem(problem_path("trich_tanh")).A, S,
                                 P=np.asarray(data["P"]), Q=np.asarray(data["Q"]))
        assert (data["N"], data["nu"]) == (fresh.N, fresh.nu)
        assert data["report"]["max_slack"] <= SLACK_TOL
        report = json.loads((out / "report.json").read_text())
        assert (report["N"], report["nu"]) == (fresh.N, fresh.nu)

    @pytest.mark.parametrize("A", [_heat(8), _heat(32), np.diag([-0.05, 0.05])],
                             ids=["heat8", "heat32", "slow-saddle"])
    def test_check_dichotomy_uses_the_closed_form(self, tmp_path, monkeypatch, A):
        calls = []
        solve_leg, build = TransitionOperator.solve_leg, trichotomy.hyperbolicity._build_families

        def counting(name, fn):
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        monkeypatch.setattr(TransitionOperator, "solve_leg", counting("solve_leg", solve_leg))
        monkeypatch.setattr(trichotomy.hyperbolicity, "_build_families",
                            counting("_build_families", build))
        out = tmp_path / "out"
        assert run_cli(["check-dichotomy", _constant_problem(tmp_path / "A.json", A),
                        "--out", out]) == 0
        data = json.loads((out / "dichotomy.json").read_text())
        lam = np.linalg.eig(A)[0]
        assert data["ok"] is True
        assert data["nu"] == float(np.min(np.abs(lam.real)))
        assert data["report"]["max_slack"] <= SLACK_TOL
        assert calls == []

    def test_check_dichotomy_prints_the_exact_non_normal_constants(self, tmp_path, capsys):
        # ||e^{At} P|| = ||(1, 0)|| ||(1, -4)|| e^{-t}: N = sqrt(17), nu = 1
        prob = _constant_problem(tmp_path / "A.json", [[-1.0, 8.0], [0.0, 1.0]])
        assert run_cli(["check-dichotomy", prob, "--out", tmp_path / "out"]) == 0
        assert "  rank P = 1, N = 4.12311, nu = 1\n" in capsys.readouterr().out
        data = json.loads((tmp_path / "out" / "dichotomy.json").read_text())
        assert data["nu"] == 1.0 and data["N"] == pytest.approx(np.sqrt(17.0), rel=1e-12)

    # rotated symmetric saddles with entries rounded to 1e-10, as the benchmark
    # builds them; the example's closed-form N rounds below 1 unless clamped
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3),
           st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3), st.integers(0, 2))
    @example(7, 2, [0.8, 1.1, 1.7], 0)
    def test_rotated_saddle_constants_are_admissible(self, seed, n, mags, k):
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        V = q * np.sign(np.diag(r))
        signs = -np.ones(n) if n == 1 else np.where(np.arange(n) <= min(k, n - 2), -1.0, 1.0)
        lam = signs * np.asarray(mags[:n])
        A = np.round(V @ np.diag(lam) @ V.T, 10)
        V_s = V[:, lam < 0]
        assert build_trichotomy(CoefficientMatrix.from_strings(
            [[repr(float(x)) for x in row] for row in A]), 10.5).N >= 1.0
        with tempfile.TemporaryDirectory() as tmp:
            prob = _constant_problem(Path(tmp) / "A.json", A, window=10.5)
            assert run_cli(["check-dichotomy", prob, "--out", Path(tmp) / "out"]) == 0
            data = json.loads((Path(tmp) / "out" / "dichotomy.json").read_text())
        assert data["N"] >= 1.0
        assert 0.0 < data["nu"] <= np.min(np.abs(lam)) * (1.0 + 1e-9)
        assert np.linalg.norm(np.asarray(data["P"]) - V_s @ V_s.T, 2) <= 1e-6


def _rotation_with(tmp_path, a):
    """The bundled rotation problem with the supplied P = [[1, a], [0, 0]]; P(0) = diag(1, 0)."""
    data = json.loads(Path(problem_path("rotation")).read_text())
    data["certificate"] = {"P": [[1, a], [0, 0]], "Q": [[0, -a], [0, 1]], "N": 5, "nu": 0.5}
    prob = tmp_path / "tilted.json"
    prob.write_text(json.dumps(data))
    return prob


class TestSuppliedProjectorIsVerified:
    """A supplied P, read as P(0), passes the one half-line check on each half, on every command."""

    @pytest.mark.parametrize("a", [3.0, 0.5])
    @pytest.mark.parametrize("command", ["check-dichotomy", "check-trichotomy", "solve-linear"])
    def test_wrong_projector_is_a_certified_negative(self, tmp_path, capsys, command, a):
        out = tmp_path / "out"
        assert run_cli([command, _rotation_with(tmp_path, a), "--out", out]) == 2
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("certified failure: certificate rejected: ")
        assert "exceeds SLACK_TOL = 1e-06" in line or "exceeds SEED_TOL = 1e-05" in line
        assert not (out / "trichotomy.json").exists() and not (out / "sol.csv").exists()

    def test_seed_residual_gate_names_its_threshold(self, tmp_path, capsys, monkeypatch):
        # past the slack check, the swept P(0) of the minus half is diag(1, 0)
        monkeypatch.setattr(trichotomy.hyperbolicity, "SLACK_TOL", float("inf"))
        prob = _rotation_with(tmp_path, 3.0)
        assert run_cli(["check-trichotomy", prob, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "certified failure: certificate rejected: seed residual ||P_swept(0) - P(0)|| = 3 "
            "on the minus half exceeds SEED_TOL = 1e-05"
        )

    def test_check_dichotomy_sweeps_each_half_line(self, tmp_path, monkeypatch):
        # a dichotomy is the trichotomy with no center, swept half by half
        calls, build = [], trichotomy.hyperbolicity._build_families
        monkeypatch.setattr(trichotomy.hyperbolicity, "_build_families",
                            lambda *args: calls.append([half[1:] for half in args[1]])
                            or build(*args))
        assert run_cli(["check-dichotomy", problem_path("rotation"), "--out", tmp_path]) == 0
        assert calls == [[(0.0, 10.0), (-10.0, 0.0)]]

    @pytest.mark.parametrize("N, nu", [(5, 0.5), (1, 0.9)])
    def test_true_projector_at_zero_certifies_a_dichotomy(self, tmp_path, capsys, N, nu):
        # rotation's P(0) = diag(1, 0); the file gives no Q, so Q = I - P
        data = json.loads(Path(problem_path("rotation")).read_text())
        data["certificate"] = {"P": [[1, 0], [0, 0]], "N": N, "nu": nu}
        prob = tmp_path / "true.json"
        prob.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert run_cli(["check-dichotomy", prob, "--out", out]) == 0
        # the supplied N holds on each half line, so N^2 holds across 0
        assert f"  rank P = 1, N = {N * N:g}, nu = {nu:g}\n" in capsys.readouterr().out
        cert = json.loads((out / "dichotomy.json").read_text())
        assert cert["ok"] is True and (cert["N"], cert["nu"]) == (N * N, nu)
        assert cert["report"]["N_half_line"] == N
        assert cert["P"] == [[1.0, 0.0], [0.0, 0.0]]
        assert cert["report"]["max_slack"] <= SLACK_TOL


class TestNonFiniteRefusals:
    """A norm, slack or seed residual that is NaN measured nothing: the run neither certifies
    nor prints a certified negative, but exits 1 naming the quantity."""

    @pytest.mark.parametrize("command", ["check-trichotomy", "check-dichotomy", "solve-linear"])
    def test_a_chain_norm_that_is_not_finite_is_refused_by_its_pair(self, tmp_path, capsys,
                                                                    command):
        # the estimate underflows to P+ = P- = 0 here, so the unstable chains
        # carry the decaying class backward until it overflows
        spec = load_problem({"dim": 2, "A": [["-12 + sin(t)", "0"], ["0", "12 + cos(t)"]],
                             "f": ["cos(t)", "sin(t)"], "window": 64.0})
        out = tmp_path / "out"
        assert trichotomy.cli.run(command, spec, Flags(out=str(out))) == 1
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: certificate unverified: the unstable chain norm "
                            r"\|\|Phi\(t, tau\) Pi\(tau\)\|\| = nan at \(t, tau\) = "
                            r"\(0, \d+\) is not finite\n", captured.err)
        assert captured.out == ""
        assert all("nan" not in path.read_text().lower() for path in out.iterdir())

    @pytest.mark.parametrize("nan_kinds", [("stable", "unstable", "direct"), ("direct",)])
    def test_a_nan_slack_is_refused_with_exit_1(self, tmp_path, capsys, monkeypatch, nan_kinds):
        # a NaN in the last group checked must win over the finite slacks before it
        violations = _bound_violations
        monkeypatch.setattr(trichotomy.hyperbolicity, "_bound_violations",
                            lambda samples, N, nu, kind: (math.nan, {"t": 1.0, "tau": 0.0})
                            if kind in nan_kinds else violations(samples, N, nu, kind))
        spec = load_problem(problem_path("rotation"))
        assert trichotomy.cli.run("check-trichotomy", spec, Flags(out=str(tmp_path))) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: certificate unverified: the max slack of ||Phi(t, tau) Pi(tau)|| - "
            "N e^(-nu |t - tau|) at (t, tau) = (1, 0) is not a number\n")
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_a_nan_seed_residual_is_refused_with_exit_1(self, tmp_path, capsys, monkeypatch):
        build = trichotomy.hyperbolicity._build_families

        def nan_minus(*args):
            families = build(*args)
            families[-1].seed_residual = math.nan
            return families

        monkeypatch.setattr(trichotomy.hyperbolicity, "_build_families", nan_minus)
        spec = load_problem(problem_path("rotation"))
        assert trichotomy.cli.run("check-trichotomy", spec, Flags(out=str(tmp_path))) == 1
        assert capsys.readouterr().err == (
            "error: certificate unverified: the seed residual ||P_swept(0) - P(0)|| on the "
            "minus half is not a number\n")


class TestDichotomyIsTrichotomyWithoutCenter:
    """check-dichotomy certifies exactly where check-trichotomy finds no center."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_same_certificate_or_a_certified_negative(self, tmp_path, capsys, name):
        tri, dich = tmp_path / "tri", tmp_path / "dich"
        rc = run_cli(["check-trichotomy", name, "--out", tri])
        capsys.readouterr()
        rc_dich = run_cli(["check-dichotomy", name, "--out", dich])
        printed = capsys.readouterr().out
        t = json.loads((tri / "trichotomy.json").read_text()) if rc == 0 else None
        if t is None or round(np.trace(np.asarray(t["P"]) @ np.asarray(t["Q"]))) != 0:
            assert rc_dich == 2
            assert json.loads((dich / "dichotomy.json").read_text())["ok"] is False
            return
        assert rc_dich == 0
        d = json.loads((dich / "dichotomy.json").read_text())
        # a swept N holds on each half line; across 0 its square does
        N = t["N"] ** 2 if "seed_residual_plus" in t["report"] else t["N"]
        assert (d["P"], d["N"], d["nu"]) == (t["P"], N, t["nu"])
        rank = round(np.trace(np.asarray(t["P"])))
        assert f"  rank P = {rank}, N = {N:.6g}, nu = {t['nu']:.6g}\n" in printed

    def test_printed_constants_bound_a_pair_across_zero(self, tmp_path):
        # x1' = (-1 + 4 exp(-t^2)) x1: a transient at 0 that each half line
        # sees once and a pair (t, -t) sees twice
        prob = tmp_path / "bump.json"
        prob.write_text(json.dumps(minimal(dim=2, A=[["-1 + 4*exp(-t^2)", "0"], ["0", "1"]])))
        out = tmp_path / "out"
        assert run_cli(["check-dichotomy", prob, "--out", out]) == 0
        d = json.loads((out / "dichotomy.json").read_text())
        # the pairs (t, -t) at the integer anchors where the halves are checked;
        # ln |Phi(t, -t) P(-t)| = -2t + 2 sqrt(pi) (erf(t) - erf(-t))
        t = np.arange(1.0, 11.0)
        log_g = -2.0 * t + 4.0 * np.sqrt(np.pi) * scipy.special.erf(t)
        worst = float(np.max(log_g + 2.0 * t * d["nu"]))
        assert worst > 2.0 * np.log(d["report"]["N_half_line"]) - 0.01
        assert worst <= np.log(d["N"]) + 1e-6

    def test_a_center_names_its_rank(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["check-dichotomy", "trich_tanh", "--out", out]) == 2
        assert capsys.readouterr().out == (
            "certified failure: no dichotomy on [-12, 12]: the certified trichotomy "
            "has a centre of rank 1 (trace of R = PQ)\n"
        )
        data = json.loads((out / "dichotomy.json").read_text())
        assert data["ok"] is False and "centre of rank 1" in data["reason"]

    @pytest.mark.parametrize("command", ["check-dichotomy", "check-trichotomy", "solve-linear"])
    def test_an_axis_eigenvalue_names_itself(self, tmp_path, capsys, command):
        prob = tmp_path / "axis.json"
        prob.write_text(json.dumps(minimal(dim=2, A=[["-1", "0"], ["0", "0"]],
                                           f=["cos(t)", "0"])))
        assert run_cli([command, prob, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().out == (
            "certified failure: eigenvalue 0 of the constant A lies on the imaginary axis: "
            "|Re lam| = 0 <= AXIS_TOL * max(1, ||A||_2) = 1e-08 (AXIS_TOL = 1e-08), "
            "so no dichotomy has a rate above 1e-08\n"
        )

    @pytest.mark.parametrize("command", ["check-dichotomy", "check-trichotomy", "solve-linear"])
    def test_a_jordan_block_on_the_axis_names_its_eigenvalue(self, tmp_path, capsys, command):
        # [[0, 1], [0, 0]] has no eigendecomposition, so no closed form;
        # its eigenvalues alone refuse it before any sweep
        data = json.loads(Path(problem_path("diag_cos")).read_text())
        data["A"] = [["0", "1"], ["0", "0"]]
        prob = tmp_path / "jordan.json"
        prob.write_text(json.dumps(data))
        assert TransitionOperator(load_problem(prob).A).eig is None
        assert run_cli([command, prob, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().out == (
            "certified failure: eigenvalue 0 of the constant A lies on the imaginary axis: "
            "|Re lam| = 0 <= AXIS_TOL * max(1, ||A||_2) = 1e-08 (AXIS_TOL = 1e-08), "
            "so no dichotomy has a rate above 1e-08\n"
        )

    def test_incompatible_halves_are_the_reason(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["check-dichotomy", "arctan", "--out", out]) == 2
        assert "projections incompatible" in capsys.readouterr().out
        assert "projections incompatible" in json.loads(
            (out / "dichotomy.json").read_text())["reason"]
        assert json.loads((out / "trichotomy.json").read_text())["ok"] is False


class TestScanCommands:
    def test_rap_scan_artifacts(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            ["rap-scan", problem_path("diag_cos"), "--out", out,
             "--eps", "0.05", "--tau-range", "5.5:7.5:0.25"]
        )
        assert rc == 0
        for name in ("rap_report.json", "residuals.csv", "sol.csv", "lagrange.json"):
            assert (out / name).exists()
        rap = json.loads((out / "rap_report.json").read_text())
        # the solution is 2*pi periodic, so 6.25 is the only grid shift kept
        assert rap["accepted"] == [6.25]
        assert rap["not_relatively_dense"] is False
        lag = json.loads((out / "lagrange.json").read_text())
        assert lag["bounded_evidence"] is True
        assert lag["lagrange_stable_evidence"] is True

    def test_side_flag_maps_to_scan(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            ["rap-scan", problem_path("diag_cos"), "--out", out,
             "--eps", "0.05", "--tau-range", "6:6.5:0.25", "--side", "plus"]
        )
        assert rc == 0
        rap = json.loads((out / "rap_report.json").read_text())
        assert rap["side"] == "+"
        assert rap["two_sided"] is False

    @pytest.mark.parametrize("command", ["rap-scan", "audit"])
    @pytest.mark.parametrize("name", ["diag_cos", "rotation", "trich_tanh", "atan_forced",
                                      "scalar_sin"])
    def test_scan_writes_the_solve_commands_solution(self, tmp_path, cli_runs, name, command):
        # the sol.csv of solve-linear, or of solve-semilinear for the problem with F
        out = tmp_path / "out"
        assert run_cli([command, problem_path(name), "--out", out, "--tau-range", "6:6.5:0.25"]) == 0
        assert cli_runs[name]["rc"] == 0
        assert (out / "sol.csv").read_bytes() == (cli_runs[name]["out"] / "sol.csv").read_bytes()

    def test_scan_solves_semilinear_without_declared_L(self, tmp_path):
        # with F declared and L left out, the scan must still solve the
        # semilinear equation (sampling L), not the linear one
        data = json.loads(Path(problem_path("scalar_sin")).read_text())
        del data["L"]
        prob = tmp_path / "no_L.json"
        prob.write_text(json.dumps(data))
        scan, semi = tmp_path / "scan", tmp_path / "semi"
        assert run_cli(["rap-scan", prob, "--out", scan, "--tau-range", "6:6.5:0.25"]) == 0
        assert run_cli(["solve-semilinear", prob, "--out", semi]) == 0
        phi_scan = read_solution_csv(scan / "sol.csv")
        phi_semi = read_solution_csv(semi / "sol.csv")
        t = phi_semi.times
        t = t[(t >= phi_scan.a - 1e-9) & (t <= phi_scan.b + 1e-9)]
        assert t.size > 100
        assert np.max(np.abs(phi_scan(t) - phi_semi(t))) <= 10 * data["tol"]

    @pytest.mark.parametrize("command", ["rap-scan", "audit"])
    def test_tau_range_is_checked_before_the_solve(self, tmp_path, monkeypatch, capsys,
                                                   command):
        calls = []
        monkeypatch.setattr(trichotomy.cli, "build_trichotomy",
                            lambda *args, **kwargs: calls.append(args))
        rc = run_cli([command, "diag_cos", "--tau-range", "0.5:1e15:0.5", "--out", tmp_path])
        assert rc == 1
        assert f"more than the {trichotomy.rap._MAX_TAUS} a scan may hold" in (
            capsys.readouterr().err)
        assert calls == []

    def test_tau_scan_too_large_to_hold_is_an_error(self, tmp_path, capsys):
        rc = run_cli(["rap-scan", "diag_cos", "--tau-range", "0.5:1e15:0.5",
                      "--out", tmp_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "2000000000000000 taus" in err
        assert f"{trichotomy.rap._MAX_TAUS}" in err
        assert "Traceback" not in err


    def test_one_shot_scan_imports_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on its first call (13-17 ms a process)
        package_dir = Path(trichotomy.__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_dir.parent), env.get("PYTHONPATH")])
        )
        code = ("import sys; from trichotomy.cli import main; "
                "rc = main(['rap-scan', 'diag_cos', '--out', sys.argv[1]]); "
                "sys.exit(rc or ('numpy.ma' in sys.modules and 'numpy.ma imported'))")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "rap_report.json").exists()


# JSON leaves as the artifacts hold them, plus the text that could fool a
# split on "}" + separator + "{": braces, commas, quotes, newlines, non-ASCII
_json_text_st = st.text(st.sampled_from('ab}{[],:" \n\t\\\u00e9\u2603'), max_size=6)
_json_leaf = st.one_of(
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(),
    st.booleans(),
    st.none(),
    _json_text_st,
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_json_text_st, inner, max_size=4),
        st.lists(st.dictionaries(_json_text_st, _json_leaf, min_size=1, max_size=4),
                 min_size=1, max_size=5),
    ),
    max_leaves=40,
)


class TestJsonArtifacts:
    @settings(max_examples=300, deadline=None)
    @given(_json_value)
    @example({"c": [{"tau": 0.5, "T_5": None, "s": "x},\n  {"}, {"tau": -0.0, "T_5": 1e300}]})
    @example({"a": {"b": [float("nan"), float("inf"), -float("inf")]}, "e": {}, "f": [[], ()]})
    # keys json converts: a float, an int, None and a bool, above nested values
    @example({1.5: {"a": [1]}, 3: [{"b": 2}], None: [[]], True: {"z": (2,)}})
    def test_text_is_indent_2_json(self, data):
        assert trichotomy.cli._json_text(data) == json.dumps(data, indent=2, default=float)

    def test_written_reports_are_indent_2_json(self, tmp_path):
        assert run_cli(["rap-scan", "diag_cos", "--tau-range", "0.5:6.5:0.02",
                        "--out", tmp_path]) == 0
        assert run_cli(["audit", "atan_forced", "--out", tmp_path]) == 0
        for name in ("rap_report.json", "lagrange.json", "audit.json"):
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestMainInterface:
    def test_unknown_command_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate", problem_path("diag_cos")])
        assert exc.value.code == 1

    def test_missing_problem_file_is_an_error(self, tmp_path):
        rc = run_cli(["solve-linear", tmp_path / "none.json", "--out", tmp_path])
        assert rc == 1

    def test_bundled_problem_resolved_by_bare_name(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(["check-dichotomy", "diag_cos", "--out", out])
        assert rc == 0
        assert (out / "dichotomy.json").is_file()

    def test_bad_tau_range_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["rap-scan", problem_path("diag_cos"), "--tau-range", "3:1:0.5",
                 "--out", tmp_path]
            )
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve-linear", "--tol", "0"),
            ("solve-linear", "--tol", "abc"),
            ("solve-linear", "--tol", "-1e-6"),
            ("solve-linear", "--window", "nan"),
            ("solve-linear", "--window", "inf"),
            ("rap-scan", "--tau-range", "0:inf:1"),
            ("rap-scan", "--tau-range", "nan:1:0.1"),
            ("rap-scan", "--tau-range", "0:1:nan"),
            ("audit", "--eps", "0.1,nan"),
            ("audit", "--eps", "inf"),
        ],
    )
    def test_out_of_bounds_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        # the problem schema's bounds: window and tol finite and > 0, every
        # tau-range part and eps value finite
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "diag_cos", flag, value, "--out", tmp_path])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_repeated_eps_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["audit", "atan_forced", "--eps", "0.1,0.1", "--out", tmp_path])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --eps: eps value 0.1 is repeated" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, problem", [("rap-scan", "diag_cos")])
    def test_eps_ladder_only_for_audit(self, tmp_path, capsys, command, problem):
        rc = run_cli([command, problem, "--eps", "0.1,0.05", "--out", tmp_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{command} takes one --eps value, got 2" in err
        assert "audit" in err

    def test_window_too_small_is_an_error(self, tmp_path, capsys, monkeypatch):
        def too_small(spec, flags):
            raise WindowTooSmall("certificate window too small", 42.0)

        monkeypatch.setitem(trichotomy.cli._COMMANDS, "solve-linear", too_small)
        out = tmp_path / "out"
        rc = run_cli(["solve-linear", "diag_cos", "--out", out])
        assert rc == 1
        assert "increase window T" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_window_override_changes_solution_extent(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli(
            ["solve-linear", problem_path("diag_cos"), "--out", out,
             "--window", "4"]
        )
        assert rc == 0
        phi = read_solution_csv(out / "sol.csv")
        assert (phi.a, phi.b) == (-4.0, 4.0)

    def test_module_run_raises_no_runtime_warning(self):
        package_dir = Path(trichotomy.__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_dir.parent), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "trichotomy.cli",
             "--help"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "check-dichotomy" in proc.stdout

    def test_console_script_is_installed(self, tmp_path):
        """The declared ``trichotomy`` script runs ``main`` and exits with its code.

        Installers turn ``[project.scripts]`` into a wrapper that imports the
        entry point and passes its return value to ``sys.exit``; the same
        wrapper is generated here so the contract is checked from the source
        tree.  Where a real install exists, its script on ``PATH`` must pass
        the same checks.
        """
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")

        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["trichotomy"] == "trichotomy.cli:main"
        ep = importlib.metadata.EntryPoint(
            "trichotomy", scripts["trichotomy"], "console_scripts"
        )
        assert ep.load() is trichotomy.cli.main

        wrapper = tmp_path / "trichotomy"
        wrapper.write_text(
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            "if __name__ == \"__main__\":\n"
            f"    sys.exit({ep.attr}())\n"
        )
        package_dir = Path(trichotomy.__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_dir.parent), env.get("PYTHONPATH")])
        )
        commands = [([sys.executable, str(wrapper)], env)]

        # metadata left in src/ by a build of the tree is not an install
        installed = any(
            Path(dist.locate_file("")).resolve() != REPO_ROOT / "src"
            for dist in importlib.metadata.distributions(name="trichotomy")
        )
        if installed:
            exe = shutil.which("trichotomy")
            assert exe is not None
            commands.append(([exe], None))

        for i, (cmd, cmd_env) in enumerate(commands):
            proc = subprocess.run(
                cmd + ["--help"], capture_output=True, text=True, timeout=60,
                env=cmd_env,
            )
            assert proc.returncode == 0
            assert "check-dichotomy" in proc.stdout
            out = tmp_path / f"out{i}"
            proc = subprocess.run(
                cmd + ["check-trichotomy", "arctan", "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=cmd_env,
            )
            assert proc.returncode == 2, proc.stderr
