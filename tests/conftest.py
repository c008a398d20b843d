"""Shared fixtures: coefficient matrices, certified kernels, CLI artifact runs.

Kernel construction dominates test runtime, so everything reusable is
session-scoped.  Tests that assert runtime budgets build their own objects
and time them locally.
"""

import numpy as np
import pytest

from trichotomy import (
    CoefficientMatrix,
    GreenKernel,
    GridFunction,
    build_trichotomy,
)
from trichotomy.cli import bundled_problem_path, main as cli_main


def problem_path(name: str) -> str:
    return str(bundled_problem_path(name))


@pytest.fixture(scope="session")
def saddle_A():
    return CoefficientMatrix.from_strings([["-1", "0"], ["0", "1"]])


@pytest.fixture(scope="session")
def trich_A():
    return CoefficientMatrix.from_strings(
        [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "-tanh(t)"]]
    )


@pytest.fixture(scope="session")
def rotation_A():
    return CoefficientMatrix.from_strings(
        [["-cos(0.6*t)", "-sin(0.6*t) - 0.3"], ["-sin(0.6*t) + 0.3", "cos(0.6*t)"]]
    )


@pytest.fixture(scope="session")
def rotor_A():
    return CoefficientMatrix.from_strings([["0", "1"], ["-1", "0"]])


@pytest.fixture(scope="session")
def saddle_kernel(saddle_A):
    """Kernel on a window wide enough to solve out to [-10, 10] at 1e-6."""
    cert = build_trichotomy(saddle_A, 28.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def trich_kernel(trich_A):
    cert = build_trichotomy(trich_A, 14.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def rotation_kernel(rotation_A):
    cert = build_trichotomy(rotation_A, 14.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def scalar_kernel():
    """A = -1 with the exact certificate P=1, Q=0, N=1, nu=1."""
    A = CoefficientMatrix.from_strings([["-1"]])
    cert = build_trichotomy(A, 36.0, P=[[1.0]], Q=[[0.0]], N=1.0, nu=1.0)
    return GreenKernel(cert)


@pytest.fixture(scope="session")
def scalar_forcing(scalar_kernel):
    W = 35.0
    return GridFunction.from_callable(
        lambda t: np.full(np.shape(t) + (1,), 0.5), -W, W, 0.02
    )


@pytest.fixture(scope="session")
def saddle_cos_forcing(saddle_kernel):
    W = 26.7
    return GridFunction.from_callable(
        lambda t: np.stack([np.cos(t), np.cos(t)], axis=-1), -W, W, 0.02
    )


def run_cli(args) -> int:
    return cli_main([str(a) for a in args])


def read_solution_csv(path) -> GridFunction:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    t = data[:, 0]
    return GridFunction(float(t[0]), float(t[-1]), data[:, 1:])


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """One CLI solve per bundled linear problem plus the semilinear one."""
    root = tmp_path_factory.mktemp("cli_runs")
    runs = {}
    for name in ("diag_cos", "rotation", "trich_tanh", "atan_forced"):
        out = root / name
        rc = run_cli(["solve-linear", problem_path(name), "--out", out])
        runs[name] = {"rc": rc, "out": out}
    out = root / "scalar_sin"
    rc = run_cli(["solve-semilinear", problem_path("scalar_sin"), "--out", out])
    runs["scalar_sin"] = {"rc": rc, "out": out}
    return runs
