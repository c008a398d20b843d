"""Package surface: every exported name resolves; scipy loads only for RK45."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import trichotomy

MODULES = ["trichotomy"] + [
    f"trichotomy.{m.name}" for m in pkgutil.iter_modules(trichotomy.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


SCIPY_PROBE = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = Path(sys.argv[1])
    import trichotomy.cli as cli
    assert scipy_modules() == [], scipy_modules()
    for command, problem in (("solve-linear", "diag_cos"), ("solve-semilinear", "scalar_sin")):
        assert cli.main([command, problem, "--out", str(out / problem)]) == 0
        assert scipy_modules() == [], (problem, scipy_modules())
    # time-dependent A: RK45 legs import scipy.integrate on first use
    assert cli.main(["solve-linear", "rotation", "--out", str(out / "rotation")]) == 0
    assert "scipy.integrate" in sys.modules
    print("ok")
    """
)


def test_constant_coefficient_runs_never_import_scipy(tmp_path):
    package_dir = Path(trichotomy.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_dir.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
