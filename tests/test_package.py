"""Package surface: every exported name resolves; no module or command loads scipy."""

import ast
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


def _scipy_imports(tree):
    """Line of every absolute scipy import in a module, at any depth."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    package_dir = Path(trichotomy.__file__).resolve().parent
    found = [
        f"{path.relative_to(package_dir)}:{line}"
        for path in sorted(package_dir.rglob("*.py"))
        for line in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


SCIPY_PROBE = textwrap.dedent(
    """
    import sys
    from pathlib import Path

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = Path(sys.argv[1])
    import trichotomy.cli as cli
    assert scipy_modules() == [], scipy_modules()
    # constant A (closed form), then time-dependent A (Magnus legs)
    for command, problem, code in (("solve-linear", "diag_cos", 0),
                                   ("solve-semilinear", "scalar_sin", 0),
                                   ("solve-linear", "rotation", 0),
                                   ("check-trichotomy", "trich_tanh", 0),
                                   ("check-dichotomy", "arctan", 2)):
        assert cli.main([command, problem, "--out", str(out / problem)]) == code
        assert scipy_modules() == [], (problem, scipy_modules())
    print("ok")
    """
)


def test_no_command_imports_scipy(tmp_path):
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
