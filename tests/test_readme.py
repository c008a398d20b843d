"""The README's Python examples run as written, and its command table and
API list name what the package has."""

import importlib
import re
from pathlib import Path

import trichotomy
import trichotomy.cli

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python blocks"
    namespace = {}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), namespace)


def test_command_table_lists_every_command():
    rows = re.findall(r"^\| `([a-z0-9-]+)`\s*\|", README.read_text(), re.M)
    assert sorted(rows) == sorted(trichotomy.cli.COMMANDS)


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_api_surface_names_resolve():
    section = README.read_text().split("## API surface", 1)[1]
    # a call such as `GreenKernel(cert)` names GreenKernel; a dotted name
    # such as `TransitionOperator.solve_legs` names a method
    names = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", section)
    for name in names:
        if name == "trichotomy" or name.startswith("trichotomy."):
            importlib.import_module(name)
    missing = [
        name for name in names
        if not name.startswith("trichotomy")
        and not _resolves(trichotomy, name) and not _resolves(trichotomy.cli, name)
    ]
    assert missing == []
    assert "certificate_to_json" in names
    assert {"TransitionOperator.solve_legs", "MagnusLeg", "expm"} <= set(names)


def _requirement_names(block: str) -> list:
    return sorted(re.findall(r'"([A-Za-z0-9_-]+)', block))


def test_dependency_paragraph_matches_the_package_metadata():
    pyproject = PYPROJECT.read_text()
    runtime = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    test = re.search(r"^test = \[(.*?)\]", pyproject, re.M).group(1)
    line = re.search(r"^Dependencies: (.*?)\. Tests additionally need (.*?) \(", README.read_text(),
                     re.M | re.S)
    listed = [re.split(r",\s*|\s+and\s+", group.replace("\n", " ")) for group in line.groups()]
    assert sorted(listed[0]) == _requirement_names(runtime)
    assert sorted(listed[1]) == _requirement_names(test)
    assert "scipy" not in listed[0]
