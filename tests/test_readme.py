"""The README's Python examples run as written, and its command table and
API list name what the package has."""

import importlib
import re
from pathlib import Path

import trichotomy
import trichotomy.cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python blocks"
    namespace = {}
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i + 1}", "exec"), namespace)


def test_command_table_lists_every_command():
    rows = re.findall(r"^\| `([a-z0-9-]+)`\s*\|", README.read_text(), re.M)
    assert sorted(rows) == sorted(trichotomy.cli.COMMANDS)


def test_api_surface_names_resolve():
    section = README.read_text().split("## API surface", 1)[1]
    # a call such as `GreenKernel(cert)` names GreenKernel
    names = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", section)
    for name in names:
        if name == "trichotomy" or name.startswith("trichotomy."):
            importlib.import_module(name)
    missing = [
        name for name in names
        if not name.startswith("trichotomy")
        and not hasattr(trichotomy, name) and not hasattr(trichotomy.cli, name)
    ]
    assert missing == []
    assert "certificate_to_json" in names
