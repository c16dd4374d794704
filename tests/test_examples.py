"""The runnable examples keep importing and running.

Every ``examples/*.py`` is parsed and each ``repro`` import it makes is
resolved — module and imported names — so deleting or renaming a module
an example uses fails here.  The fast examples also run end to end
(``attack_detection.py`` runs in ``tests/test_security.py``;
``pac_collision_study.py`` is too slow for tier-1 and gets the import
check only).
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def repro_imports(path):
    """``(module, name)`` for each ``repro`` import in ``path``; ``name``
    is None for a plain ``import repro.x``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level == 0 and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name}.{name}"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("quickstart.py", "All four violation classes detected"),
        ("spec_overhead.py", "=== povray ==="),
    ],
)
def test_example_runs(name, expected):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO / "examples" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
