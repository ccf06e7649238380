"""Packaging: the simulator imports without numpy, and without
``dataclasses`` and the ``inspect`` it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dftsim; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_dataclasses_out():
    # the record types are built without a per-class exec
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, dftsim; print('dataclasses' in sys.modules, 'inspect' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def unused_imports(path):
    """The names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":    # from __future__
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports to re-export
    found = {path.name: unused_imports(path)
             for path in sorted((SRC / "dftsim").glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
