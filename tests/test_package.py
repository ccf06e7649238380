"""Packaging: the simulator imports without numpy, and without
``dataclasses`` and the ``inspect`` it loads."""

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
