"""Every entry point the benchmark's tracer wraps still resolves.

``perfbench/spans.py`` patches dftsim functions and methods by name; a
rename in dftsim would silently drop a layer from the per-layer report or
break the traced run, so the names are checked here.
"""

import importlib.util
from pathlib import Path

import dftsim

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = load_spans()
    for name, module, attr in spans.SETUP_POINTS + spans.SIM_POINTS:
        assert callable(getattr(getattr(dftsim, module), attr, None)), name
    for name, module, cls, method in spans.SIM_METHODS:
        assert callable(getattr(getattr(getattr(dftsim, module), cls), method, None)), name
    assert dftsim.KERNEL_NAME in ("compiled", "python")
