"""Span tracing around the public entry points of each dftsim layer.

Each wrapped entry point records its call count and its self time: the
span's duration minus the time covered by the spans it directly encloses. Spans nest through a stack, so a layer that calls
another (``powersim.run`` calling the engine, ``tracker.restore`` calling
``liveness.resume_point``) is charged only for its own work.

Names are patched where they are looked up: ``powersim`` imports most of
the set-up steps by name, ``tracker.restore`` imports ``resume_point`` at
call time, and the engine, tracker, table and placement entry points are
methods, so they are wrapped on their classes.

Set-up wrappers are installed before the programs are prepared and
simulation wrappers after, so engine calls made by the reference
execution during set-up count towards ``program.execute_reference`` and
``liveness.resume_point`` counts only the calls of the outage path.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

SETUP_POINTS = (
    # (metric name, module, attribute)
    ("benchgen.generate", "benchgen", "generate"),
    ("transform.normalize", "transform", "normalize"),
    ("program.validate", "powersim", "validate"),
    ("program.validate", "benchgen", "validate"),
    ("liveness.plan_trackers", "powersim", "plan_trackers"),
    ("liveness.live_sets", "powersim", "live_sets"),
    ("placement.assign_slices", "powersim", "assign_slices"),
    ("control_unit.build_table", "powersim", "build_table"),
    ("program.compile_program", "powersim", "compile_program"),
    ("program.execute_reference", "powersim", "execute_reference"),
    ("powersim.prepare", "powersim", "prepare"),
)

SIM_POINTS = (
    ("powersim.run", "powersim", "run"),
    ("powersim.gen_trace", "powersim", "gen_trace"),
    ("tracker.make_trackers", "tracker", "make_trackers"),
    ("tracker.can_start", "tracker", "can_start"),
    ("tracker.snapshot", "tracker", "snapshot"),
    ("tracker.restore", "tracker", "restore"),
    ("liveness.resume_point", "liveness", "resume_point"),
)

SIM_METHODS = (
    # (metric name, module, class, method)
    ("engine.region_run", "engine", "CompiledRegion", "run"),
    ("tracker.advance", "tracker", "TrackerState", "advance"),
    ("control_unit.row", "control_unit", "ControlUnitTable", "row"),
    ("placement.occupied_ffs", "placement", "Placement", "occupied_ffs"),
)

SETUP_NAMES = tuple(dict.fromkeys(p[0] for p in SETUP_POINTS))
SIM_NAMES = tuple(p[0] for p in SIM_POINTS) + tuple(m[0] for m in SIM_METHODS)
SPAN_NAMES = SETUP_NAMES + SIM_NAMES


class Tracer:
    """In-memory span statistics: name -> [calls, self_ns]."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[int]] = {name: [0, 0] for name in SPAN_NAMES}
        self.region_cycles = 0
        self._children: List[int] = []   # child time of each open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats[name]
        children = self._children
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children.append(0)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t
                child = children.pop()
                stats[0] += 1
                stats[1] += d - child
                if children:
                    children[-1] += d

        return traced

    def wrap_region_run(self, fn: Callable) -> Callable:
        """``CompiledRegion.run`` span that also sums the cycles stepped."""
        inner = self.wrap("engine.region_run", fn)
        tracer = self

        def traced(region, regs, c_lo, c_hi):
            tracer.region_cycles += c_hi - c_lo
            return inner(region, regs, c_lo, c_hi)

        return traced

    def install_setup(self) -> None:
        import dftsim
        for name, module, attr in SETUP_POINTS:
            mod = getattr(dftsim, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def install_sim(self) -> None:
        import dftsim
        for name, module, attr in SIM_POINTS:
            mod = getattr(dftsim, module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        for name, module, cls_name, method in SIM_METHODS:
            cls = getattr(getattr(dftsim, module), cls_name)
            fn = getattr(cls, method)
            if name == "engine.region_run":
                setattr(cls, method, self.wrap_region_run(fn))
            else:
                setattr(cls, method, self.wrap(name, fn))

    def report(self) -> Dict[str, float]:
        """Per-layer metrics: ``<span>.calls``, ``<span>.self_s`` and the
        engine's cycle counters."""
        out: Dict[str, float] = {}
        for name, (calls, self_ns) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        runs = self.stats["engine.region_run"][0]
        out["engine.region_run.cycles"] = self.region_cycles
        out["engine.cycles_per_call"] = self.region_cycles / runs if runs else 0.0
        return out
