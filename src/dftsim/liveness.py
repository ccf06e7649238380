"""Checkpoint-set determination, resume points, and tracker parameters.

For every body cycle n the live set holds exactly the registers whose
current values must survive a power loss observed at the boundary after
cycle n: outputs latching at n, inputs of operations still in flight
across n, and every value written at or before n that a later consumer
(or the function result, or the next loop iteration) still needs.

Restoring the live set of the resume point r(n) and replaying from there
reproduces the uninterrupted final state; tests/test_liveness.py checks
that exhaustively with a brute-force restore-replay oracle.
"""

from __future__ import annotations

from typing import Dict, List

from .placement import tracker_resources
from .program import ProgramError, Record, Region, _widths_map

TRACKED = "tracked"
STORE_ALL = "store_all"

MIN_WIDTH = 4
MAX_WIDTH = 16

# Per-function control/lock state carried by a store-all function instead
# of a counter: phase plus the two lock bits.
STORE_ALL_CONTROL_FFS = 4


class UntrackableLength(ProgramError):
    pass


class LiveSetTable(Record):
    __slots__ = ("body_length",
                 "live",        # index n: registers to preserve at cycle n
                 "resume")      # index n: r(n)


class TrackerSpec(Record):
    __slots__ = ("iterations",      # loop arbitration bound
                 "body_length",     # counter wrap bound
                 "width",           # counter bit width
                 "mode",            # TRACKED or STORE_ALL
                 "ffs")             # flip-flops placement gives the tracker

    @property
    def max_cycles(self) -> int:
        return self.iterations * self.body_length


def resume_point(region: Region, n: int) -> int:
    """Earliest start cycle among operations spanning n; n when none do."""
    if not 0 <= n < region.body_length:
        raise ValueError(f"cycle {n} outside body [0, {region.body_length})")
    spanning = [op.start for op in region.ops if op.start <= n < op.end]
    return min(spanning) if spanning else n


def live_sets(region: Region, result_regs: frozenset = frozenset()) -> LiveSetTable:
    """Compute the per-cycle live sets of one body iteration from intervals.

    Each op's output is live at its end cycle (just latched), and its
    inputs over [start, end) (feeding it while in flight). A register with
    a later consumer is live over [first, min(last, L)): ``first`` is 0 for
    a live-in and otherwise its writer's end cycle, and ``last`` is the
    latest start of an op reading it. Result registers, and the live-ins
    of a loop, have ``last`` = L: the next iteration or the function's
    successors read them. So one table serves every iteration.
    """
    L = region.body_length
    live: List[set] = [set() for _ in range(L)]
    last: Dict[str, int] = {}
    for op in region.ops:
        live[op.end].add(op.output)
        for n in range(op.start, op.end):
            live[n].update(op.inputs)
        for reg in op.inputs:
            last[reg] = max(last.get(reg, -1), op.start)
    last.update(dict.fromkeys(result_regs, L))
    if region.iterations > 1:
        last.update(dict.fromkeys(region.live_in, L))

    first = {op.output: op.end for op in region.ops}
    first.update(dict.fromkeys(region.live_in, 0))
    for reg, stop in last.items():
        for n in range(first.get(reg, L), min(stop, L)):
            live[n].add(reg)
    return LiveSetTable(body_length=L, live=tuple(map(frozenset, live)),
                        resume=tuple(resume_point(region, n) for n in range(L)))


def counter_width(fid: str, iterations: int, body_length: int) -> int:
    """Smallest supported width whose counter holds both bounds."""
    need = max(iterations, body_length)
    if need.bit_length() > MAX_WIDTH:
        raise UntrackableLength(
            f"untrackable length of {fid}: max(iterations, body_length) = {need} "
            f"exceeds the {MAX_WIDTH}-bit ceiling")
    return max(MIN_WIDTH, need.bit_length())


def plan_trackers(program) -> Dict[str, TrackerSpec]:
    """Tracker spec per function of a normalized program.

    A straight-line function tracks with one iteration and its full length
    as the wrap bound; a loop reuses the counter across iterations. When
    the tracker's flip-flops are at least those of the registers the
    function writes (at program-wide widths), storing them all on an
    outage is cheaper: ties fall to STORE_ALL, and its tracker keeps only
    STORE_ALL_CONTROL_FFS. ``ffs`` is what placement gives the tracker.
    """
    widths = _widths_map(program)
    specs: Dict[str, TrackerSpec] = {}
    for f in program.functions:
        r = f.region
        width = counter_width(f.id, r.iterations, r.body_length)
        ffs, _ = tracker_resources(width)
        mode = TRACKED
        if ffs >= sum(widths.get(op.output, 32) for op in r.ops):
            mode, ffs = STORE_ALL, STORE_ALL_CONTROL_FFS
        specs[f.id] = TrackerSpec(r.iterations, r.body_length, width, mode, ffs)
    return specs
