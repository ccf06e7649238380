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

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .placement import tracker_resources
from .program import ProgramError, Region, _widths_map

TRACKED = "tracked"
STORE_ALL = "store_all"

MIN_WIDTH = 4
MAX_WIDTH = 16

# Per-function control/lock state carried by a store-all function instead
# of a counter: phase plus the two lock bits.
STORE_ALL_CONTROL_FFS = 4

_INF = 1 << 60


class UntrackableLength(ProgramError):
    pass


@dataclass(frozen=True)
class LiveSetTable:
    body_length: int
    live: Tuple[frozenset, ...]    # index n: registers to preserve at cycle n
    resume: Tuple[int, ...]        # index n: r(n)


@dataclass(frozen=True)
class TrackerSpec:
    iterations: int                # loop arbitration bound
    body_length: int               # counter wrap bound
    width: int                     # counter bit width
    mode: str                      # TRACKED or STORE_ALL
    ffs: int                       # flip-flops placement gives the tracker

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
    """Compute the per-cycle live sets of one body iteration.

    The table is iteration-invariant: loop-carried live-ins keep a virtual
    consumer beyond the body (their latest value seeds the next iteration),
    as do the function's result registers, so one table serves every
    iteration of the loop.
    """
    L = region.body_length
    writer_end: Dict[str, int] = {op.output: op.end for op in region.ops}

    last_start: Dict[str, int] = {}
    for op in region.ops:
        for reg in op.inputs:
            last_start[reg] = max(last_start.get(reg, -1), op.start)
    for reg in result_regs:
        last_start[reg] = _INF
    if region.iterations > 1:
        for reg in region.live_in:
            last_start[reg] = _INF

    live: List[frozenset] = []
    resume: List[int] = []
    live_in = set(region.live_in)
    for n in range(L):
        s = set()
        for op in region.ops:
            if op.end == n:
                s.add(op.output)                       # just latched
            if op.start <= n < op.end:
                s.update(op.inputs)                    # feeding an in-flight op
        for reg, last in last_start.items():
            if last <= n:
                continue
            written_by = writer_end.get(reg)
            if reg in live_in or (written_by is not None and written_by <= n):
                s.add(reg)                             # live across cycle n
        live.append(frozenset(s))
        resume.append(resume_point(region, n))
    return LiveSetTable(body_length=L, live=tuple(live), resume=tuple(resume))


def counter_width(iterations: int, body_length: int) -> int:
    """Smallest supported width whose counter holds both bounds."""
    need = max(iterations, body_length)
    for width in range(MIN_WIDTH, MAX_WIDTH + 1):
        if (2 ** width - 1) >= need:
            return width
    raise UntrackableLength(
        f"untrackable length: max(iterations, body_length) = {need} "
        f"exceeds the {MAX_WIDTH}-bit ceiling")


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
        width = counter_width(r.iterations, r.body_length)
        ffs, _ = tracker_resources(width)
        mode = TRACKED
        if ffs >= sum(widths.get(op.output, 32) for op in r.ops):
            mode, ffs = STORE_ALL, STORE_ALL_CONTROL_FFS
        specs[f.id] = TrackerSpec(r.iterations, r.body_length, width, mode, ffs)
    return specs
