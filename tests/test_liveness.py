"""Live sets and resume points against a brute-force restore-replay oracle.

For every function, every iteration and every body cycle n, the oracle
interrupts an uninterrupted interpretation at the boundary after cycle n,
keeps only the registers of ``live[resume[n]]`` (everything else turns
into a sentinel), replays from the cycle after the resume point r(n) to
the end of the function and compares the result registers with the
uninterrupted run. Each function starts from the reference state its
predecessors leave behind.

Ops read their inputs at their end cycle, so the oracle also passes when
no roll-back happens at all. Hand-built bodies with known in-flight
multi-cycle operations therefore pin the resume points themselves, and
the roll-back ``tracker.restore`` derives from them.
"""

import pytest

from dftsim import benchgen, transform, tracker as trk
from dftsim.liveness import STORE_ALL, TRACKED, TrackerSpec, live_sets, plan_trackers, resume_point
from dftsim.placement import assign_slices
from dftsim.program import (
    FunctionSchedule,
    Operation,
    Region,
    ScheduledProgram,
    _interp_region,
    _widths_map,
)
from programs import op

LOST = 0xDEADBEEF


def cycles(region, lo, hi):
    """One iteration of ``region`` that latches only the cycles [lo, hi)."""
    return region._replace(iterations=1,
                           ops=tuple(op for op in region.ops if lo <= op.end < hi))


def check_function(f, entry, widths):
    region = f.region
    table = live_sets(region, f.result_regs)
    want = dict(entry)
    _interp_region(region, want, widths)
    state = dict(entry)
    L = region.body_length
    for i in range(region.iterations):
        for n in range(L):
            _interp_region(cycles(region, n, n + 1), state, widths)
            r = table.resume[n]
            keep = table.live[r]
            got = {reg: v if reg in keep else LOST for reg, v in state.items()}
            _interp_region(cycles(region, r + 1, L), got, widths)
            _interp_region(region._replace(iterations=region.iterations - i - 1),
                           got, widths)
            for reg in sorted(f.result_regs):
                assert got[reg] == want[reg], (f.id, i, n, reg)
    assert state == want


def check_program(program):
    program = transform.normalize(program)
    widths = _widths_map(program)
    regs = {reg: v & ((1 << widths.get(reg, 32)) - 1)
            for reg, v in program.default_inputs.items()}
    for fid in program.topo_order():
        f = program.function(fid)
        check_function(f, regs, widths)
        _interp_region(f.region, regs, widths)


@pytest.mark.parametrize("name", ("float", "global", "struct"))
def test_restore_replay_presets(name):
    check_program(benchgen.preset_program(name))


@pytest.mark.parametrize("seed", range(24))
def test_restore_replay_random_small(seed):
    check_program(benchgen.generate(benchgen.random_small_shape(seed)))


# Hand-built bodies with known in-flight multi-cycle operations, and the
# resume point r(n) of every body cycle n: the earliest start among the
# operations with start <= n < end, or n itself when none spans n.
RESUME_TABLES = [
    # a spans [0, 2), b [1, 4), d [3, 5); c is single-cycle
    (Region(kind="loop", iterations=2, body_length=6, live_in=("x", "y", "k"),
            ops=(op("a", "add", ["x", "y"], "p", 0, 2),
                 op("b", "xor", ["x", "k"], "q", 1, 4),
                 op("c", "pass", ["q"], "s", 4, 4),
                 op("d", "sub", ["p", "x"], "t", 3, 5))),
     (0, 0, 1, 1, 3, 5)),
    # one operation in flight over the whole body but its last cycle
    (Region(kind="straight", iterations=1, body_length=5, live_in=("x",),
            ops=(op("m", "mul", ["x", "x"], "y", 0, 4),)),
     (0, 0, 0, 0, 4)),
    # nested spans: the outer one decides
    (Region(kind="straight", iterations=1, body_length=6, live_in=("x", "y"),
            ops=(op("o", "add", ["x", "y"], "p", 1, 5),
                 op("i", "sub", ["x", "y"], "q", 2, 3))),
     (0, 1, 1, 1, 1, 5)),
    # single-cycle operations only: nothing to roll back
    (Region(kind="loop", iterations=3, body_length=3, live_in=("x",),
            ops=(op("s", "pass", ["x"], "y", 1, 1),
                 op("t", "add", ["x", "y"], "x", 2, 2))),
     (0, 1, 2)),
]


@pytest.mark.parametrize("region,resume", RESUME_TABLES)
def test_resume_point_table(region, resume):
    assert tuple(resume_point(region, n) for n in range(region.body_length)) == resume
    assert live_sets(region).resume == resume


@pytest.mark.parametrize("region,resume", RESUME_TABLES)
def test_restore_rolls_back_to_the_resume_point(region, resume):
    L = region.body_length
    spec = TrackerSpec(iterations=region.iterations, body_length=L,
                       width=4, mode=TRACKED, ffs=15)
    for n in range(L):
        tr = trk.make_trackers({"f": spec})["f"].advance(n + 1)
        if not tr.remaining:     # a finished function has nothing to roll back
            continue
        status = tr.boundary_status()
        assert trk.snapshot({"f": tr}, {"f": status}) == {"f": n + 1}
        rolled, rollback = trk.restore({"f": tr}, {"f": status}, {"f": live_sets(region)})
        assert rollback == {"f": n - resume[n]}
        assert rolled["f"].count == (resume[n] + 1) % L
        # body cycles done: n + 1 before the restore, the resume point's
        # successor after it
        assert rolled["f"].remaining == spec.max_cycles - (resume[n] + 1)


def const_function(fid, reg, width):
    """A one-cycle straight function, so a 4-bit tracker, that writes one
    ``width``-bit register."""
    region = Region(kind="straight", iterations=1, body_length=1,
                    ops=(Operation(id=f"{fid}o", opcode="const", inputs=(), output=reg,
                                   start=0, end=0, value=1),),
                    reg_widths={reg: width})
    return FunctionSchedule(id=fid, regions=(region,), result_regs=frozenset({reg}))


def test_a_tracker_as_large_as_its_registers_stores_all():
    # a 4-bit tracker takes 15 FFs: against 15 FFs of registers that is a
    # tie, which goes to STORE_ALL and its 4 FFs of control state
    program = ScheduledProgram(functions=(const_function("F15", "a", 15),
                                          const_function("F16", "b", 16)),
                               dependencies=())
    specs = plan_trackers(program)
    assert [(s.width, s.mode, s.ffs) for s in specs.values()] == [
        (4, STORE_ALL, 4), (4, TRACKED, 15)]
    placed = assign_slices(program, specs, 8, (10, 10))
    assert placed.occupied_ffs(placed.trackers["F15"] | placed.trackers["F16"]) == 19
