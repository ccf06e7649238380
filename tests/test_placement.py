"""Placement on flip-flop offsets at the edge of the grid."""

import pytest

from dftsim.liveness import TRACKED, TrackerSpec
from dftsim.placement import PlacementOverflow, assign_slices
from dftsim.program import FunctionSchedule, ScheduledProgram
from programs import op, straight


def writer(fid, reg, width):
    region = straight([op(f"{fid}o", "const", [], reg, 0, 0)], 1, widths={reg: width})
    return FunctionSchedule(id=fid, regions=(region,), result_regs=frozenset({reg}))


def tracker(ffs):
    return TrackerSpec(iterations=1, body_length=1, width=4, mode=TRACKED, ffs=ffs)


@pytest.mark.parametrize("F", (8, 16))
def test_a_grid_filled_exactly_places_and_one_more_ff_overflows(F):
    # registers on offsets [0, F + 4), trackers from 2F: f on [2F, 3F + 1),
    # g on [3F + 1, 4F), the last offset of a 2x2 grid
    program = ScheduledProgram(functions=(writer("g", "b", 7), writer("f", "a", F - 3)),
                               dependencies=())
    specs = {"g": tracker(F - 1), "f": tracker(F + 1)}
    placed = assign_slices(program, specs, F, (2, 2))
    assert placed.regs == {"a": 0b1, "b": 0b11}
    assert placed.trackers == {"f": 0b1100, "g": 0b1000}
    assert placed.slice_ffs == {0: F, 1: 4, 2: F, 3: F}
    with pytest.raises(PlacementOverflow, match="grid 2x2 exhausted"):
        assign_slices(program, {**specs, "g": tracker(F)}, F, (2, 2))
    # registers alone, with no tracker
    program = ScheduledProgram(functions=(writer("f", "a", F),), dependencies=())
    assert assign_slices(program, {}, F, (1, 1)).slice_ffs == {0: F}
    program = ScheduledProgram(functions=(writer("f", "a", F + 1),), dependencies=())
    with pytest.raises(PlacementOverflow, match="grid 1x1 exhausted"):
        assign_slices(program, {}, F, (1, 1))
