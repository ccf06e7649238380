"""Live sets and resume points against a brute-force restore-replay oracle.

For every function, every iteration and every body cycle n, the oracle
interrupts an uninterrupted interpretation at the boundary after cycle n,
keeps only the registers of ``live[resume[n]]`` (everything else turns
into a sentinel), replays from the cycle after the resume point r(n) to
the end of the function and compares the result registers with the
uninterrupted run. Each function starts from the reference state its
predecessors leave behind.
"""

from dataclasses import replace

import pytest

from dftsim import benchgen, transform
from dftsim.liveness import live_sets
from dftsim.program import _interp_region, _widths_map

LOST = 0xDEADBEEF


def cycles(region, lo, hi):
    """One iteration of ``region`` that latches only the cycles [lo, hi)."""
    return replace(region, iterations=1,
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
            _interp_region(replace(region, iterations=region.iterations - i - 1),
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
