"""Synthetic deterministic placement and the hardware resource tables.

Real toolchains assign registers to SLICEs during synthesis; here plain
arithmetic fabricates reproducible addresses instead, so address tables
and BRAM accounting are stable across runs. The flip-flops are numbered
in fill order, F = ``ffs_per_slice`` to a SLICE: offset ``o`` is in SLICE
``o // F``. Registers take consecutive offsets, function by function in
(function id, register id) order; the trackers follow from the next
multiple of F, in SLICEs of their own, because the tracker region is
stored wholesale on every outage and must not drag registers along.

A set of SLICEs is an integer mask: bit ``i`` is SLICE
``(i % grid_w, i // grid_w)``, so SLICEs fill in row-major grid order.
The SLICEs of one register or tracker, offsets [lo, hi), are the run of
bits lo // F up to ceil(hi / F), and a union of SLICE sets is an OR.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Mapping, Tuple

from .program import ProgramError, ScheduledProgram, _widths_map

# Measured tracker LUTs per counter width; wider trackers saturate at 110.
_TRACKER_LUTS: Dict[int, int] = {4: 90, 5: 102, 6: 102, 7: 102, 8: 102}

# Control-unit cost per tracker width (FF, LUT, BRAM). Widths below 8 keep
# the address table in logic, hence zero BRAMs and the FF/LUT step at 8.
_CU_TABLE: Dict[int, Tuple[int, int, int]] = {
    4: (52, 138, 0), 5: (52, 142, 0), 6: (52, 150, 0),
    7: (52, 166, 0), 8: (36, 134, 2), 9: (36, 134, 2),
}

CHIP_FFS = 106400
CHIP_LUTS = 53200
CHIP_BRAMS = 280
CHIP_SLICES = 13300


class PlacementOverflow(ProgramError):
    pass


def tracker_resources(width: int) -> Tuple[int, int]:
    """(flip-flops, LUTs) of one tracker at the given counter width: 15
    FFs at width 4, and 3 more per bit, as measured up to width 9."""
    if not 4 <= width <= 16:
        raise ValueError(f"tracker width {width} outside 4..16")
    return 15 + 3 * (width - 4), _TRACKER_LUTS.get(width, 110)


def cu_resources(width: int) -> Tuple[int, int, int]:
    """(flip-flops, LUTs, BRAMs) of a one-tracker control unit."""
    if width not in _CU_TABLE:
        raise ValueError(f"control-unit width {width} outside 4..9")
    return _CU_TABLE[width]


def slice_xy(mask: int, grid_w: int) -> List[Tuple[int, int]]:
    """(x, y) of every SLICE in a mask, in ascending bit order."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    return [(i % grid_w, i // grid_w) for i, b in enumerate(bits) if b == "1"]


class Placement:
    """Flip-flop hosting of every register and every tracker, as SLICE
    masks; ``slice_ffs`` maps each occupied SLICE's index to the
    flip-flops used in it. ``__dict__`` holds what ``cached_property``
    caches."""

    __slots__ = ("ffs_per_slice", "grid_w", "regs", "trackers", "slice_ffs", "__dict__")

    def __init__(self, ffs_per_slice: int, grid_w: int, regs: Dict[str, int],
                 trackers: Dict[str, int], slice_ffs: Dict[int, int]):
        self.ffs_per_slice = ffs_per_slice
        self.grid_w = grid_w
        self.regs = regs
        self.trackers = trackers
        self.slice_ffs = slice_ffs

    @cached_property
    def _shortfalls(self) -> Tuple[Tuple[int, int], ...]:
        """(SLICE bit, flip-flops short of ffs_per_slice) of each partly
        filled SLICE."""
        full = self.ffs_per_slice
        return tuple((1 << i, full - n) for i, n in self.slice_ffs.items() if n < full)

    def occupied_ffs(self, mask: int) -> int:
        """Flip-flops used in the SLICEs of a mask of occupied SLICEs."""
        ffs = mask.bit_count() * self.ffs_per_slice
        for bit, short in self._shortfalls:
            if mask & bit:
                ffs -= short
        return ffs

    def dump(self) -> str:
        """Text form for diffing: one line per register, then per tracker."""
        lines = []
        for kind, masks in (("reg", self.regs), ("tracker", self.trackers)):
            for name in sorted(masks):
                addrs = ",".join(f"X{x}Y{y}" for x, y in slice_xy(masks[name], self.grid_w))
                lines.append(f"{kind} {name} -> {addrs}")
        return "\n".join(lines) + "\n"


def _place(ffs: Mapping[str, int], offset: int, F: int) -> Tuple[Dict[str, int], int]:
    """Mask of each name's run of ``ffs[name]`` offsets, taken in order
    from ``offset``, and the offset after the last run."""
    masks: Dict[str, int] = {}
    for name, n in ffs.items():
        masks[name] = (1 << -(-(offset + n) // F)) - (1 << offset // F)
        offset += n
    return masks, offset


def assign_slices(program: ScheduledProgram, specs: Mapping, ffs_per_slice: int,
                  grid: Tuple[int, int]) -> Placement:
    """Registers, then trackers, on consecutive flip-flop offsets.

    Functions go in id order. Each places the registers it writes, sorted,
    then the external live-ins it declares first, sorted, so every register
    that can appear in a checkpoint set has an address; a register takes
    as many offsets as the width the program declares for it in any region
    (32 when none). The trackers, in function-id order, start at the next
    multiple of ``ffs_per_slice`` and each takes ``specs[fid].ffs``
    offsets, the flip-flops ``liveness.plan_trackers`` chose for it.
    """
    if ffs_per_slice not in (8, 16):
        raise ValueError("ffs_per_slice must be 8 or 16")
    F = ffs_per_slice
    widths = _widths_map(program)
    written = {op.output for f in program.functions for op in f.region.ops}
    reg_ffs: Dict[str, int] = {}
    for f in sorted(program.functions, key=lambda f: f.id):
        external = set(f.region.live_in) - written
        for reg in sorted({op.output for op in f.region.ops}) + sorted(external):
            reg_ffs.setdefault(reg, widths.get(reg, 32))
    regs, regs_end = _place(reg_ffs, 0, F)
    start = -(-regs_end // F) * F   # trackers never share SLICEs with registers
    trackers, end = _place({fid: specs[fid].ffs for fid in sorted(specs)}, start, F)
    if end > grid[0] * grid[1] * F:
        raise PlacementOverflow(f"placement overflow: grid {grid[0]}x{grid[1]} exhausted")
    slice_ffs = {i: min(F, hi - i * F) for lo, hi in ((0, regs_end), (start, end))
                 for i in range(lo // F, -(-hi // F))}
    return Placement(ffs_per_slice=F, grid_w=grid[0], regs=regs, trackers=trackers,
                     slice_ffs=slice_ffs)
