"""Synthetic deterministic placement and the hardware resource tables.

Real toolchains assign registers to SLICEs during synthesis; here a greedy
packer fabricates reproducible addresses instead, so address tables and
BRAM accounting are stable across runs. Registers are packed
function-by-function in (function id, register id) order, filling SLICEs
in row-major grid order; tracker flip-flops go to dedicated SLICEs after
all program registers, because the tracker region is stored wholesale on
every outage and must not drag program registers along.

A set of SLICEs is an integer mask: bit ``i`` is SLICE
``(i % grid_w, i // grid_w)``, which is also the order in which the packer
fills them. So the SLICEs of one register or tracker are a run of
consecutive bits, and a union of SLICE sets is an OR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Tuple

from .program import ProgramError, ScheduledProgram

# Measured tracker cost per counter width (flip-flops, LUTs). Widths past
# the measured range extrapolate the FF column's +3/bit slope; LUT usage
# saturates at 110.
_TRACKER_TABLE: Dict[int, Tuple[int, int]] = {
    4: (15, 90), 5: (18, 102), 6: (21, 102),
    7: (24, 102), 8: (27, 102), 9: (30, 110),
}

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

# Per-function control/lock state carried by a store-all function instead
# of a counter: phase plus the two lock bits.
STORE_ALL_CONTROL_FFS = 4


class PlacementOverflow(ProgramError):
    pass


def tracker_resources(width: int) -> Tuple[int, int]:
    """(flip-flops, LUTs) of one tracker at the given counter width."""
    if width in _TRACKER_TABLE:
        return _TRACKER_TABLE[width]
    if 10 <= width <= 16:
        return (15 + 3 * (width - 4), 110)
    raise ValueError(f"tracker width {width} outside 4..16")


def cu_resources(width: int) -> Tuple[int, int, int]:
    """(flip-flops, LUTs, BRAMs) of a one-tracker control unit."""
    if width not in _CU_TABLE:
        raise ValueError(f"control-unit width {width} outside 4..9")
    return _CU_TABLE[width]


def slice_xy(mask: int, grid_w: int) -> List[Tuple[int, int]]:
    """(x, y) of every SLICE in a mask, in ascending bit order."""
    bits = bin(mask)[:1:-1]  # bit 0 first
    return [(i % grid_w, i // grid_w) for i, b in enumerate(bits) if b == "1"]


@dataclass
class Placement:
    """Flip-flop hosting of every register and every tracker, as SLICE
    masks; ``slice_ffs`` maps each occupied SLICE's index to the
    flip-flops used in it."""

    ffs_per_slice: int
    grid_w: int
    regs: Dict[str, int] = field(default_factory=dict)
    trackers: Dict[str, int] = field(default_factory=dict)
    slice_ffs: Dict[int, int] = field(default_factory=dict)

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


class _Packer:
    def __init__(self, ffs_per_slice: int, grid_w: int, grid_h: int):
        self.ffs_per_slice = ffs_per_slice
        self.grid_w = grid_w
        self.grid_h = grid_h
        self.slice_idx = 0
        self.used_in_slice = 0
        self.fills: Dict[int, int] = {}

    def fresh_slice(self) -> None:
        if self.used_in_slice > 0:
            self.slice_idx += 1
            self.used_in_slice = 0

    def place(self, n_ffs: int) -> int:
        """Mask of the SLICEs that take the next ``n_ffs`` flip-flops."""
        mask = 0
        remaining = n_ffs
        while remaining > 0:
            room = self.ffs_per_slice - self.used_in_slice
            if room == 0:
                self.slice_idx += 1
                self.used_in_slice = 0
                room = self.ffs_per_slice
            idx = self.slice_idx
            if idx >= self.grid_w * self.grid_h:
                raise PlacementOverflow(
                    f"placement overflow: grid {self.grid_w}x{self.grid_h} exhausted")
            take = min(room, remaining)
            mask |= 1 << idx
            self.fills[idx] = self.fills.get(idx, 0) + take
            self.used_in_slice += take
            remaining -= take
        return mask


def assign_slices(program: ScheduledProgram, specs: Mapping, ffs_per_slice: int,
                  grid: Tuple[int, int]) -> Placement:
    """Deterministic greedy packing of registers, then trackers.

    ``specs`` maps function id to its TrackerSpec; tracker flip-flop counts
    come from the resource table (store-all functions keep only their
    control/lock state). External live-ins bound at run time are placed
    with the first function declaring them, so every register that can
    appear in a checkpoint set has an address.
    """
    if ffs_per_slice not in (8, 16):
        raise ValueError("ffs_per_slice must be 8 or 16")
    packer = _Packer(ffs_per_slice, grid[0], grid[1])

    placed: Dict[str, int] = {}
    writer_fn = {}
    for f in program.functions:
        for op in f.region.ops:
            writer_fn[op.output] = f.id

    for f in sorted(program.functions, key=lambda f: f.id):
        region = f.region
        own = sorted({op.output for op in region.ops})
        external = sorted(reg for reg in region.live_in
                          if reg not in writer_fn and reg not in placed)
        for reg in own + external:
            if reg not in placed:
                placed[reg] = packer.place(region.reg_widths.get(reg, 32))

    packer.fresh_slice()  # trackers never share SLICEs with registers
    trackers: Dict[str, int] = {}
    for fid in sorted(specs):
        spec = specs[fid]
        if spec.mode == "tracked":
            ffs, _ = tracker_resources(spec.width)
        else:
            ffs = STORE_ALL_CONTROL_FFS
        trackers[fid] = packer.place(ffs)

    return Placement(
        ffs_per_slice=ffs_per_slice, grid_w=grid[0], regs=placed, trackers=trackers,
        slice_ffs=dict(packer.fills))
