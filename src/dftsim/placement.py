"""Synthetic deterministic placement and the hardware resource tables.

Real toolchains assign registers to SLICEs during synthesis; here a greedy
packer fabricates reproducible addresses instead, so address tables and
BRAM accounting are stable across runs. Registers are packed
function-by-function in (function id, register id) order, filling SLICEs
in row-major grid order; tracker flip-flops go to dedicated SLICEs after
all program registers, because the tracker region is stored wholesale on
every outage and must not drag program registers along.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

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


@dataclass(frozen=True, order=True)
class SliceAddress:
    x: int
    y: int

    def __str__(self) -> str:
        return f"X{self.x}Y{self.y}"


@dataclass(frozen=True)
class ResourceModel:
    chip_ffs: int = CHIP_FFS
    chip_luts: int = CHIP_LUTS
    chip_brams: int = CHIP_BRAMS
    chip_slices: int = CHIP_SLICES

    def tracker_resources(self, width: int) -> Tuple[int, int]:
        """(flip-flops, LUTs) of one tracker at the given counter width."""
        if width in _TRACKER_TABLE:
            return _TRACKER_TABLE[width]
        if 10 <= width <= 16:
            return (15 + 3 * (width - 4), 110)
        raise ValueError(f"tracker width {width} outside 4..16")

    def cu_resources(self, width: int) -> Tuple[int, int, int]:
        """(flip-flops, LUTs, BRAMs) of a one-tracker control unit."""
        if width not in _CU_TABLE:
            raise ValueError(f"control-unit width {width} outside 4..9")
        return _CU_TABLE[width]


@dataclass
class Placement:
    """Flip-flop hosting of every register and every tracker."""

    ffs_per_slice: int
    grid_w: int
    grid_h: int
    regs: Dict[str, Tuple[SliceAddress, ...]] = field(default_factory=dict)
    trackers: Dict[str, Tuple[SliceAddress, ...]] = field(default_factory=dict)
    slice_ffs: Dict[SliceAddress, int] = field(default_factory=dict)

    def occupied_ffs(self, slices) -> int:
        return sum(self.slice_ffs.get(s, 0) for s in slices)

    def slice_mask(self, slices) -> int:
        """Bitmask of SLICEs: bit y * grid_w + x, the packing order."""
        w = self.grid_w
        mask = 0
        for a in slices:
            mask |= 1 << (a.y * w + a.x)
        return mask

    def dump(self) -> str:
        """Text form for diffing: one line per register, then per tracker."""
        lines = []
        for reg in sorted(self.regs):
            addrs = ",".join(str(a) for a in self.regs[reg])
            lines.append(f"reg {reg} -> {addrs}")
        for fid in sorted(self.trackers):
            addrs = ",".join(str(a) for a in self.trackers[fid])
            lines.append(f"tracker {fid} -> {addrs}")
        return "\n".join(lines) + "\n"


class _Packer:
    def __init__(self, ffs_per_slice: int, grid_w: int, grid_h: int):
        self.ffs_per_slice = ffs_per_slice
        self.grid_w = grid_w
        self.grid_h = grid_h
        self.slice_idx = 0
        self.used_in_slice = 0
        self.fills: Dict[SliceAddress, int] = {}

    def _addr(self, idx: int) -> SliceAddress:
        if idx >= self.grid_w * self.grid_h:
            raise PlacementOverflow(
                f"placement overflow: grid {self.grid_w}x{self.grid_h} exhausted")
        return SliceAddress(x=idx % self.grid_w, y=idx // self.grid_w)

    def fresh_slice(self) -> None:
        if self.used_in_slice > 0:
            self.slice_idx += 1
            self.used_in_slice = 0

    def place(self, n_ffs: int) -> Tuple[SliceAddress, ...]:
        addrs = []
        remaining = n_ffs
        while remaining > 0:
            room = self.ffs_per_slice - self.used_in_slice
            if room == 0:
                self.slice_idx += 1
                self.used_in_slice = 0
                room = self.ffs_per_slice
            take = min(room, remaining)
            addr = self._addr(self.slice_idx)
            addrs.append(addr)
            self.fills[addr] = self.fills.get(addr, 0) + take
            self.used_in_slice += take
            remaining -= take
        return tuple(addrs)


def assign_slices(program: ScheduledProgram, specs: Mapping, ffs_per_slice: int = 8,
                  grid: Tuple[int, int] = (100, 100)) -> Placement:
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
    model = ResourceModel()

    placed: Dict[str, Tuple[SliceAddress, ...]] = {}
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
    trackers: Dict[str, Tuple[SliceAddress, ...]] = {}
    for fid in sorted(specs):
        spec = specs[fid]
        if spec.mode == "tracked":
            ffs, _ = model.tracker_resources(spec.width)
        else:
            ffs = STORE_ALL_CONTROL_FFS
        trackers[fid] = packer.place(ffs)

    return Placement(
        ffs_per_slice=ffs_per_slice, grid_w=grid[0], grid_h=grid[1],
        regs=placed, trackers=trackers,
        slice_ffs=dict(packer.fills))
