"""Offset-partitioned address table mapping tracker statuses to SLICEs.

The table is the preloaded lookup structure a restore controller walks on
power loss: a tracker-region entry listing the SLICEs hosting tracker
state (always stored), and per tracker a contiguous block of rows indexed
by status. Row ``base + 0`` is reserved as the zero/no-action row; row
``base + s`` holds the SLICE addresses covering the live set of the
resume point of completed-cycle boundary ``s``. Store-all functions get a
single row with all of their SLICEs. Each tracker also carries a result
row used to hold a finished function's outputs until the program ends.

Every SLICE set here (the tracker region and each row) is a SLICE mask in
``placement``'s convention: bit ``i`` is SLICE ``(i % grid_w, i // grid_w)``.
The binary form lists each row's SLICEs sorted by ``(x, y)``.

Storage accounting treats the table as a packed address pool plus a
(start, length) directory, 32 bits per entry either way; tables whose
widest tracked counter stays below 8 bits are folded into logic and cost
no BRAM, which is what synthesis does to small lookup structures.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Mapping, Tuple

import struct

from .liveness import LiveSetTable, TrackerSpec, TRACKED
from .placement import Placement, slice_xy
from .program import ProgramError, Record, ScheduledProgram

BRAM_BITS = 18432          # one block RAM holds 18 Kb
ENTRY_BITS = 32            # two 16-bit coordinates per address
DIRECTORY_BITS = 32        # 16-bit start + 16-bit length per row


class ControlUnitError(ProgramError):
    pass


class UnplacedRegisterError(ControlUnitError):
    pass


class ControlUnitTable(Record):
    __slots__ = ("tracker_region",  # SLICE mask
                 # tracker -> its rows in table order, SLICE masks: the zero
                 # row, one row per status, then the result-hold row
                 "blocks",
                 "table_width",     # widest tracked counter, 0 if none
                 "grid_w")          # grid width of the SLICE masks

    def row(self, fid: str, status: int) -> int:
        block = self.blocks[fid]
        if not 0 <= status < len(block) - 1:
            raise ControlUnitError(
                f"corrupt status {status} for {fid}: row range is [0, {len(block) - 2}]")
        return block[status]

    def result_row(self, fid: str) -> int:
        return self.blocks[fid][-1]

    @property
    def n_rows(self) -> int:
        # tracker region directory entry + rows
        return 1 + sum(map(len, self.blocks.values()))

    @property
    def pool_entries(self) -> int:
        return self.tracker_region.bit_count() + sum(
            row.bit_count() for block in self.blocks.values() for row in block)

    @property
    def total_bits(self) -> int:
        return DIRECTORY_BITS * self.n_rows + ENTRY_BITS * self.pool_entries


def build_table(program: ScheduledProgram, specs: Mapping[str, TrackerSpec],
                placement: Placement,
                live_tables: Mapping[str, LiveSetTable]) -> ControlUnitTable:
    """Assemble the address table from live sets and placement.

    Tracked function, status s in [1, body_length]: SLICEs of the live set
    at resume_point(s - 1). Store-all function: one row with every SLICE
    the function touches. Every function: a result row with the SLICEs of
    its result registers.
    """

    def slices_of(regs) -> int:
        out = 0
        for reg in regs:
            mask = placement.regs.get(reg)
            if mask is None:
                raise UnplacedRegisterError(f"unplaced register {reg}")
            out |= mask
        return out

    tracker_region = 0
    for mask in placement.trackers.values():
        tracker_region |= mask

    blocks: Dict[str, Tuple[int, ...]] = {}
    width = 0
    for f in program.functions:
        spec = specs[f.id]
        table = live_tables[f.id]
        if spec.mode == TRACKED:
            width = max(width, spec.width)
            rows = [slices_of(table.live[table.resume[status - 1]])
                    for status in range(1, spec.body_length + 1)]
        else:
            region = f.region
            rows = [slices_of(set(region.written_regs()) | set(region.live_in))]
        # the zero row (no action), the status rows, the result row
        blocks[f.id] = (0, *rows, slices_of(f.result_regs))

    return ControlUnitTable(tracker_region=tracker_region, blocks=blocks,
                            table_width=width, grid_w=placement.grid_w)


def lookup(table: ControlUnitTable, statuses: Mapping[str, int]) -> int:
    """SLICE mask to store for a snapshot: tracker region plus each
    nonzero tracker's row."""
    out = table.tracker_region
    for fid, status in statuses.items():
        if status:
            out |= table.row(fid, status)
    return out


def bram_usage(table: ControlUnitTable) -> int:
    """Block RAMs consumed by the table under the packed layout.

    A table indexed by counters narrower than 8 bits lives in logic (cost
    reported as zero); otherwise directory and pool bits fill 18 Kb blocks.
    """
    if table.table_width < 8:
        return 0
    return -(-table.total_bits // BRAM_BITS)


def serialize_table(table: ControlUnitTable) -> bytes:
    """Binary form: directory then pool, little-endian throughout.

    Header: u32 row count (tracker region first), u32 pool entry count.
    Directory: per row, u16 pool start + u16 length.
    Pool: per address, u16 x + u16 y, each row sorted by (x, y).

    Raises ControlUnitError naming the first field above 65535.
    """
    pool: List[Tuple[int, int]] = []
    directory: List[Tuple[int, int]] = []
    for row in (table.tracker_region, *chain.from_iterable(table.blocks.values())):
        addrs = sorted(slice_xy(row, table.grid_w))
        directory.append((len(pool), len(addrs)))
        pool.extend(addrs)
    out = [struct.pack("<II", len(directory), len(pool))]
    for kind, fields, entries in (("row", ("pool start", "length"), directory),
                                  ("pool entry", ("x", "y"), pool)):
        for i, entry in enumerate(entries):
            for name, value in zip(fields, entry):
                if value > 0xFFFF:
                    raise ControlUnitError(
                        f"address table too large for its binary form: {kind} {i} "
                        f"has {name} {value}, above 65535")
            out.append(struct.pack("<HH", *entry))
    return b"".join(out)
