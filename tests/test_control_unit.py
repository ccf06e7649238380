"""Address table: the status -> SLICE lookup, the ``dft`` store set built
on it in ``powersim.store_set``, and the binary layout."""

import struct

import pytest

from dftsim import benchgen, powersim, transform
from dftsim.control_unit import ControlUnitError, ControlUnitTable, lookup, serialize_table
from dftsim.liveness import TRACKED

GRID_W = 400


def at(x, y):
    """SLICE mask of the one SLICE (x, y) on a GRID_W-wide grid."""
    return 1 << (y * GRID_W + x)


def small_table():
    """Tracker f: zero row, one status row, one result row. The tracker
    region sits at x = 300, which needs both bytes of a u16."""
    return ControlUnitTable(
        tracker_region=at(300, 2),
        offsets={"f": 0},
        rows=(0, at(0, 0) | at(1, 0), at(1, 0)),
        status_rows={"f": 1},
        result_rows={"f": 2},
        table_width=4,
        grid_w=GRID_W)


def test_serialize_table_layout():
    blob = serialize_table(small_table())
    # header <II: 4 rows (tracker region first), 4 pool entries
    # directory <HH per row: (start, length)
    # pool <HH per address: (x, y)
    assert blob == bytes.fromhex(
        "04000000" "04000000"
        "00000100" "01000000" "01000200" "03000100"
        "2c010200" "00000000" "01000000" "01000000")
    rows, pool = struct.unpack_from("<II", blob, 0)
    directory = [struct.unpack_from("<HH", blob, 8 + 4 * i) for i in range(rows)]
    base = 8 + 4 * rows
    addrs = [struct.unpack_from("<HH", blob, base + 4 * i) for i in range(pool)]
    assert len(blob) == base + 4 * pool
    assert [tuple(addrs[s:s + n]) for s, n in directory] == [
        ((300, 2),), (), ((0, 0), (1, 0)), ((1, 0),)]


def test_lookup_stores_the_tracker_region_and_nonzero_rows():
    table = small_table()
    assert lookup(table, {"f": 0}) == at(300, 2)
    assert lookup(table, {"f": 1}) == at(300, 2) | at(0, 0) | at(1, 0)
    with pytest.raises(ControlUnitError):
        lookup(table, {"f": 2})


def slice_indices(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def reference_store_set(prep, fid, status, done):
    """(FFs stored, SLICEs stored, lost register indices) of one tracker's
    status, from the live sets and the placement alone: the live set at
    the status's resume point (every register of a store-all function),
    the result registers of the finished functions, and the tracker
    region."""
    placement = prep.placement
    regs = set()
    if status:
        if prep.specs[fid].mode == TRACKED:
            table = prep.live_tables[fid]
            regs |= table.live[table.resume[status - 1]]
        else:
            region = prep.program.function(fid).region
            regs |= set(region.written_regs()) | set(region.live_in)
    for f in done:
        regs |= prep.program.function(f).result_regs
    stored = set()
    for mask in placement.trackers.values():
        stored |= slice_indices(mask)
    for reg in regs:
        stored |= slice_indices(placement.regs[reg])
    index = prep.compiled.reg_index
    lost = tuple(index[reg] for reg, mask in placement.regs.items()
                 if not slice_indices(mask) <= stored)
    return sum(placement.slice_ffs[i] for i in stored), len(stored), lost


@pytest.mark.parametrize("name", ("float", "global", "struct"))
def test_store_set_masks_match_the_lookup(name):
    # every status of every function, alone, with no function finished
    # and with every other one finished
    prep = powersim.prepare(transform.normalize(benchgen.preset_program(name)))
    for fid in prep.order:
        others = tuple(f for f in prep.order if f != fid)
        spec = prep.specs[fid]
        for status in range(spec.body_length + 1 if spec.mode == TRACKED else 2):
            for done in ((), others):
                assert powersim.store_set(prep, {fid: status}, done) == \
                    reference_store_set(prep, fid, status, done), (fid, status, done)


@pytest.mark.parametrize("status", (-1, "past"))
def test_store_set_rejects_a_corrupt_status(status):
    prep = powersim.prepare(transform.normalize(benchgen.preset_program("float")))
    fid = prep.order[0]
    if status == "past":
        status = prep.table.status_rows[fid] + 1
    with pytest.raises(ControlUnitError, match=f"corrupt status {status} for {fid}"):
        powersim.store_set(prep, {fid: status}, ())
