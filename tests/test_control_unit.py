"""Address table: the status -> SLICE lookup, its bitmask form in
``powersim.store_set``, and the binary layout."""

import struct

import pytest

from dftsim import benchgen, powersim, transform
from dftsim.control_unit import ControlUnitError, ControlUnitTable, lookup, serialize_table
from dftsim.placement import SliceAddress as A


def small_table():
    """Tracker f: zero row, one status row, one result row. The tracker
    region sits at x = 300, which needs both bytes of a u16."""
    return ControlUnitTable(
        tracker_region=(A(300, 2),),
        offsets={"f": 0},
        rows=((), (A(0, 0), A(1, 0)), (A(1, 0),)),
        status_rows={"f": 1},
        result_rows={"f": 2},
        table_width=4)


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
    assert lookup(table, {"f": 0}) == {A(300, 2)}
    assert lookup(table, {"f": 1}) == {A(300, 2), A(0, 0), A(1, 0)}
    with pytest.raises(ControlUnitError):
        lookup(table, {"f": 2})


@pytest.mark.parametrize("name", ("float", "global", "struct"))
def test_store_set_masks_match_the_lookup(name):
    # every row of every function, alone, with no function finished and
    # with every other one finished
    prep = powersim.prepare(transform.normalize(benchgen.preset_program(name)))
    table, placement = prep.table, prep.placement
    index = prep.compiled.reg_index
    for fid in prep.order:
        others = tuple(f for f in prep.order if f != fid)
        for status in range(table.status_rows[fid] + 1):
            for done in ((), others):
                stored = lookup(table, {fid: status})
                for f in done:
                    stored.update(table.result_row(f))
                lost = tuple(index[reg] for reg, addrs in placement.regs.items()
                             if not stored.issuperset(addrs))
                want = (placement.occupied_ffs(stored), len(stored), lost)
                assert powersim.store_set(prep, {fid: status}, done) == want, (
                    fid, status, done)


@pytest.mark.parametrize("status", (-1, "past"))
def test_store_set_rejects_a_corrupt_status(status):
    prep = powersim.prepare(transform.normalize(benchgen.preset_program("float")))
    fid = prep.order[0]
    if status == "past":
        status = prep.table.status_rows[fid] + 1
    with pytest.raises(ControlUnitError, match=f"corrupt status {status} for {fid}"):
        powersim.store_set(prep, {fid: status}, ())
