"""Address table: the status -> SLICE lookup and the binary layout."""

import struct

import pytest

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
