"""Address table: the status -> SLICE lookup, the ``dft`` store set built
on it in ``powersim.store_set``, the restore plan of its lost registers,
and the binary layout."""

import random
import struct

import pytest

from dftsim import benchgen, powersim, transform
from dftsim.control_unit import ControlUnitError, ControlUnitTable, lookup, serialize_table
from dftsim.liveness import TRACKED
from oracle import reference_store_set
from programs import fork_join_program, two_chain_program

GRID_W = 400


def at(x, y):
    """SLICE mask of the one SLICE (x, y) on a GRID_W-wide grid."""
    return 1 << (y * GRID_W + x)


def small_table():
    """Tracker f: zero row, one status row, one result row. The tracker
    region sits at x = 300, which needs both bytes of a u16."""
    return ControlUnitTable(
        tracker_region=at(300, 2),
        blocks={"f": (0, at(0, 0) | at(1, 0), at(1, 0))},
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


def decode_table(blob, grid_w):
    """The SLICE mask of every directory row of a ``serialize_table`` blob,
    in directory order."""
    rows, pool = struct.unpack_from("<II", blob, 0)
    base = 8 + 4 * rows
    assert len(blob) == base + 4 * pool
    masks = []
    for i in range(rows):
        start, length = struct.unpack_from("<HH", blob, 8 + 4 * i)
        mask = 0
        for j in range(start, start + length):
            x, y = struct.unpack_from("<HH", blob, base + 4 * j)
            mask |= 1 << (y * grid_w + x)
        masks.append(mask)
    return masks


@pytest.mark.parametrize("name", (*benchgen.PRESETS, "fork-join"))
def test_the_binary_table_decodes_to_its_rows(name):
    # tracker region first, then per function in program order its rows
    # for status 0 up to its highest status, then its result row
    program = (fork_join_program() if name == "fork-join"
               else transform.normalize(benchgen.preset_program(name)))
    prep = powersim.prepare(program)
    table = prep.table
    expected = [table.tracker_region]
    for f in program.functions:
        spec = prep.specs[f.id]
        top = spec.body_length if spec.mode == TRACKED else 1
        expected += [table.row(f.id, s) for s in range(top + 1)]
        expected.append(table.result_row(f.id))
    assert decode_table(serialize_table(table), table.grid_w) == expected
    assert table.n_rows == len(expected)


def test_lookup_stores_the_tracker_region_and_nonzero_rows():
    table = small_table()
    assert lookup(table, {"f": 0}) == at(300, 2)
    assert lookup(table, {"f": 1}) == at(300, 2) | at(0, 0) | at(1, 0)
    with pytest.raises(ControlUnitError):
        lookup(table, {"f": 2})


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
                statuses = {fid: status}
                assert powersim.store_set(prep, statuses, done) == \
                    reference_store_set(prep, statuses, done), (fid, status, done)


@pytest.mark.parametrize("status", (-1, "past"))
def test_store_set_rejects_a_corrupt_status(status):
    prep = powersim.prepare(transform.normalize(benchgen.preset_program("float")))
    fid = prep.order[0]
    if status == "past":
        status = len(prep.table.blocks[fid]) - 1
    with pytest.raises(ControlUnitError, match=f"corrupt status {status} for {fid}"):
        powersim.store_set(prep, {fid: status}, ())


@pytest.mark.parametrize("name", ("fork-join", "two-chain"))
def test_dft_store_sets_with_two_running_trackers(name, monkeypatch):
    # every store set of a single-outage dft sweep, against the reference,
    # where two trackers run at once and both emit a status
    prep = powersim.prepare(fork_join_program() if name == "fork-join"
                            else transform.normalize(two_chain_program()))
    store_set = powersim.store_set
    seen = []

    def checking(prepared, statuses, done):
        got = store_set(prepared, statuses, done)
        assert got == reference_store_set(prepared, statuses, done), (statuses, done)
        seen.append(dict(statuses))
        return got

    monkeypatch.setattr(powersim, "store_set", checking)
    for point in range(prep.total_cycles):
        trace = powersim.PowerTrace(points=(point,), seed=0,
                                    total_cycles=prep.total_cycles)
        report = powersim.run(prep.program, powersim.Policy(powersim.DFT), trace,
                              prepared=prep)
        assert report.consistent, point
    assert len(seen) == prep.total_cycles
    assert any(len(s) == 2 and all(s.values()) for s in seen)


def dense_dft_keys(name, monkeypatch):
    """The Prepared of ``name`` and every distinct (statuses, finished
    functions) key of a ``dft`` run with an outage at every other cycle."""
    if name == "fork-join":
        program = fork_join_program()
    else:
        program = transform.normalize(two_chain_program() if name == "two-chain"
                                      else benchgen.preset_program(name))
    prep = powersim.prepare(program)
    store_set = powersim.store_set
    keys = {}

    def recording(prepared, statuses, done):
        keys[(tuple(statuses.items()), tuple(done))] = None
        return store_set(prepared, statuses, done)

    monkeypatch.setattr(powersim, "store_set", recording)
    trace = powersim.PowerTrace(points=tuple(range(0, prep.total_cycles, 2)), seed=0,
                                total_cycles=prep.total_cycles)
    report = powersim.run(prep.program, powersim.Policy(powersim.DFT), trace, prepared=prep)
    assert report.consistent
    return prep, [(dict(statuses), done) for statuses, done in keys]


# The kinds of plan the keys of each program get (True: the kept
# registers). Every key of fork/join (8 to 15 of 15 registers lost), the
# two-chain program, aes and gsm loses more than half of the registers;
# global and float also have keys that lose at most half.
PLAN_KINDS = {"fork-join": {True}, "two-chain": {True}, "aes": {True}, "gsm": {True},
              "global": {False, True}, "float": {False, True}}


@pytest.mark.parametrize("name", PLAN_KINDS)
def test_restore_plan_reloads_exactly_the_lost_registers(name, monkeypatch):
    # the plan of every key a dense run meets, applied to a random register
    # file, against the lost set of the reference: reload there, the old
    # value everywhere else
    prep, keys = dense_dft_keys(name, monkeypatch)
    n = len(prep.reload)
    rng = random.Random(name)
    kinds = set()
    for statuses, done in keys:
        lost = set(reference_store_set(prep, statuses, done)[2])
        plan = powersim.restore_plan(powersim.store_set(prep, statuses, done)[2], n)
        kinds.add(plan[0])
        regs = [rng.getrandbits(32) for _ in range(n)]
        want = [prep.reload[i] if i in lost else v for i, v in enumerate(regs)]
        assert powersim.apply_plan(plan, list(regs), prep.reload) == want, (statuses, done)
    assert kinds == PLAN_KINDS[name]
