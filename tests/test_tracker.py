"""Tracker values against a counter that steps one cycle at a time.

``TrackerState.advance`` moves its two counters (the next body cycle and
the body cycles left) by a whole segment at once. The reference below
steps one cycle at a time and keeps an explicit iteration counter, as the
tracker's hardware does; after every segment both must agree on the
counters and on the boundary status.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from dftsim import powersim, tracker as trk
from dftsim.liveness import TRACKED, LiveSetTable, TrackerSpec, live_sets
from dftsim.program import FunctionSchedule, Operation, Record, Region
from programs import fork_join_program


class Reference:
    """A body counter that wraps at ``body_length`` and an iteration
    counter, stepped one cycle at a time."""

    def __init__(self, iterations, body_length):
        self.iterations = iterations
        self.body_length = body_length
        self.count = 0
        self.iteration = 0

    def step(self):
        self.count += 1
        if self.count == self.body_length:
            self.count = 0
            self.iteration += 1

    @property
    def remaining(self):
        return (self.iterations - self.iteration) * self.body_length - self.count

    @property
    def status(self):
        if self.iteration == self.iterations:    # finished
            return 0
        if self.count:
            return self.count
        return self.body_length if self.iteration else 0


def function(iterations, body_length):
    """One op in flight over the whole body but its last cycle, so a
    restore mid-body rolls back and one at a seam must not."""
    m = Operation(id="m", opcode="pass", inputs=("x",), output="y",
                  start=0, end=body_length - 1)
    region = Region(kind="loop" if iterations > 1 else "straight",
                    iterations=iterations, body_length=body_length,
                    live_in=("x",), ops=(m,))
    return FunctionSchedule(id="f", regions=(region,), result_regs=frozenset({"y"}))


@st.composite
def segments(draw):
    """(iterations, body_length, segment lengths summing to the body
    cycles of the whole function)."""
    iterations = draw(st.integers(1, 6))
    body_length = draw(st.integers(1, 7))
    total = iterations * body_length
    cuts = draw(st.lists(st.integers(0, total), max_size=12))
    bounds = sorted({0, total, *cuts})
    return iterations, body_length, [hi - lo for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(segments())
@example((3, 4, [4, 4, 4]))
@example((2, 5, [1, 4, 3, 2]))
@example((1, 1, [1]))
def test_advance_matches_a_cycle_by_cycle_counter(case):
    iterations, body_length, segs = case
    f = function(iterations, body_length)
    spec = TrackerSpec(iterations=iterations, body_length=body_length,
                       width=4, mode=TRACKED, ffs=15)
    table = live_sets(f.region, f.result_regs)
    tr = trk.make_trackers({"f": spec})["f"]
    ref = Reference(iterations, body_length)
    assert tr.boundary_status() == ref.status == 0
    for seg in segs:
        tr = tr.advance(seg)
        for _ in range(seg):
            ref.step()
        assert (tr.count, tr.remaining, tr.boundary_status()) == (
            ref.count, ref.remaining, ref.status), (segs, seg)
        if ref.count == 0 and 0 < ref.iteration < iterations:    # an iteration seam
            assert tr.boundary_status() == body_length
            rolled, rollback = trk.restore({"f": tr}, {"f": body_length}, {"f": table})
            assert rollback == {"f": 0}
            assert rolled == {"f": tr}
    assert tr.remaining == 0
    with pytest.raises(trk.TrackerContractError):
        tr.advance(1)


def test_tracker_values_compare_and_hash_by_their_fields():
    spec = TrackerSpec(iterations=3, body_length=4, width=4, mode=TRACKED, ffs=15)
    other = TrackerSpec(iterations=3, body_length=4, width=4, mode=TRACKED, ffs=18)
    tr = trk.TrackerState(spec, 1, 7)
    same = trk.make_trackers({"f": spec})["f"].advance(5)
    assert same is not tr and same == tr and hash(same) == hash(tr)
    assert len({tr, same, trk.TrackerState(spec, 1, 7)}) == 1
    for differs in (trk.TrackerState(other, 1, 7), trk.TrackerState(spec, 2, 7),
                    trk.TrackerState(spec, 1, 6)):
        assert differs != tr
    assert tr != (spec, 1, 7)
    assert repr(tr) == f"TrackerState(spec={spec!r}, count=1, remaining=7)"
    assert not hasattr(tr, "__dict__")
    with pytest.raises(AttributeError):
        tr.iteration = 1

    # the other run-path records that tests compare
    assert spec == TrackerSpec(3, 4, 4, TRACKED, 15) and spec != other
    assert hash(spec) == hash(TrackerSpec(3, 4, 4, TRACKED, 15))
    assert repr(spec) == "TrackerSpec(iterations=3, body_length=4, width=4, mode='tracked', ffs=15)"
    table = LiveSetTable(body_length=2, live=(frozenset(["a"]), frozenset()), resume=(0, 1))
    twin = LiveSetTable(2, (frozenset(["a"]), frozenset()), (0, 1))
    assert table == twin and hash(table) == hash(twin)
    assert table != LiveSetTable(2, (frozenset(["a"]), frozenset()), (0, 0))
    assert repr(table) == ("LiveSetTable(body_length=2, live=(frozenset({'a'}), frozenset()), "
                           "resume=(0, 1))")
    state = powersim.RunState(position=3, regs=(1, 2), trackers={"f": tr}, running=("f",),
                              done=(), candidates=())
    assert state == powersim.RunState(3, (1, 2), {"f": same}, ("f",), (), ())
    assert state != powersim.RunState(3, (1, 2), {"f": tr}, (), (), ())
    assert repr(state) == (f"RunState(position=3, regs=(1, 2), trackers={{'f': {tr!r}}}, "
                           "running=('f',), done=(), candidates=())")
    with pytest.raises(TypeError):
        hash(state)     # its tracker dict is unhashable


def built_records():
    """One record of each class that takes ``Record.__init__``."""
    prep = powersim.prepare(fork_join_program())
    return [prep, prep.start, prep.table, prep.live_tables["A"], prep.specs["A"]]


@pytest.mark.parametrize("index", range(5), ids=(
    "Prepared", "RunState", "ControlUnitTable", "LiveSetTable", "TrackerSpec"))
def test_the_record_init_takes_every_field_once(index):
    record = built_records()[index]
    cls, names = type(record), record.__slots__
    assert cls.__init__ is Record.__init__
    values = [getattr(record, name) for name in names]
    half = len(names) // 2
    assert cls(*values) == record
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:half], **dict(zip(names[half:], values[half:]))) == record
    for args, kwargs, says in (
            (values[:-1], {}, f"{cls.__qualname__} is missing '{names[-1]}'"),
            (values, {"extra": 1}, f"{cls.__qualname__} has no field 'extra'"),
            (values, {names[0]: values[0]}, f"{cls.__qualname__} got field '{names[0]}' twice"),
            ([*values, 1], {}, f"{cls.__qualname__} takes {len(names)} fields")):
        with pytest.raises(TypeError, match=re.escape(says)):
            cls(*args, **kwargs)
    assert record._replace() == record
    changed = record._replace(**{names[-1]: "other"})
    assert getattr(changed, names[-1]) == "other" and changed != record
    assert changed._replace(**{names[-1]: values[-1]}) == record


@pytest.mark.parametrize("status", [-1, -4, 5])
def test_restore_rejects_a_status_outside_the_counter_range(status):
    # A of the fork/join program has a 4-cycle body; a negative status
    # would otherwise roll the tracker forward
    prep = powersim.prepare(fork_join_program())
    tr = trk.TrackerState(prep.specs["A"], 2, 6)
    with pytest.raises(trk.StatusCorruptionError,
                       match=rf"status {status} of A is outside the counter range \[0, 4\]"):
        trk.restore({"A": tr}, {"A": status}, prep.live_tables)
    for ok in range(5):
        rolled, rollback = trk.restore({"A": tr}, {"A": ok}, prep.live_tables)
        assert 0 <= rollback["A"] <= max(ok - 1, 0)
        assert rolled["A"].remaining == tr.remaining + rollback["A"]
