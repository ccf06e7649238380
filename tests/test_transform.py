"""Function split, merge, and normalization."""

import json

import pytest

from dftsim import powersim
from dftsim.program import (
    FunctionSchedule,
    Operation,
    Region,
    ScheduledProgram,
    execute_reference,
    parse_program,
    validate,
)
from dftsim.transform import SplitError, merge, normalize, split


def op(oid, opcode, inputs, output, start, end, value=0):
    return Operation(id=oid, opcode=opcode, inputs=tuple(inputs), output=output,
                     start=start, end=end, value=value)


def loop(ops, length, iters, live_in=()):
    return Region(kind="loop", iterations=iters, body_length=length,
                  live_in=tuple(live_in), ops=tuple(ops))


def straight(ops, length, live_in=()):
    return Region(kind="straight", iterations=1, body_length=length,
                  live_in=tuple(live_in), ops=tuple(ops))


def two_loop_function():
    # two independent outer loops under one function
    r1 = loop([op("a1", "add", ["acc1", "s"], "acc1", 0, 0)], 2, 3,
              live_in=["acc1", "s"])
    r2 = loop([op("a2", "add", ["acc2", "s"], "acc2", 0, 0)], 2, 4,
              live_in=["acc2", "s"])
    return FunctionSchedule(id="f", regions=(r1, r2),
                            result_regs=frozenset(["acc1", "acc2"]))


def test_split_two_independent_loops():
    parts = split(two_loop_function())
    assert [p.id for p in parts] == ["f__s0", "f__s1"]
    assert all(len(p.regions) == 1 for p in parts)
    # acc1 is produced by the first fragment; acc2 by the second
    assert "acc1" in parts[0].result_regs
    assert "acc2" in parts[1].result_regs


def test_split_loop_then_tail():
    body = loop([op("a1", "add", ["acc", "s"], "acc", 0, 0)], 2, 3,
                live_in=["acc", "s"])
    tail = straight([op("t1", "add", ["acc", "acc"], "out", 0, 0)], 1,
                    live_in=["acc"])
    f = FunctionSchedule(id="g", regions=(body, tail),
                         result_regs=frozenset(["out"]))
    parts = split(f)
    assert len(parts) == 2
    # the loop fragment must export acc for the tail fragment
    assert "acc" in parts[0].result_regs
    assert "acc" in parts[1].regions[0].live_in


def test_split_single_region_is_identity():
    f = FunctionSchedule(id="h", regions=(straight(
        [op("o", "const", [], "x", 0, 0, value=1)], 1),),
        result_regs=frozenset(["x"]))
    assert split(f) == [f]


def test_split_dataflow_break():
    first = straight([op("o1", "pass", ["late"], "y", 0, 0)], 1, live_in=["late"])
    second = straight([op("o2", "const", [], "late", 0, 0, value=3)], 1)
    f = FunctionSchedule(id="bad", regions=(first, second),
                         result_regs=frozenset(["y"]))
    with pytest.raises(SplitError, match="dataflow break"):
        split(f)


def test_split_preserves_reference_semantics():
    f = two_loop_function()
    raw = ScheduledProgram(functions=(f,), dependencies=(),
                           default_inputs={"acc1": 1, "acc2": 2, "s": 10})
    before = execute_reference(raw)
    parts = split(f)
    deps = tuple((a.id, b.id) for a, b in zip(parts, parts[1:]))
    after_prog = ScheduledProgram(functions=tuple(parts), dependencies=deps,
                                  default_inputs=raw.default_inputs)
    assert validate(after_prog) == []
    after = execute_reference(after_prog)
    assert all(after[reg] == before[reg] for reg in before)


def test_split_threads_predecessor_value_to_later_fragment():
    # x comes from a predecessor and only the second region reads it, so the
    # first fragment must still carry it across the boundary
    p = FunctionSchedule(id="P", regions=(straight(
        [op("px", "const", [], "x", 0, 0, value=7)], 1),),
        result_regs=frozenset(["x"]))
    r1 = straight([op("g1", "const", [], "y", 0, 0, value=1)], 1)
    r2 = straight([op("g2", "add", ["x", "y"], "z", 0, 0)], 1,
                  live_in=["x", "y"])
    f = FunctionSchedule(id="f", regions=(r1, r2), result_regs=frozenset(["z"]))
    program = ScheduledProgram(functions=(p, f), dependencies=(("P", "f"),))
    assert validate(program) == []
    before = execute_reference(program)

    normalized = normalize(program)
    assert validate(normalized) == []
    s0 = normalized.function("f__s0")
    assert "x" in s0.region.live_in
    assert "x" in s0.result_regs
    after = execute_reference(normalized)
    assert all(after[reg] == before[reg] for reg in before)


@pytest.mark.parametrize("policy", powersim.POLICY_NAMES)
def test_split_two_loops_crash_consistent(policy):
    raw = ScheduledProgram(functions=(two_loop_function(),), dependencies=(),
                           default_inputs={"acc1": 1, "acc2": 2, "s": 10})
    expected = execute_reference(raw)
    prep = powersim.prepare(normalize(raw))
    assert prep.total_cycles == 14
    for point in range(prep.total_cycles):
        trace = powersim.PowerTrace(points=(point,), seed=0,
                                    total_cycles=prep.total_cycles)
        report = powersim.run(prep.program, powersim.Policy(policy), trace,
                              prepared=prep)
        assert len(report.outages) == 1
        assert report.consistent, (policy, point)
        # the fragments also export the threaded input s; compare the
        # original function's result registers
        assert {reg: report.final_state[reg] for reg in expected} == expected, \
            (policy, point)


def make_main_program(head_ops=(), mid_ops=(), tail_ops=()):
    f1 = FunctionSchedule(id="F1", regions=(straight(
        [op("f1o", "add", ["x", "x"], "r1", 0, 0)], 1, live_in=["x"]),),
        result_regs=frozenset(["r1"]))
    f2 = FunctionSchedule(id="F2", regions=(straight(
        [op("f2o", "add", ["r1", "m0"], "r2", 0, 0)], 1,
        live_in=["r1", "m0"]),), result_regs=frozenset(["r2"]))
    seq = [("op", o) for o in head_ops] + [("call", "F1")] \
        + [("op", o) for o in mid_ops] + [("call", "F2")] \
        + [("op", o) for o in tail_ops]
    return ScheduledProgram(functions=(f1, f2), dependencies=(),
                            main_sequence=tuple(seq),
                            default_inputs={"x": 5, "m0": 0})


def test_merge_wraps_run_between_calls():
    mid = (op("m", "add", ["r1", "r1"], "m0", 0, 0),)
    program = make_main_program(mid_ops=mid)
    merged = merge(program)
    assert not merged.main_sequence
    ids = [f.id for f in merged.functions]
    assert "main__m0" in ids
    deps = set(merged.dependencies)
    assert ("F1", "main__m0") in deps and ("main__m0", "F2") in deps
    assert validate(merged) == []
    # wrapped output consumed later becomes a result register
    m0_fn = merged.function("main__m0")
    assert "m0" in m0_fn.result_regs


def test_merge_without_loose_ops_is_identity():
    f = FunctionSchedule(id="F1", regions=(straight(
        [op("o", "const", [], "x", 0, 0, value=1)], 1),),
        result_regs=frozenset(["x"]))
    program = ScheduledProgram(functions=(f,), dependencies=())
    assert merge(program) is program


def test_merge_head_run_becomes_entry_function():
    head = (op("h", "const", [], "x", 0, 0, value=5),)
    f1 = FunctionSchedule(id="F1", regions=(straight(
        [op("f1o", "add", ["x", "x"], "r1", 0, 0)], 1, live_in=["x"]),),
        result_regs=frozenset(["r1"]))
    program = ScheduledProgram(
        functions=(f1,), dependencies=(),
        main_sequence=(("op", head[0]), ("call", "F1")))
    before = execute_reference(program)
    merged = merge(program)
    assert validate(merged) == []
    assert "main__m0" in merged.entry_ids
    after = execute_reference(merged)
    assert all(after[reg] == before[reg] for reg in before)


def test_normalize_mixed_program():
    mid = (op("m", "add", ["r1", "r1"], "m0", 0, 0),)
    program = make_main_program(mid_ops=mid)
    # give F2 a second region so both merge and split have work
    f2 = program.function("F2")
    extra = straight([op("f2b", "add", ["r2", "r2"], "r3", 0, 0)], 1,
                     live_in=["r2"])
    functions = tuple(
        FunctionSchedule(id=f.id, regions=f.regions + (extra,),
                         result_regs=f.result_regs | {"r3"})
        if f.id == "F2" else f
        for f in program.functions)
    program = ScheduledProgram(functions=functions, dependencies=(),
                               main_sequence=program.main_sequence,
                               default_inputs=program.default_inputs)
    before = execute_reference(program)

    normalized = normalize(program)
    assert validate(normalized) == []
    assert normalized.is_normalized
    assert all(len(f.regions) == 1 for f in normalized.functions)
    ids = [f.id for f in normalized.functions]
    assert {"F2__s0", "F2__s1", "main__m0"} <= set(ids) and "F2" not in ids
    assert ids.index("F2__s0") + 1 == ids.index("F2__s1")
    after = execute_reference(normalized)
    assert all(after[reg] == before[reg] for reg in before)


def test_normalize_idempotent():
    mid = (op("m", "add", ["r1", "r1"], "m0", 0, 0),)
    program = make_main_program(mid_ops=mid)
    once = normalize(program)
    twice = normalize(once)
    assert once == twice


def test_normalize_already_normal_is_identity():
    text = json.dumps({
        "functions": [{"id": "f1", "result_regs": ["r0"], "regions": [
            {"kind": "straight", "iterations": 1, "body_length": 1,
             "live_in": ["a"],
             "ops": [{"id": "o", "opcode": "pass", "inputs": ["a"],
                      "output": "r0", "start": 0, "end": 0}]}]}],
        "dependencies": [], "inputs": {"a": 1}})
    program = parse_program(text)
    assert normalize(program) == program
