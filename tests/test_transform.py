"""Function split, merge, and normalization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from dftsim import powersim
from dftsim.program import (
    FunctionSchedule,
    ScheduledProgram,
    execute_reference,
    parse_program,
    validate,
)
from dftsim.transform import SplitError, merge, normalize, split
from programs import loop, make_main_program, op, straight


def two_loop_function():
    # two independent outer loops under one function
    r1 = loop([op("a1", "add", ["acc1", "s"], "acc1", 0, 0)], 2, 3,
              live_in=["acc1", "s"])
    r2 = loop([op("a2", "add", ["acc2", "s"], "acc2", 0, 0)], 2, 4,
              live_in=["acc2", "s"])
    return FunctionSchedule(id="f", regions=(r1, r2),
                            result_regs=frozenset(["acc1", "acc2"]))


def test_split_two_independent_loops():
    f = two_loop_function()
    parts = split(f)
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
    assert [p.result_regs for p in split(f)] == [set(), {"out"}]
    normalized = normalize(ScheduledProgram(functions=(f,), dependencies=(),
                                            default_inputs={"acc": 1, "s": 2}))
    assert validate(normalized) == []
    # the tail reads acc straight from the loop fragment, which returns it
    assert normalized.dependencies == (("g__s0", "g__s1"),)
    assert normalized.function("g__s0").result_regs == {"acc"}
    assert "acc" in normalized.function("g__s1").region.live_in


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


def test_split_links_predecessor_value_to_later_fragment():
    # x comes from a predecessor and only the second region reads it, so the
    # second fragment depends on the predecessor directly
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
    assert ("P", "f__s1") in normalized.dependencies
    s0 = normalized.function("f__s0")
    assert "x" not in s0.region.live_in
    assert "x" not in s0.result_regs
    after = execute_reference(normalized)
    assert all(after[reg] == before[reg] for reg in before)


def linked_programs():
    """Raw programs in which a fragment reads a value that another function
    or fragment writes, each with the edges that normalizing must give."""
    two_steps = (
        straight([op("fx", "const", [], "x", 0, 0, value=5)], 1),
        loop([op("fy", "add", ["y", "s"], "y", 0, 0)], 2, 3, live_in=["y", "s"]))
    f = FunctionSchedule(id="F", regions=two_steps, result_regs=frozenset(["x", "y"]))
    g = FunctionSchedule(id="G", regions=(straight(
        [op("gz", "mul", ["x", "x"], "z", 0, 1)], 2, live_in=["x"]),),
        result_regs=frozenset(["z"]))
    result_read_by_successor = ScheduledProgram(
        functions=(f, g), dependencies=(("F", "G"),), default_inputs={"y": 1, "s": 3})

    three_steps = FunctionSchedule(id="h", result_regs=frozenset(["c"]), regions=(
        straight([op("ha", "add", ["s", "s"], "a", 0, 0)], 1, live_in=["s"]),
        loop([op("hb", "xor", ["b", "s"], "b", 0, 1)], 2, 2, live_in=["b", "s"]),
        straight([op("hc", "sub", ["a", "b"], "c", 0, 0)], 1, live_in=["a", "b"])))
    region_2_reads_region_0 = ScheduledProgram(
        functions=(three_steps,), dependencies=(), default_inputs={"s": 9, "b": 4})

    p = FunctionSchedule(id="P", regions=(straight(
        [op("px", "const", [], "x", 0, 0, value=7)], 1),), result_regs=frozenset(["x"]))
    late = FunctionSchedule(id="f", result_regs=frozenset(["z"]), regions=(
        loop([op("fy", "add", ["y", "y"], "y", 0, 0)], 1, 3, live_in=["y"]),
        straight([op("fz", "add", ["x", "y"], "z", 0, 0)], 1, live_in=["x", "y"])))
    predecessor_result_read_late = ScheduledProgram(
        functions=(p, late), dependencies=(("P", "f"),), default_inputs={"y": 1})

    # Q's result reaches f through P, which returns it without writing it
    q = p._replace(id="Q")
    through = FunctionSchedule(id="P", regions=(straight(
        [op("pw", "add", ["x", "x"], "w", 0, 0)], 1, live_in=["x"]),),
        result_regs=frozenset(["w", "x"]))
    passed_through_result_read_late = ScheduledProgram(
        functions=(q, through, late), dependencies=(("Q", "P"), ("P", "f")),
        default_inputs={"y": 1})
    return [
        pytest.param(result_read_by_successor, {("F__s0", "G"), ("F__s1", "G")},
                     id="result-read-by-successor"),
        pytest.param(region_2_reads_region_0, {("h__s0", "h__s2"), ("h__s1", "h__s2")},
                     id="region-2-reads-region-0"),
        pytest.param(predecessor_result_read_late, {("P", "f__s0"), ("P", "f__s1")},
                     id="predecessor-result-read-late"),
        pytest.param(passed_through_result_read_late, {("P", "f__s0"), ("Q", "f__s1")},
                     id="passed-through-result-read-late"),
    ]


@pytest.mark.parametrize("raw,edges", linked_programs())
def test_normalize_links_each_read_to_its_writer(raw, edges):
    assert validate(raw) == []
    expected = execute_reference(raw)
    normalized = normalize(raw)
    assert validate(normalized) == []
    assert edges <= set(normalized.dependencies)
    # every read of another function's write comes straight from the writer
    writer = {reg: g.id for g in normalized.functions for reg in g.region.written_regs()}
    for g in normalized.functions:
        for reg in g.region.live_in:
            src = writer.get(reg, g.id)
            assert src == g.id or (src, g.id) in normalized.dependencies, (g.id, reg)
    after = execute_reference(normalized)
    assert {reg: after[reg] for reg in expected} == expected

    prep = powersim.prepare(normalized)
    for policy in powersim.POLICY_NAMES:
        for point in range(prep.total_cycles):
            trace = powersim.PowerTrace(points=(point,), seed=0,
                                        total_cycles=prep.total_cycles)
            report = powersim.run(prep.program, powersim.Policy(policy), trace,
                                  prepared=prep)
            assert report.consistent, (policy, point)
            assert {reg: report.final_state[reg] for reg in expected} == expected


def test_split_reads_program_inputs_from_the_input_buffer():
    # c is a program input and a result of f: no fragment threads it, and
    # only the last fragment returns it
    r1 = straight([op("g1", "add", ["c", "c"], "y", 0, 0)], 1, live_in=["c"])
    r2 = straight([op("g2", "add", ["y", "c"], "z", 0, 0)], 1, live_in=["c", "y"])
    r3 = straight([op("g3", "add", ["z", "z"], "w", 0, 0)], 1, live_in=["z"])
    f = FunctionSchedule(id="f", regions=(r1, r2, r3), result_regs=frozenset(["c", "w"]))
    raw = ScheduledProgram(functions=(f,), dependencies=(), default_inputs={"c": 3})
    normalized = normalize(raw)
    assert [g.region.live_in for g in normalized.functions] == [
        ("c",), ("c", "y"), ("c", "z")]
    assert [g.result_regs for g in normalized.functions] == [
        {"y"}, {"z"}, {"c", "w"}]
    assert validate(normalized) == []
    assert execute_reference(raw) == {"c": 3, "w": 18}
    assert execute_reference(normalized) == {"c": 3, "y": 6, "z": 9, "w": 18}


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
        # the fragments read the input s from the input buffer: no fragment
        # exports it, so the final state holds the original results only
        assert report.final_state == expected, (policy, point)
        if policy == "cp":
            assert report.ff_stores == 64, point     # acc1 and acc2, once each


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


@st.composite
def main_sequence_programs(draw):
    """Raw programs whose main sequence mixes calls of straight functions
    with loose ops at increasing cycles. Every register has one writer,
    every read is of an input or of an earlier write, and a function's
    results are any subset of what it writes, so a later reader may need
    a register that its writer does not export yet."""
    readable = ["in0", "in1"]
    functions = []
    items = []
    cycle = 0
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            out = f"r{len(readable)}"
            cycle += draw(st.integers(0, 2))
            reads = draw(st.lists(st.sampled_from(readable), min_size=2, max_size=2))
            items.append(("op", op(out, draw(st.sampled_from(("add", "sub", "xor"))),
                                   reads, out, cycle, cycle)))
            cycle += 1
            readable.append(out)
            continue
        ops = []
        live = set()
        for c in range(draw(st.integers(1, 3))):
            out = f"r{len(readable)}"
            reads = draw(st.lists(st.sampled_from(readable), min_size=2, max_size=2))
            live |= {reg for reg in reads if reg not in {o.output for o in ops}}
            ops.append(op(out, draw(st.sampled_from(("add", "mul", "xor"))),
                          reads, out, c, c))
            readable.append(out)
        fid = f"F{len(functions)}"
        results = draw(st.sets(st.sampled_from([o.output for o in ops])))
        functions.append(FunctionSchedule(
            id=fid, regions=(straight(ops, len(ops), live_in=sorted(live)),),
            result_regs=frozenset(results)))
        items.append(("call", fid))
    return ScheduledProgram(functions=tuple(functions), dependencies=(),
                            main_sequence=tuple(items),
                            default_inputs={"in0": 0x1234567, "in1": 0xFEDCBA98})


@settings(max_examples=150, deadline=None)
@given(main_sequence_programs())
def test_merge_exports_exactly_what_other_items_read(program):
    merged = merge(program)
    assert validate(merged) == []
    original = {f.id: f.result_regs for f in program.functions}
    for f in merged.functions:
        read_elsewhere = set()
        for g in merged.functions:
            if g.id != f.id:
                read_elsewhere.update(g.region.live_in)
        written = set(f.region.written_regs())
        assert f.result_regs == original.get(f.id, frozenset()) | (written & read_elsewhere)
    before = execute_reference(program)
    after = execute_reference(merged)
    assert {reg: after[reg] for reg in before} == before


def test_normalize_links_no_writer_that_does_not_precede_its_reader():
    # B reads A's write, but nothing orders A before B: the raw program is
    # invalid, and normalizing must not make it valid by inventing (A, B)
    a = FunctionSchedule(id="A", regions=(straight(
        [op("ax", "const", [], "x", 0, 0, value=7)], 1),), result_regs=frozenset(["x"]))
    b = FunctionSchedule(id="B", result_regs=frozenset(["z"]), regions=(
        straight([op("by", "const", [], "y", 0, 0, value=1)], 1),
        straight([op("bz", "add", ["x", "y"], "z", 0, 0)], 1, live_in=["x", "y"])))
    for deps in ((), (("B", "A"),)):
        normalized = normalize(ScheduledProgram(functions=(a, b), dependencies=deps))
        assert not {("A", "B__s0"), ("A", "B__s1")} & set(normalized.dependencies)
        assert [v.code for v in validate(normalized)] == ["live-in-unreachable"]


@st.composite
def multi_region_programs(draw):
    """Raw programs of one to four functions in a random DAG, each of one
    to three regions. A region reads the inputs, earlier regions' writes
    and its function's direct predecessors' results; a loop region may
    carry an accumulator. A function returns some of its writes and may
    pass on a predecessor's result, so a value can reach a later
    fragment, a successor's later fragment, or pass through a function."""
    inputs = {"in0": 0x1234567, "in1": 0xFEDCBA98}
    functions, deps, results = [], [], {}
    for k in range(draw(st.integers(1, 4))):
        fid = f"F{k}"
        preds = sorted(draw(st.sets(st.sampled_from(sorted(results))))) if results else []
        deps += [(p, fid) for p in preds]
        passed = sorted(set().union(*(results[p] for p in preds)))
        regions, own, live_all = [], [], set()
        for _ in range(draw(st.integers(1, 3))):
            ops, live = [], set()
            for c in range(draw(st.integers(1, 3))):
                out = f"{fid}_{len(own)}"
                pool = ["in0", "in1"] + passed + own
                reads = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
                live |= {reg for reg in reads if reg not in {o.output for o in ops}}
                ops.append(op(out, draw(st.sampled_from(("add", "sub", "mul", "xor"))),
                              reads, out, c, c))
                own.append(out)
            if draw(st.booleans()):
                acc = f"{fid}_{len(own)}"
                inputs[acc] = draw(st.integers(0, 99))
                ops.append(op(acc, "add", [acc, own[-1]], acc, len(ops), len(ops)))
                live.add(acc)
                own.append(acc)
                regions.append(loop(ops, len(ops), draw(st.integers(1, 3)),
                                    live_in=sorted(live)))
            else:
                regions.append(straight(ops, len(ops), live_in=sorted(live)))
            live_all |= live
        mine = draw(st.sets(st.sampled_from(own)))
        carried = draw(st.sets(st.sampled_from(sorted(live_all & set(passed))))) \
            if live_all & set(passed) else set()
        results[fid] = mine | carried
        functions.append(FunctionSchedule(id=fid, regions=tuple(regions),
                                          result_regs=frozenset(results[fid])))
    return ScheduledProgram(functions=tuple(functions), dependencies=tuple(deps),
                            default_inputs=inputs)


@settings(max_examples=100, deadline=None)
@given(multi_region_programs(), st.integers(0, 10 ** 6))
def test_normalize_keeps_a_valid_program_valid(raw, seed):
    assert validate(raw) == []
    normalized = normalize(raw)
    assert validate(normalized) == []
    expected = execute_reference(raw)
    after = execute_reference(normalized)
    assert {reg: after[reg] for reg in expected} == expected
    prep = powersim.prepare(normalized)
    trace = powersim.PowerTrace(points=(seed % prep.total_cycles,), seed=0,
                                total_cycles=prep.total_cycles)
    for policy in powersim.POLICY_NAMES:
        report = powersim.run(prep.program, powersim.Policy(policy), trace, prepared=prep)
        assert report.consistent, policy


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
