"""Program IR: parsing, validation, and the golden reference executor."""

import copy
import json
import random
import re
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from dftsim import benchgen, powersim
from dftsim.program import (
    FunctionSchedule,
    ParseError,
    ProgramError,
    Region,
    SCHEMA_KEYWORDS,
    ScheduledProgram,
    UnboundLiveInError,
    _TYPES,
    _interp_region,
    _widths_map,
    execute_reference,
    parse_program,
    serialize_program,
    validate,
)
from oracle import reference_region
from programs import op, straight, two_chain_program


def one_fn_program(region, fid="f1", results=(), inputs=None):
    return ScheduledProgram(
        functions=(FunctionSchedule(id=fid, regions=(region,),
                                    result_regs=frozenset(results)),),
        dependencies=(), default_inputs=inputs or {})


MINIMAL = json.dumps({
    "functions": [{
        "id": "f1",
        "result_regs": ["r0"],
        "regions": [{
            "kind": "straight", "iterations": 1, "body_length": 2,
            "live_in": ["a", "b"],
            "ops": [{"id": "o1", "opcode": "add", "inputs": ["a", "b"],
                     "output": "r0", "start": 0, "end": 0}],
        }],
    }],
    "dependencies": [],
    "inputs": {"a": 3, "b": 4},
})


def test_parse_minimal_program():
    program = parse_program(MINIMAL)
    assert len(program.functions) == 1
    assert program.functions[0].id == "f1"
    assert validate(program) == []


def test_parse_rejects_dependency_cycle():
    doc = json.loads(MINIMAL)
    doc["functions"].append({"id": "f2", "result_regs": [], "regions": [
        {"kind": "straight", "iterations": 1, "body_length": 1, "live_in": [],
         "ops": []}]})
    doc["dependencies"] = [["f1", "f2"], ["f2", "f1"]]
    with pytest.raises(ParseError, match="cycle"):
        parse_program(json.dumps(doc))


def test_parse_rejects_dangling_function():
    doc = json.loads(MINIMAL)
    doc["dependencies"] = [["f1", "nope"]]
    with pytest.raises(ParseError, match="dangling"):
        parse_program(json.dumps(doc))


def test_entry_set_of_parallel_function():
    # F1 -> F2 with F3 independent: both F1 and F3 may start first
    doc = json.loads(MINIMAL)
    for fid in ("f2", "f3"):
        doc["functions"].append({"id": fid, "result_regs": [], "regions": [
            {"kind": "straight", "iterations": 1, "body_length": 1, "live_in": [],
             "ops": [{"id": f"{fid}_o", "opcode": "const", "inputs": [],
                      "output": f"{fid}_r", "start": 0, "end": 0, "value": 1}]}]})
    doc["dependencies"] = [["f1", "f2"]]
    program = parse_program(json.dumps(doc))
    assert program.entry_ids == {"f1", "f3"}


def shipped_schema():
    return json.loads(resources.files("dftsim")
                      .joinpath("schema/program.schema.json").read_text())


def test_schema_file_accepts_serialized_programs():
    # the parser accepts what it serializes, and so does the schema
    jsonschema = pytest.importorskip("jsonschema")
    schema = shipped_schema()
    programs = [parse_program(MINIMAL)]
    programs += [benchgen.preset_program(name) for name in benchgen.PRESETS]
    for program in programs:
        text = serialize_program(program)
        jsonschema.validate(json.loads(text), schema)
        assert parse_program(text) == program


def schema_nodes(node):
    yield node
    for key in ("properties", "definitions"):
        for sub in node.get(key, {}).values():
            yield from schema_nodes(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(node.get(key), dict):
            yield from schema_nodes(node[key])


def test_schema_uses_only_walked_keywords():
    # a keyword or type the parser's walker does not implement would be ignored
    jsonschema = pytest.importorskip("jsonschema")
    schema = shipped_schema()
    jsonschema.Draft7Validator.check_schema(schema)
    nodes = list(schema_nodes(schema))
    assert {key for node in nodes for key in node} <= SCHEMA_KEYWORDS
    assert {node["type"] for node in nodes if "type" in node} <= set(_TYPES)


RICH = {
    "functions": [
        {"id": "f", "result_regs": ["y"], "regions": [
            {"kind": "straight", "iterations": 1, "body_length": 2, "live_in": ["a"],
             "reg_widths": {"y": 8},
             "ops": [{"id": "o", "opcode": "add", "inputs": ["a", "a"], "output": "y",
                      "start": 0, "end": 1}]}]},
        {"id": "g", "result_regs": [], "regions": [
            {"kind": "loop", "iterations": 2, "body_length": 1, "ops": []}]}],
    "dependencies": [["f", "g"]],
    "main": {"sequence": [
        {"call": "f"},
        {"op": {"id": "m", "opcode": "const", "inputs": [], "output": "z",
                "start": 0, "end": 0, "value": 7}}]},
    "inputs": {"a": 1},
}
DELETE, RENAME = object(), object()
# messages of the checks the schema cannot express
CROSS_REFERENCE = ("dangling reference", "duplicate function id", "straight region",
                   "dependency cycle")


def doc_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from doc_paths(value, prefix + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutant(path, value):
    doc = copy.deepcopy(RICH)
    *parents, last = path
    parent = value_at(doc, parents)
    if value is DELETE:
        del parent[last]
    elif value is RENAME:
        parent["bogus"] = parent.pop(last)
    else:
        parent[last] = value
    return doc


def test_parser_agrees_with_schema_on_single_field_mutations():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(shipped_schema())
    assert validator.is_valid(RICH) and parse_program(json.dumps(RICH))
    paths = list(doc_paths(RICH))
    objects = [()] + [p for p in paths if isinstance(value_at(RICH, p), dict)]
    cases = [(p, v) for p in paths
             for v in (None, True, -1, 0, 1.5, "x", [], [1], {}, DELETE)]
    cases += [(p + ("bogus",), 1) for p in objects]
    cases += [(p, RENAME) for p in paths if isinstance(p[-1], str)]
    disagree = []
    for path, value in cases:
        doc = mutant(path, value)
        by_schema = validator.is_valid(doc)
        try:
            parse_program(json.dumps(doc))
            by_parser, message = True, ""
        except ParseError as exc:
            by_parser, message = False, str(exc)
        if by_schema and not by_parser and any(m in message for m in CROSS_REFERENCE):
            continue
        if by_schema != by_parser:
            disagree.append((path, value, by_schema, message))
    assert disagree == []


def test_serialize_round_trip():
    program = parse_program(MINIMAL)
    again = parse_program(serialize_program(program))
    assert again == program
    assert serialize_program(again) == serialize_program(program)


# --- validation -----------------------------------------------------------

def test_validate_clean_program_is_empty():
    assert validate(parse_program(MINIMAL)) == []


def test_use_before_def_same_cycle():
    r = straight([op("o1", "const", [], "x", 1, 1, value=5),
                  op("o2", "pass", ["x"], "y", 1, 1)], 3)
    codes = [v.code for v in validate(one_fn_program(r, results=["y"]))]
    assert "use-before-def" in codes


def test_schedule_overflow():
    r = straight([op("o1", "const", [], "x", 0, 4, value=5)], 3)
    codes = [v.code for v in validate(one_fn_program(r, results=["x"]))]
    assert "schedule-overflow" in codes


def test_double_write_per_body():
    r = straight([op("o1", "const", [], "x", 0, 0, value=5),
                  op("o2", "const", [], "x", 1, 1, value=6)], 3)
    codes = [v.code for v in validate(one_fn_program(r, results=["x"]))]
    assert "multiple-writers" in codes


def test_unstable_input_rejected():
    # y overwrites the live-in x inside the span of o2, which reads x
    r = Region(kind="loop", iterations=2, body_length=6, live_in=("x",),
               ops=(op("w", "const", [], "x", 2, 2, value=1),
                    op("o2", "add", ["x", "x"], "z", 1, 4)))
    codes = [v.code for v in validate(one_fn_program(r, results=["z"]))]
    assert "unstable-input" in codes


def test_span_enclosing_carry_update_rejected():
    # old-value read of x at cycle 1, update at cycle 2, and a long op
    # stretching over both: rolling back across the window is unsound
    r = Region(kind="loop", iterations=2, body_length=8, live_in=("x", "s"),
               ops=(op("acc", "add", ["x", "s"], "x", 1, 1),
                    op("z", "add", ["s", "s"], "w", 0, 5)))
    codes = [v.code for v in validate(one_fn_program(r, results=["x"]))]
    assert "span-over-carry-update" in codes


def test_live_in_from_non_predecessor_rejected():
    f1 = FunctionSchedule(id="f1", regions=(straight(
        [op("o1", "const", [], "r1", 0, 0, value=9)], 1),),
        result_regs=frozenset(["r1"]))
    f2 = FunctionSchedule(id="f2", regions=(straight(
        [op("o2", "pass", ["r1"], "r2", 0, 0)], 1, live_in=["r1"]),),
        result_regs=frozenset(["r2"]))
    no_edge = ScheduledProgram(functions=(f1, f2), dependencies=())
    assert "live-in-unreachable" in [v.code for v in validate(no_edge)]
    with_edge = ScheduledProgram(functions=(f1, f2), dependencies=(("f1", "f2"),))
    assert validate(with_edge) == []


def test_dependency_cycle_rejected():
    # parse_program rejects a cycle first, so the program is built in code
    fns = tuple(FunctionSchedule(id=fid, regions=(straight([], 1),), result_regs=frozenset())
                for fid in ("f1", "f2"))
    program = ScheduledProgram(functions=fns, dependencies=(("f1", "f2"), ("f2", "f1")))
    assert [str(v) for v in validate(program)] == [
        "dependency-cycle [program]: dependency relation is not a DAG"]


@pytest.mark.parametrize("width", [40, 0])
def test_width_outside_1_to_32_rejected(width):
    # the schema bounds widths in a document; a program built in code is
    # held to the same range, or the reference and the engine would mask a
    # 40-bit add differently
    r = straight([op("o1", "add", ["a", "a"], "y", 0, 0)], 1, live_in=["a"],
                 widths={"y": width})
    program = one_fn_program(r, results=["y"], inputs={"a": 0xFFFFFFFF})
    message = f"bad-width [f1/y]: declared width {width} outside [1, 32]"
    assert [str(v) for v in validate(program)] == [message]
    with pytest.raises(ProgramError, match=re.escape(message)):
        powersim.prepare(program)


# --- reference execution --------------------------------------------------

def test_pass_copies_input():
    r = straight([op("o1", "pass", ["a"], "r0", 0, 0)], 1, live_in=["a"])
    final = execute_reference(one_fn_program(r, results=["r0"], inputs={"a": 7}))
    assert final == {"r0": 7}


def test_single_cycle_add():
    final = execute_reference(parse_program(MINIMAL))
    assert final == {"r0": 7}


def test_loop_carried_accumulator():
    # three iterations of acc += 5 starting from 0
    r = Region(kind="loop", iterations=3, body_length=2, live_in=("acc", "step"),
               ops=(op("a1", "add", ["acc", "step"], "acc", 0, 0),))
    program = one_fn_program(r, results=["acc"], inputs={"acc": 0, "step": 5})
    final = execute_reference(program)
    assert final == {"acc": 15}


def test_unbound_live_in_raises():
    r = straight([op("o1", "pass", ["a"], "r0", 0, 0)], 1, live_in=["a"])
    with pytest.raises(UnboundLiveInError):
        execute_reference(one_fn_program(r, results=["r0"]))


def test_wrapping_arithmetic_and_width_mask():
    r = straight([op("o1", "add", ["a", "b"], "r0", 0, 0),
                  op("o2", "mul", ["a", "b"], "r1", 1, 1),
                  op("o3", "add", ["a", "b"], "r2", 2, 2)], 3,
                 live_in=["a", "b"], widths={"r2": 4})
    program = one_fn_program(r, results=["r0", "r1", "r2"], inputs={"a": 0xFFFFFFFF, "b": 2})
    final = execute_reference(program)
    assert final["r0"] == 1                    # 32-bit wrap
    assert final["r1"] == 0xFFFFFFFE           # (2^32-1)*2 mod 2^32
    assert final["r2"] == 1 & 0xF              # narrowed to 4 bits


def test_multi_cycle_visibility():
    # o1 spans [0,2]; consumer starts at 3 and sees its value
    r = straight([op("o1", "add", ["a", "a"], "x", 0, 2),
                  op("o2", "add", ["x", "a"], "y", 3, 3)], 5, live_in=["a"])
    final = execute_reference(one_fn_program(r, results=["y"], inputs={"a": 10}))
    assert final == {"y": 30}


def test_reference_is_deterministic():
    from dftsim import benchgen, program
    program = benchgen.generate(benchgen.random_small_shape(5))
    a = execute_reference(program)
    b = execute_reference(program)
    assert a == b


def test_engine_matches_dict_interpreter():
    # the generated engine and the dict interpreter behind execute_reference
    # are independent evaluators; they must agree on any valid program
    from dftsim import benchgen, program
    from dftsim.program import compile_program

    for seed in range(10):
        program = benchgen.generate(benchgen.random_small_shape(seed))
        compiled = compile_program(program)
        regfile = compiled.new_regfile(program.default_inputs)
        for fid in program.topo_order():
            r = program.function(fid).region
            compiled.regions[fid].run(regfile, 0, r.iterations * r.body_length)
        idx = compiled.reg_index
        engine = {reg: int(regfile[idx[reg]]) for reg in sorted(program.all_result_regs())}
        assert execute_reference(program) == engine


# --- the interpreter against its literal definition -----------------------

def assert_interpreters_agree(region, regs, widths):
    want, got = dict(regs), dict(regs)
    reference_region(region, want, widths)
    _interp_region(region, got, widths)
    assert got == want


def test_interpreter_matches_its_definition_on_every_program_region():
    programs = [benchgen.preset_program(name) for name in benchgen.PRESETS]
    programs += [benchgen.generate(benchgen.random_small_shape(s)) for s in range(12)]
    programs.append(two_chain_program())
    rng = random.Random(0)
    for program in programs:
        widths = _widths_map(program)
        regs = dict(program.default_inputs)
        for fid in program.topo_order():
            for region in program.function(fid).regions:
                # from the uninterrupted state, then from random values
                assert_interpreters_agree(region, regs, widths)
                noise = {reg: rng.getrandbits(32) for reg in
                         {*region.live_in, *region.written_regs()}}
                assert_interpreters_agree(region, noise, widths)
                reference_region(region, regs, widths)


REGS = ("x", "y", "z", "w")


@st.composite
def latch_group_regions(draw):
    """Loop regions over four registers, so that latch groups often read
    each other's and their own outputs (swaps, rotations), with widths
    from 0 to 40 bits, consts wider than their widths and ``sub`` wrapping
    below zero. Some ops end outside the body; some groups write one
    register twice."""
    length = draw(st.integers(1, 3))
    ops = []
    for i in range(draw(st.integers(1, 7))):
        opcode = draw(st.sampled_from(("const", "pass", "add", "sub", "mul", "xor")))
        arity = {"const": 0, "pass": 1}.get(opcode, 2)
        inputs = draw(st.lists(st.sampled_from(REGS), min_size=arity, max_size=arity))
        end = draw(st.integers(0, length))
        ops.append(op(f"o{i}", opcode, inputs, draw(st.sampled_from(REGS)), end, end,
                      value=draw(st.integers(0, 2**36))))
    widths = draw(st.dictionaries(st.sampled_from(REGS), st.integers(0, 40)))
    region = Region(kind="loop", iterations=draw(st.integers(1, 4)), body_length=length,
                    live_in=REGS, ops=tuple(ops), reg_widths=widths)
    regs = {reg: draw(st.integers(0, 2**32 - 1)) for reg in REGS}
    return region, regs


def latch_group_example(ops, widths=None):
    region = Region(kind="loop", iterations=3, body_length=1, live_in=REGS,
                    ops=tuple(ops), reg_widths=widths or {})
    return region, dict(zip(REGS, (1, 2, 3, 0xFFFFFFFF)))


@settings(max_examples=150, deadline=None)
@given(latch_group_regions())
# x, y and z rotate while w reads two of them; a 40-bit add still wraps at
# 32 bits; one group writes x twice, reading the old x; an op that ends
# past the body never latches
@example(latch_group_example([op("rx", "pass", ["y"], "x", 0, 0),
                              op("ry", "pass", ["z"], "y", 0, 0),
                              op("rz", "pass", ["x"], "z", 0, 0),
                              op("w", "sub", ["x", "y"], "w", 0, 0)]))
@example(latch_group_example([op("a", "add", ["w", "w"], "y", 0, 0)], {"y": 40}))
@example(latch_group_example([op("c", "const", [], "x", 0, 0, value=3),
                              op("d", "add", ["x", "x"], "x", 0, 0)]))
@example(latch_group_example([op("p", "pass", ["x"], "y", 0, 0),
                              op("c", "const", [], "z", 1, 1)]))
def test_interpreter_matches_its_definition_on_latch_groups(case):
    region, regs = case
    assert_interpreters_agree(region, regs, region.reg_widths)
