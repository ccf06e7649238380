"""Program IR: parsing, validation, and the golden reference executor."""

import copy
import json
import random
from importlib import resources

import pytest

from dftsim import benchgen
from dftsim.program import (
    FunctionSchedule,
    ParseError,
    Region,
    SCHEMA_KEYWORDS,
    ScheduledProgram,
    UnboundLiveInError,
    _TYPES,
    execute_reference,
    parse_program,
    serialize_program,
    validate,
)
from programs import op, straight


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
