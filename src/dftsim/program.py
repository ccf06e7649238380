"""Scheduled-program IR: types, parsing, validation, reference execution.

A program is a set of functions with cycle-accurate operation schedules,
chained by a dependency DAG. This module owns the parser, the structural
validator, and the golden uninterrupted executor used as the correctness
oracle by every simulation policy.

``schema/program.schema.json`` is the only description of the document's
shape: ``parse_program`` walks it for every type, range, required-field and
unknown-field check, and keeps in code only what a schema cannot say.

Semantics fixed here and relied on everywhere else:

* Values are 32-bit unsigned with wrapping arithmetic; a register may
  declare a narrower width (``reg_widths``), in which case results are
  truncated to that width when latched.
* An operation reads its inputs at its start cycle and latches its output
  at the end of its end cycle; the output is visible from ``end + 1``.
  Inputs must be stable over the whole span, which the validator enforces.
* A register is written by at most one operation per body, and register
  ids are globally unique across functions.
"""

from __future__ import annotations

import functools
import json
import operator
from importlib import resources
from types import MappingProxyType
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import engine

_ARITY = {"const": 0, "pass": 1, "add": 2, "sub": 2, "mul": 2, "xor": 2}
U32 = 0xFFFFFFFF

LOOP = "loop"
STRAIGHT = "straight"


class ProgramError(Exception):
    """Base for structural program errors."""


class ParseError(ProgramError):
    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class UnboundLiveInError(ProgramError):
    pass


class Record:
    """Base of the ``__slots__`` records: ``__init__``, ``==``, ``hash``
    and ``repr`` by the fields that ``__slots__`` names, in order, as a
    dataclass has them, and ``_replace`` as a ``NamedTuple`` has it. The
    methods read ``__slots__`` when they are called, so a record class
    generates no code. A record with an unhashable field is unhashable.

    ``__init__`` takes every field exactly once, by position or by
    keyword, and has no defaults. It costs several times a hand-written
    one, so records built per segment, outage or run
    (``tracker.TrackerState``, ``powersim.OutageRecord``,
    ``powersim.SimulationReport``) write their own, as do the records
    that check or default their fields (``powersim.PowerTrace``,
    ``powersim.Policy``, ``powersim.SimConfig``)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls, names = type(self).__qualname__, self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)} positional")
        for name, value in (*zip(names, args), *kwargs.items()):
            if name not in names:
                raise TypeError(f"{cls} has no field '{name}'")
            if hasattr(self, name):     # its slot is set already
                raise TypeError(f"{cls} got field '{name}' twice")
            setattr(self, name, value)
        missing = [name for name in names if not hasattr(self, name)]
        if missing:
            raise TypeError(f"{cls} is missing {', '.join(map(repr, missing))}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with the fields in ``changes`` set to their values."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__slots__},
                             **changes})


class Operation(NamedTuple):
    id: str
    opcode: str
    inputs: Tuple[str, ...]
    output: str
    start: int
    end: int
    value: int = 0  # immediate, used by const


class Region(NamedTuple):
    kind: str                       # LOOP or STRAIGHT
    iterations: int                 # 1 for STRAIGHT
    body_length: int
    live_in: Tuple[str, ...] = ()
    ops: Tuple[Operation, ...] = ()
    reg_widths: Mapping[str, int] = MappingProxyType({})    # shared, so read-only

    def written_regs(self) -> Tuple[str, ...]:
        return tuple(op.output for op in self.ops)


class FunctionSchedule(NamedTuple):
    id: str
    regions: Tuple[Region, ...]
    result_regs: frozenset

    @property
    def region(self) -> Region:
        """The single region of a normalized function."""
        if len(self.regions) != 1:
            raise ProgramError(f"function {self.id} has {len(self.regions)} regions; normalize first")
        return self.regions[0]


# main-sequence items for raw programs: ("call", function_id) | ("op", Operation)
MainItem = Tuple[str, object]


class ScheduledProgram(NamedTuple):
    functions: Tuple[FunctionSchedule, ...]
    dependencies: Tuple[Tuple[str, str], ...]
    main_sequence: Tuple[MainItem, ...] = ()
    default_inputs: Mapping[str, int] = MappingProxyType({})    # shared, so read-only

    def function(self, fid: str) -> FunctionSchedule:
        for f in self.functions:
            if f.id == fid:
                return f
        raise KeyError(fid)

    @property
    def entry_ids(self) -> frozenset:
        succs = {s for _, s in self.dependencies}
        return frozenset(f.id for f in self.functions if f.id not in succs)

    def predecessors(self, fid: str) -> Tuple[str, ...]:
        return tuple(p for p, s in self.dependencies if s == fid)

    def successors(self, fid: str) -> Tuple[str, ...]:
        return tuple(s for p, s in self.dependencies if p == fid)

    @property
    def is_normalized(self) -> bool:
        return not self.main_sequence and all(len(f.regions) == 1 for f in self.functions)

    def all_result_regs(self) -> frozenset:
        out = set()
        for f in self.functions:
            out |= f.result_regs
        return frozenset(out)

    def topo_order(self) -> List[str]:
        """Deterministic topological order (Kahn, id-sorted ties)."""
        pending = {f.id: set(self.predecessors(f.id)) for f in self.functions}
        order: List[str] = []
        while pending:
            ready = sorted(fid for fid, preds in pending.items() if not preds)
            if not ready:
                raise ProgramError("dependency cycle")
            for fid in ready:
                order.append(fid)
                del pending[fid]
            for preds in pending.values():
                preds.difference_update(ready)
        return order


class Violation(NamedTuple):
    code: str
    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.entity}]: {self.message}"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

#: The JSON Schema keywords that ``_walk`` implements or may ignore as
#: annotations; the shipped schema must use no other.
SCHEMA_KEYWORDS = frozenset((
    "$schema", "$comment", "title", "definitions", "errorMessage", "$ref", "type",
    "enum", "properties", "required", "additionalProperties", "items", "minItems",
    "maxItems", "minProperties", "maxProperties", "minimum", "maximum"))

_TYPES = {"object": (dict, "an object"), "array": (list, "a list"),
          "string": (str, "a string"), "integer": (int, "an integer")}


@functools.cache
def _schema() -> dict:
    """``schema/program.schema.json``, read on the first parse."""
    return json.loads(resources.files("dftsim")
                      .joinpath("schema/program.schema.json").read_text())


def _resolve(node: Mapping) -> Mapping:
    """``node``, or the schema node its local ``$ref`` (``#/a/b``) names."""
    if "$ref" in node:
        ref, node = node["$ref"], _schema()
        for key in ref[2:].split("/"):
            node = node[key]
    return node


def _violation(value, node: Mapping) -> Optional[str]:
    """The first of ``node``'s own keywords that ``value`` breaks, if any.

    ``value`` already has ``node``'s type.
    """
    if "enum" in node and value not in node["enum"]:
        return "must be one of " + ", ".join(map(repr, node["enum"]))
    low = node.get("minimum")
    if low is not None and value < low:
        return "must not be negative" if low == 0 else f"must be at least {low}"
    if "maximum" in node and value > node["maximum"]:
        return f"must be at most {node['maximum']}"
    if node.get("additionalProperties") is False:
        for key in value:
            if key not in node.get("properties", {}):
                return f"unknown field '{key}'"
    for key in node.get("required", ()):
        if key not in value:
            return f"missing field '{key}'"
    noun = "items" if isinstance(value, list) else "fields"
    low = node.get("minItems", node.get("minProperties"))
    if low is not None and len(value) < low:
        return "must not be empty" if low == 1 else f"must have at least {low} {noun}"
    high = node.get("maxItems", node.get("maxProperties"))
    if high is not None and len(value) > high:
        return f"must have at most {high} {noun}"
    return None


def _walk(value, node: Mapping, path: str, where: str, label: str) -> None:
    """Check ``value``, found at ``path`` in the document, against ``node``.

    A failure of ``value`` itself reads ``where: label message``. An object
    with declared properties, and a list item, are reported at their own
    path; a property at its parent's, named by its key; a map value at the
    map's, as ``value of '<key>'``. An ``errorMessage`` replaces the
    messages of the node and of its items, except an object's type error.
    JSON ``true`` and ``false`` are not integers, nor is ``1.0``.
    """
    node = _resolve(node)
    if "properties" in node:
        where, label = path or "top", ""
    override = node.get("errorMessage")
    kind = node.get("type")
    if kind is not None:
        cls, noun = _TYPES[kind]
        if not isinstance(value, cls) or isinstance(value, bool):
            message = override if override and kind != "object" else f"must be {noun}"
            raise ParseError(label + message, where)
    try:
        message = _violation(value, node)
        if message is None and "items" in node:
            for i, item in enumerate(value):
                _walk(item, node["items"], f"{path}[{i}]", f"{path}[{i}]", "")
    except ParseError:
        if override is None:
            raise
        message = override
    if message is not None:
        raise ParseError(label + (override or message), where)
    if isinstance(value, dict):
        extra = node.get("additionalProperties")
        for key, item in value.items():
            child = f"{path}.{key}" if path else key
            if key in node.get("properties", {}):
                _walk(item, node["properties"][key], child, path or "top", f"{key} ")
            elif isinstance(extra, dict):
                _walk(item, extra, child, path, f"value of '{key}' ")


def _operation(doc: Mapping) -> Operation:
    """A checked op object as an ``Operation``: the schema's field names are
    the ``NamedTuple`` field names, here and for ``Region``."""
    return Operation(**{**doc, "inputs": tuple(doc["inputs"]),
                        "value": doc.get("value", 0) & U32})


def parse_program(text: str) -> ScheduledProgram:
    """Parse a program-description document (JSON).

    Raises ParseError, located in the document. Types, ranges, required
    and unknown fields come from walking ``schema/program.schema.json``;
    code checks only what the schema cannot say: duplicate function ids,
    straight regions with ``iterations != 1``, dangling function
    references, a function called twice by the main sequence and
    dependency cycles. Deeper schedule invariants are left
    to ``validate``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _walk(doc, _schema(), "", "top", "")

    ids = set()
    for i, fdoc in enumerate(doc["functions"]):
        if fdoc["id"] in ids:
            raise ParseError(f"duplicate function id '{fdoc['id']}'", f"functions[{i}]")
        ids.add(fdoc["id"])
        for j, rdoc in enumerate(fdoc["regions"]):
            if rdoc["kind"] == STRAIGHT and rdoc["iterations"] != 1:
                raise ParseError("straight region must have iterations = 1",
                                 f"functions[{i}].regions[{j}]")
    sequence = doc.get("main", {"sequence": []})["sequence"]
    calls = [(f"main.sequence[{i}]", item["call"]) for i, item in enumerate(sequence)
             if "call" in item]
    refs = [(f"dependencies[{i}]", fid) for i, pair in enumerate(doc["dependencies"])
            for fid in pair] + calls
    for where, fid in refs:
        if fid not in ids:
            raise ParseError(f"dangling reference to function '{fid}'", where)
    called = set()
    for where, fid in calls:
        if fid in called:
            raise ParseError(f"function '{fid}' is called more than once", where)
        called.add(fid)

    functions = tuple(
        FunctionSchedule(
            id=fdoc["id"], result_regs=frozenset(fdoc["result_regs"]),
            regions=tuple(Region(**{**rdoc, "live_in": tuple(rdoc.get("live_in", ())),
                                    "ops": tuple(map(_operation, rdoc["ops"]))})
                          for rdoc in fdoc["regions"]))
        for fdoc in doc["functions"])
    program = ScheduledProgram(
        functions=functions, dependencies=tuple(map(tuple, doc["dependencies"])),
        main_sequence=tuple(("call", item["call"]) if "call" in item
                            else ("op", _operation(item["op"])) for item in sequence),
        default_inputs={k: v & U32 for k, v in doc.get("inputs", {}).items()})
    try:
        program.topo_order()
    except ProgramError as exc:
        raise ParseError(str(exc), "dependencies") from None
    return program


def _op_doc(op: Operation) -> Dict:
    doc = {"id": op.id, "opcode": op.opcode, "inputs": list(op.inputs),
           "output": op.output, "start": op.start, "end": op.end}
    if op.opcode == "const":
        doc["value"] = op.value
    return doc


def serialize_program(program: ScheduledProgram) -> str:
    """Canonical JSON form; byte-stable for golden files."""
    doc: Dict = {
        "functions": [
            {
                "id": f.id,
                "result_regs": sorted(f.result_regs),
                "regions": [
                    {
                        "kind": r.kind,
                        "iterations": r.iterations,
                        "body_length": r.body_length,
                        "live_in": list(r.live_in),
                        "reg_widths": dict(r.reg_widths),
                        "ops": [_op_doc(o) for o in r.ops],
                    }
                    for r in f.regions
                ],
            }
            for f in program.functions
        ],
        "dependencies": [list(d) for d in program.dependencies],
    }
    if program.main_sequence:
        doc["main"] = {"sequence": [
            {"call": x} if tag == "call" else {"op": _op_doc(x)}
            for tag, x in program.main_sequence
        ]}
    if program.default_inputs:
        doc["inputs"] = dict(program.default_inputs)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _region_violations(fid: str, region: Region, out: List[Violation]) -> None:
    L = region.body_length
    writer_end: Dict[str, int] = {}
    live = set(region.live_in)
    for op in region.ops:
        ent = f"{fid}/{op.id}"
        if len(op.inputs) != _ARITY[op.opcode]:
            out.append(Violation("bad-arity", ent,
                                 f"{op.opcode} takes {_ARITY[op.opcode]} inputs, "
                                 f"got {len(op.inputs)}"))
        if op.start < 0 or op.end < op.start:
            out.append(Violation("bad-span", ent, f"invalid cycle span [{op.start}, {op.end}]"))
        if op.end >= L:
            out.append(Violation("schedule-overflow", ent,
                                 f"end cycle {op.end} outside body of length {L}"))
        if op.output in writer_end:
            out.append(Violation("multiple-writers", ent,
                                 f"register {op.output} written more than once per body"))
        writer_end[op.output] = op.end

    # Input legality. A read is either def-before-use (producer latched
    # strictly before the consumer starts) or a declared live-in. A live-in
    # overwritten in-body may still be read at its old value, but only by
    # ops that finish no later than the overwrite does: restore replays an
    # in-flight op from its input registers, so those registers must still
    # hold what it originally read.
    for op in region.ops:
        ent = f"{fid}/{op.id}"
        for reg in op.inputs:
            e_w = writer_end.get(reg)
            if reg in live:
                if e_w is not None and op.start <= e_w < op.end:
                    out.append(Violation("unstable-input", ent,
                                         f"{reg} is overwritten at cycle {e_w} inside span "
                                         f"[{op.start}, {op.end}]"))
            else:
                if e_w is None:
                    out.append(Violation("undefined-input", ent,
                                         f"{reg} is never written and not a live-in"))
                elif e_w >= op.start:
                    out.append(Violation("use-before-def", ent,
                                         f"{reg} latches at cycle {e_w}, read at {op.start}"))

    # No op span may stretch from at-or-before a pre-update read of a
    # carried register to beyond the update: rolling back across such a
    # window would replay the read against the already-updated register.
    for op in region.ops:
        for reg in op.inputs:
            e_w = writer_end.get(reg)
            if reg in live and e_w is not None and op.end <= e_w:
                for z in region.ops:
                    if z.start < op.end and z.end > e_w:
                        out.append(Violation(
                            "span-over-carry-update", f"{fid}/{z.id}",
                            f"span [{z.start}, {z.end}] encloses the pre-update read of "
                            f"{reg} by {op.id} and its update at cycle {e_w}"))


def validate(program: ScheduledProgram) -> List[Violation]:
    """Check every program invariant; returns violations (empty = valid)."""
    out: List[Violation] = []
    try:
        program.topo_order()
    except ProgramError:
        out.append(Violation("dependency-cycle", "program", "dependency relation is not a DAG"))

    writers: Dict[str, Tuple[str, str]] = {}  # reg -> (function, op)
    widths: Dict[str, Tuple[str, int]] = {}
    op_ids: Dict[str, str] = {}
    for f in program.functions:
        for region in f.regions:
            for op in region.ops:
                if op.id in op_ids:
                    out.append(Violation("duplicate-op-id", f"{f.id}/{op.id}",
                                         f"op id also used in {op_ids[op.id]}"))
                op_ids[op.id] = f.id
                prev = writers.get(op.output)
                if prev is not None and prev[1] != op.id:
                    out.append(Violation("register-not-unique", f"{f.id}/{op.id}",
                                         f"register {op.output} also written by "
                                         f"{prev[0]}/{prev[1]}"))
                writers.setdefault(op.output, (f.id, op.id))
            for reg, w in region.reg_widths.items():
                if not 1 <= w <= 32:
                    out.append(Violation("bad-width", f"{f.id}/{reg}",
                                         f"declared width {w} outside [1, 32]"))
                prevw = widths.get(reg)
                if prevw is not None and prevw[1] != w:
                    out.append(Violation("width-conflict", reg,
                                         f"declared {prevw[1]} bits in {prevw[0]}, {w} bits in {f.id}"))
                widths.setdefault(reg, (f.id, w))

    results_by_fn = {f.id: f.result_regs for f in program.functions}
    for f in program.functions:
        preds = program.predecessors(f.id)
        pred_results = set()
        for p in preds:
            pred_results |= results_by_fn.get(p, frozenset())
        own = set()
        for region in f.regions:
            own |= set(region.written_regs())
        for region in f.regions:
            _region_violations(f.id, region, out)
            for reg in region.live_in:
                if reg in own or reg in pred_results:
                    continue
                if reg in writers:  # written elsewhere but not by a direct pred
                    out.append(Violation("live-in-unreachable", f"{f.id}",
                                         f"live-in {reg} is written by {writers[reg][0]}, "
                                         f"not a direct predecessor"))
        declared = set()
        for region in f.regions:
            declared |= set(region.written_regs()) | set(region.live_in)
        for reg in f.result_regs:
            if reg not in declared:
                out.append(Violation("unknown-result-reg", f.id,
                                     f"result register {reg} neither written nor live-in"))
    return out


# ---------------------------------------------------------------------------
# Reference execution
# ---------------------------------------------------------------------------

# Value of a step from its two input values; ``pass`` reads one input, so
# its step names that register twice. ``add``, ``sub`` and ``mul`` may
# leave 32 bits, so their masks are cut to 32 bits too.
_STEP_FN = {"pass": lambda a, b: a, "add": operator.add, "sub": operator.sub,
            "mul": operator.mul, "xor": operator.xor}
_WRAPPING = frozenset(("add", "sub", "mul"))


def _interp_region(region: Region, regs: Dict[str, int], widths: Mapping[str, int]) -> None:
    """Dict-based region interpreter: the reference evaluator.

    Ops latching at the end of the same body cycle form a latch group, and
    every op of a group reads the values from before the group latches.
    Each call decodes the region once into the steps of one iteration, in
    cycle order. An op becomes ``(output, fn, a, b, mask)`` and latches
    ``fn(regs[a], regs[b]) & mask``; a ``const`` has ``fn`` None and
    latches ``mask``, which holds its masked immediate. A group in which
    no op reads another member's output, and no register is written twice,
    becomes its ops' steps, latched one after another; any other group
    stays one step, ``(None, None, its ops' steps, None, None)``, that
    computes every value before it writes any. Ops that end outside the
    body never latch.
    Steps are plain tuples of register ids, ``operator`` functions and
    masks: nothing here is generated or shared with ``engine``, so the
    engine stays under test wherever it is checked against this function.
    """
    for reg in region.live_in:
        if reg not in regs:
            if reg in region.written_regs():
                raise UnboundLiveInError(
                    f"loop-carried register {reg} has no initial value")
            raise UnboundLiveInError(f"live-in register {reg} is unbound")
    L = region.body_length
    groups: Dict[int, List[tuple]] = {}
    for op in region.ops:
        if not 0 <= op.end < L:
            continue
        out, code = op.output, op.opcode
        mask = (1 << widths.get(out, 32)) - 1
        if code == "const":
            step = (out, None, None, None, op.value & mask)
        else:
            a = op.inputs[0]
            step = (out, _STEP_FN[code], a, a if code == "pass" else op.inputs[1],
                    mask & U32 if code in _WRAPPING else mask)
        groups.setdefault(op.end, []).append(step)
    steps: List[tuple] = []
    for c in sorted(groups):
        group = groups[c]
        if len(group) > 1:
            outs = {step[0] for step in group}
            if len(outs) < len(group) or any(
                    reg in outs and reg != out for out, _, a, b, _ in group for reg in (a, b)):
                steps.append((None, None, group, None, None))
                continue
        steps += group
    for _ in range(region.iterations):
        for out, fn, a, b, m in steps:
            if fn is not None:
                regs[out] = fn(regs[a], regs[b]) & m
            elif out is not None:
                regs[out] = m
            else:    # a group latched as one step
                latched = [(o, v if f is None else f(regs[x], regs[y]) & v)
                           for o, f, x, y, v in a]
                for o, v in latched:
                    regs[o] = v


def _widths_map(program: ScheduledProgram) -> Dict[str, int]:
    widths: Dict[str, int] = {}
    for f in program.functions:
        for r in f.regions:
            widths.update(r.reg_widths)
    return widths


def all_registers(program: ScheduledProgram) -> List[str]:
    """Every register id of a normalized program, in deterministic order."""
    seen: Dict[str, None] = {}
    for f in program.functions:
        for r in f.regions:
            for reg in r.live_in:
                seen.setdefault(reg, None)
            for op in r.ops:
                for reg in op.inputs:
                    seen.setdefault(reg, None)
                seen.setdefault(op.output, None)
        for reg in f.result_regs:
            seen.setdefault(reg, None)
    return list(seen)


def compile_program(program: ScheduledProgram) -> engine.CompiledProgram:
    """Flatten a normalized program for the execution engine."""
    widths = _widths_map(program)
    cp = engine.CompiledProgram(all_registers(program), widths)
    for f in program.functions:
        r = f.region
        cp.regions[f.id] = engine.CompiledRegion(r.ops, r.body_length, cp.reg_index, widths)
    return cp


def _interp_program(program: ScheduledProgram, regs: Dict[str, int],
                   widths: Mapping[str, int]) -> None:
    """Sequential interpretation: main order, then the remaining functions
    in topological order, regions in order."""
    ran = set()

    def run_function(fid: str) -> None:
        for region in program.function(fid).regions:
            _interp_region(region, regs, widths)
        ran.add(fid)

    pending_run: List[Operation] = []
    for tag, x in program.main_sequence:
        if tag == "op":
            pending_run.append(x)
            continue
        if pending_run:
            _run_loose(pending_run, regs, widths)
            pending_run = []
        run_function(x)
    if pending_run:
        _run_loose(pending_run, regs, widths)
    for fid in program.topo_order():
        if fid not in ran:
            run_function(fid)


def _run_loose(ops: Sequence[Operation], regs: Dict[str, int], widths: Mapping[str, int]) -> None:
    live = tuple(sorted({r for op in ops for r in op.inputs}
                        - {op.output for op in ops}))
    region = Region(kind=STRAIGHT, iterations=1,
                    body_length=max(op.end for op in ops) + 1,
                    live_in=live, ops=tuple(ops))
    _interp_region(region, regs, widths)


def execute_reference(program: ScheduledProgram) -> Dict[str, int]:
    """Run every function to completion with no outages.

    Returns the FinalState: values of all result registers. Deterministic
    for a fixed program; its ``default_inputs`` bind the inputs. Raw and
    normalized programs alike are stepped by the dict interpreter
    ``_interp_region``. It decodes each region once per call into
    ``(output, fn, a, b, mask)`` steps of plain ``operator`` functions, and
    latches a group whose ops read each other's outputs as one step. It
    generates no code and shares none with the engine, so every
    consistency check of a simulated run also tests the engine, and
    transform equivalence tests compare the programs before and after a
    rewrite. ``tests/oracle.py::reference_region``, which decodes every op
    at every latch, is its literal definition. Bound inputs are masked to
    their declared widths, as ``CompiledProgram.new_regfile`` does.
    """
    widths = _widths_map(program)
    regs = {reg: v & ((1 << widths.get(reg, 32)) - 1)
            for reg, v in program.default_inputs.items()}
    _interp_program(program, regs, widths)
    return {reg: regs[reg] for reg in sorted(program.all_result_regs())}

