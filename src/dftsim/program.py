"""Scheduled-program IR: types, parsing, validation, reference execution.

A program is a set of functions with cycle-accurate operation schedules,
chained by a dependency DAG. This module owns the document schema (see
``schema/program.schema.json``), the structural validator, and the golden
uninterrupted executor used as the correctness oracle by every simulation
policy.

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

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import engine

OPCODES = ("const", "pass", "add", "sub", "mul", "xor")
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


@dataclass(frozen=True)
class Operation:
    id: str
    opcode: str
    inputs: Tuple[str, ...]
    output: str
    start: int
    end: int
    value: int = 0  # immediate, used by const

    @property
    def span(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Region:
    kind: str                       # LOOP or STRAIGHT
    iterations: int                 # 1 for STRAIGHT
    body_length: int
    live_in: Tuple[str, ...] = ()
    ops: Tuple[Operation, ...] = ()
    reg_widths: Mapping[str, int] = field(default_factory=dict)

    def written_regs(self) -> Tuple[str, ...]:
        return tuple(op.output for op in self.ops)

    def writer_end(self, reg: str) -> Optional[int]:
        """End cycle of the op writing ``reg`` in this body, if any."""
        for op in self.ops:
            if op.output == reg:
                return op.end
        return None


@dataclass(frozen=True)
class FunctionSchedule:
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


@dataclass(frozen=True)
class ScheduledProgram:
    functions: Tuple[FunctionSchedule, ...]
    dependencies: Tuple[Tuple[str, str], ...]
    main_sequence: Tuple[MainItem, ...] = ()
    default_inputs: Mapping[str, int] = field(default_factory=dict)

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


@dataclass(frozen=True)
class Violation:
    code: str
    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.entity}]: {self.message}"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ParseError("must be an object", where)
    return doc


def _require(obj: Mapping, key: str, where: str):
    if key not in obj:
        raise ParseError(f"missing field '{key}'", where)
    return obj[key]


def _require_list(obj: Mapping, key: str, where: str) -> list:
    value = _require(obj, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list", where)
    return value


def _reg_ids(value, name: str, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(r, str) for r in value):
        raise ParseError(f"{name} must be a list of register ids", where)
    return value


def _is_int(value) -> bool:
    """A JSON integer; ``true`` and ``false`` are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_op(doc: Mapping, where: str) -> Operation:
    doc = _object(doc, where)
    opid = _require(doc, "id", where)
    opcode = _require(doc, "opcode", where)
    if opcode not in OPCODES:
        raise ParseError(f"unknown opcode '{opcode}'", where)
    inputs = _reg_ids(_require(doc, "inputs", where), "inputs", where)
    start = _require(doc, "start", where)
    end = _require(doc, "end", where)
    if not _is_int(start) or not _is_int(end):
        raise ParseError("start/end must be integers", where)
    value = doc.get("value", 0)
    if not _is_int(value):
        raise ParseError("value must be an integer", where)
    return Operation(id=str(opid), opcode=opcode, inputs=tuple(inputs),
                     output=str(_require(doc, "output", where)),
                     start=start, end=end, value=value & U32)


def _parse_region(doc: Mapping, where: str) -> Region:
    doc = _object(doc, where)
    kind = _require(doc, "kind", where)
    if kind not in (LOOP, STRAIGHT):
        raise ParseError(f"kind must be '{LOOP}' or '{STRAIGHT}'", where)
    iterations = _require(doc, "iterations", where)
    body_length = _require(doc, "body_length", where)
    if not _is_int(iterations) or iterations < 1:
        raise ParseError("iterations must be a positive integer", where)
    if kind == STRAIGHT and iterations != 1:
        raise ParseError("straight region must have iterations = 1", where)
    if not _is_int(body_length) or body_length < 1:
        raise ParseError("body_length must be a positive integer", where)
    live_in = _reg_ids(doc.get("live_in", []), "live_in", where)
    ops = tuple(_parse_op(o, f"{where}.ops[{i}]")
                for i, o in enumerate(_require_list(doc, "ops", where)))
    widths = doc.get("reg_widths", {})
    if not isinstance(widths, dict):
        raise ParseError("reg_widths must be an object", where)
    for reg, w in widths.items():
        if not _is_int(w) or not 1 <= w <= 32:
            raise ParseError(f"width of '{reg}' must be in 1..32", where)
    return Region(kind=kind, iterations=iterations, body_length=body_length,
                  live_in=tuple(live_in), ops=ops, reg_widths=dict(widths))


def parse_program(text: str) -> ScheduledProgram:
    """Parse a program-description document (JSON).

    Raises ParseError, located in the document, for schema violations,
    dangling references and cyclic dependencies; deeper schedule
    invariants are left to ``validate``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")

    functions = []
    ids = set()
    for i, fdoc in enumerate(_require_list(doc, "functions", "top")):
        where = f"functions[{i}]"
        fdoc = _object(fdoc, where)
        fid = str(_require(fdoc, "id", where))
        if fid in ids:
            raise ParseError(f"duplicate function id '{fid}'", where)
        ids.add(fid)
        result_regs = _reg_ids(_require(fdoc, "result_regs", where), "result_regs", where)
        regions = tuple(_parse_region(r, f"{where}.regions[{j}]")
                        for j, r in enumerate(_require_list(fdoc, "regions", where)))
        if not regions:
            raise ParseError("region list is empty", where)
        functions.append(FunctionSchedule(id=fid, regions=regions,
                                          result_regs=frozenset(result_regs)))

    deps = []
    for i, pair in enumerate(_require_list(doc, "dependencies", "top")):
        where = f"dependencies[{i}]"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError("dependency must be a [pred, succ] pair", where)
        pred, succ = str(pair[0]), str(pair[1])
        for fid in (pred, succ):
            if fid not in ids:
                raise ParseError(f"dangling reference to function '{fid}'", where)
        deps.append((pred, succ))

    main_items: List[MainItem] = []
    if "main" in doc:
        for i, item in enumerate(_require_list(_object(doc["main"], "main"),
                                               "sequence", "main")):
            where = f"main.sequence[{i}]"
            item = _object(item, where)
            if "call" in item:
                fid = str(item["call"])
                if fid not in ids:
                    raise ParseError(f"dangling reference to function '{fid}'", where)
                main_items.append(("call", fid))
            elif "op" in item:
                main_items.append(("op", _parse_op(item["op"], where)))
            else:
                raise ParseError("item must carry 'call' or 'op'", where)

    inputs = doc.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ParseError("inputs must be an object", "top")
    for reg, v in inputs.items():
        if not _is_int(v):
            raise ParseError(f"value of '{reg}' must be an integer", "inputs")
    program = ScheduledProgram(functions=tuple(functions), dependencies=tuple(deps),
                               main_sequence=tuple(main_items),
                               default_inputs={str(k): v & U32 for k, v in inputs.items()})
    try:
        program.topo_order()
    except ProgramError as exc:
        raise ParseError(str(exc), "dependencies") from None
    return program


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
                        "reg_widths": {k: r.reg_widths[k] for k in sorted(r.reg_widths)},
                        "ops": [
                            {"id": o.id, "opcode": o.opcode, "inputs": list(o.inputs),
                             "output": o.output, "start": o.start, "end": o.end,
                             **({"value": o.value} if o.opcode == "const" else {})}
                            for o in r.ops
                        ],
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
            {"call": x} if tag == "call" else {"op": {
                "id": x.id, "opcode": x.opcode, "inputs": list(x.inputs),
                "output": x.output, "start": x.start, "end": x.end,
                **({"value": x.value} if x.opcode == "const" else {})}}
            for tag, x in program.main_sequence
        ]}
    if program.default_inputs:
        doc["inputs"] = {k: program.default_inputs[k] for k in sorted(program.default_inputs)}
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

def _interp_region(region: Region, regs: Dict[str, int], widths: Mapping[str, int]) -> None:
    """Dict-based region interpreter: the reference evaluator."""
    for reg in region.live_in:
        if reg not in regs:
            if region.writer_end(reg) is not None:
                raise UnboundLiveInError(
                    f"loop-carried register {reg} has no initial value")
            raise UnboundLiveInError(f"live-in register {reg} is unbound")
    by_end: Dict[int, List[Operation]] = {}
    for op in region.ops:
        by_end.setdefault(op.end, []).append(op)
    for _ in range(region.iterations):
        for c in range(region.body_length):
            group = by_end.get(c)
            if not group:
                continue
            latched = []
            for op in group:
                if op.opcode == "const":
                    v = op.value
                elif op.opcode == "pass":
                    v = regs[op.inputs[0]]
                else:
                    a, b = regs[op.inputs[0]], regs[op.inputs[1]]
                    if op.opcode == "add":
                        v = (a + b) & U32
                    elif op.opcode == "sub":
                        v = (a - b) & U32
                    elif op.opcode == "mul":
                        v = (a * b) & U32
                    else:
                        v = a ^ b
                latched.append((op.output, v & ((1 << widths.get(op.output, 32)) - 1)))
            for reg, v in latched:
                regs[reg] = v


def _widths_map(program: ScheduledProgram) -> Dict[str, int]:
    widths: Dict[str, int] = {}
    for f in program.functions:
        for r in f.regions:
            widths.update(r.reg_widths)
    return widths


def all_registers(program: ScheduledProgram) -> List[str]:
    """Every register id, in deterministic order."""
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
    for tag, x in program.main_sequence:
        if tag == "op":
            for reg in x.inputs:
                seen.setdefault(reg, None)
            seen.setdefault(x.output, None)
    return list(seen)


def compile_program(program: ScheduledProgram) -> engine.CompiledProgram:
    """Flatten a normalized program for the execution engine."""
    widths = _widths_map(program)
    cp = engine.CompiledProgram(all_registers(program), widths)
    for f in program.functions:
        r = f.region
        cp.add_region(f.id, r.ops, r.body_length, r.iterations, widths)
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


def execute_reference(program: ScheduledProgram,
                      inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
    """Run every function to completion with no outages.

    Returns the FinalState: values of all result registers. Deterministic
    for a fixed program and inputs. Raw and normalized programs alike are
    stepped by the dict interpreter ``_interp_region``, which shares no
    code with the generated engine, so every consistency check of a simulated
    run also tests the engine, and transform equivalence tests compare the
    programs before and after a rewrite. Bound inputs are masked to their
    declared widths, as ``CompiledProgram.new_regfile`` does.
    """
    bound = dict(program.default_inputs)
    if inputs:
        bound.update(inputs)
    widths = _widths_map(program)
    regs = {reg: v & ((1 << widths.get(reg, 32)) - 1) for reg, v in bound.items()}
    _interp_program(program, regs, widths)
    return {reg: regs[reg] for reg in sorted(program.all_result_regs())}

