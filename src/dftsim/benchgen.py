"""Synthetic benchmark programs shaped like real HLS workloads.

Shapes control only structure: state counts, body lengths, loop depths,
register counts and widths, multi-cycle density. Operation content is
random but deterministic for a fixed seed, honors def-before-use, and
always passes validation. Programs come out as chains of single-region
functions, each state feeding its results to the next, so they are
already normalized.

Six presets ship with the package (adpcm, aes, gsm, float, global,
struct), scaled to run comparison experiments at desk size while keeping
the structural relationships of the originals: adpcm is many mid-size
looping states, gsm carries several states of over a thousand cycles,
struct is two long states over a handful of registers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Sequence, Tuple

from .program import (
    LOOP,
    STRAIGHT,
    U32,
    FunctionSchedule,
    Operation,
    ProgramError,
    Region,
    ScheduledProgram,
    validate,
)

PRESETS = ("adpcm", "aes", "gsm", "float", "global", "struct")

_BINARY_OPS = ("add", "sub", "mul", "xor")


class InfeasibleShape(ProgramError):
    pass


@dataclass(frozen=True)
class BenchmarkShape:
    name: str
    states: int
    body_length: Tuple[int, int]        # inclusive range
    iterations: Tuple[int, int]
    ops_per_state: Tuple[int, int]
    result_regs: int
    reg_width: int = 32
    multicycle_frac: float = 0.2
    max_span: int = 4
    accumulators: int = 0
    seed: int = 1

    def check(self) -> None:
        if self.states < 1:
            raise InfeasibleShape("need at least one state")
        if self.body_length[0] < 1 or self.body_length[0] > self.body_length[1]:
            raise InfeasibleShape("bad body_length range")
        if self.iterations[0] < 1 or self.iterations[0] > self.iterations[1]:
            raise InfeasibleShape("bad iterations range")
        if self.result_regs > self.ops_per_state[0]:
            raise InfeasibleShape("more result registers than operations")
        if self.max_span >= self.body_length[0]:
            raise InfeasibleShape("max_span does not fit the shortest body")


def load_shape(text: str) -> BenchmarkShape:
    doc = json.loads(text)
    return BenchmarkShape(
        name=doc["name"], states=doc["states"],
        body_length=tuple(doc["body_length"]),
        iterations=tuple(doc["iterations"]),
        ops_per_state=tuple(doc["ops_per_state"]),
        result_regs=doc["result_regs"],
        reg_width=doc.get("reg_width", 32),
        multicycle_frac=doc.get("multicycle_frac", 0.2),
        max_span=doc.get("max_span", 4),
        accumulators=doc.get("accumulators", 0),
        seed=doc.get("seed", 1))


def preset_shape(name: str) -> BenchmarkShape:
    if name not in PRESETS:
        raise KeyError(f"unknown preset '{name}' (have {', '.join(PRESETS)})")
    text = resources.files("dftsim").joinpath(f"presets/{name}.json").read_text()
    return load_shape(text)


def _gen_state(shape: BenchmarkShape, rng: random.Random, index: int,
               feed_regs: Sequence[str], inputs: Dict[str, int]) -> FunctionSchedule:
    L = rng.randint(*shape.body_length)
    t = rng.randint(*shape.iterations)
    n_ops = rng.randint(*shape.ops_per_state)
    prefix = f"{shape.name}{index}"

    live_in: List[str] = list(feed_regs)
    avail: List[Tuple[str, int]] = [(reg, 0) for reg in live_in]
    ops: List[Operation] = []
    widths: Dict[str, int] = {}

    for j in range(n_ops):
        span = 0
        if rng.random() < shape.multicycle_frac and L > shape.max_span + 1:
            span = rng.randint(1, shape.max_span)
        start = rng.randint(0, L - 1 - span)
        end = start + span
        eligible = [reg for reg, ready in avail if ready <= start]
        out = f"{prefix}_r{j}"
        if not eligible:
            op = Operation(id=f"{prefix}_op{j}", opcode="const", inputs=(),
                           output=out, start=start, end=end,
                           value=rng.getrandbits(32))
        else:
            recent = eligible[-6:]
            opcode = rng.choice(_BINARY_OPS)
            a = rng.choice(recent)
            b = rng.choice(recent)
            op = Operation(id=f"{prefix}_op{j}", opcode=opcode, inputs=(a, b),
                           output=out, start=start, end=end)
        ops.append(op)
        avail.append((out, end + 1))
        widths[out] = shape.reg_width

    accs: List[str] = []
    if t > 1 and shape.accumulators:
        interior = {c for op in ops for c in range(op.start + 1, op.end)}
        free = sorted(set(range(L)) - interior)
        for a in range(shape.accumulators):
            if not free:
                raise InfeasibleShape(
                    f"no span-free cycle left for an accumulator in state {index}")
            c = free[rng.randrange(len(free))]
            acc = f"{prefix}_acc{a}"
            eligible = [reg for reg, ready in avail if ready <= c]
            step = rng.choice(eligible[-6:]) if eligible else acc
            ops.append(Operation(id=f"{prefix}_accop{a}", opcode="add",
                                 inputs=(acc, step), output=acc, start=c, end=c))
            live_in.append(acc)
            accs.append(acc)
            widths[acc] = shape.reg_width
            inputs[acc] = rng.getrandbits(32)

    # results: accumulators first, then the latest-latching outputs
    late = sorted((op for op in ops if op.output not in accs),
                  key=lambda op: (-op.end, op.id))
    results = (accs + [op.output for op in late])[:shape.result_regs]

    for reg in live_in:
        if reg in inputs and reg not in widths:
            widths[reg] = shape.reg_width  # program inputs owned here

    region = Region(kind=LOOP if t > 1 else STRAIGHT, iterations=t,
                    body_length=L, live_in=tuple(sorted(set(live_in))),
                    ops=tuple(ops), reg_widths=widths)
    return FunctionSchedule(id=f"{shape.name}_f{index}", regions=(region,),
                            result_regs=frozenset(results))


def generate(shape: BenchmarkShape) -> ScheduledProgram:
    """Deterministic chain-of-states program for the given shape."""
    shape.check()
    rng = random.Random(shape.seed)
    inputs: Dict[str, int] = {}
    entry_inputs = [f"{shape.name}_in{k}" for k in range(max(2, shape.result_regs))]
    for reg in entry_inputs:
        inputs[reg] = rng.getrandbits(32)

    functions: List[FunctionSchedule] = []
    deps: List[Tuple[str, str]] = []
    feed: Sequence[str] = entry_inputs
    for i in range(shape.states):
        f = _gen_state(shape, rng, i, feed, inputs)
        if functions:
            deps.append((functions[-1].id, f.id))
        functions.append(f)
        feed = sorted(f.result_regs)

    program = ScheduledProgram(
        functions=tuple(functions), dependencies=tuple(deps),
        default_inputs={k: inputs[k] & U32 for k in sorted(inputs)})
    problems = validate(program)
    if problems:
        raise InfeasibleShape(f"generated program failed validation: {problems[0]}")
    return program


def preset_program(name: str) -> ScheduledProgram:
    return generate(preset_shape(name))


def random_small_shape(seed: int) -> BenchmarkShape:
    """Small program shapes for exhaustive crash-consistency sweeps.

    Total progress stays under 200 cycles so a single-outage sweep over
    every position remains cheap.
    """
    rng = random.Random(seed)
    states = rng.randint(2, 3)
    body_hi = 32 if states > 2 else 48
    lo = rng.randint(6, 10)
    return BenchmarkShape(
        name=f"rnd{seed}", states=states,
        body_length=(lo, max(lo, rng.randint(lo, body_hi))),
        iterations=(1, 2),
        ops_per_state=(4, 9),
        result_regs=2,
        reg_width=rng.choice((8, 16, 32)),
        multicycle_frac=0.3,
        max_span=5,
        accumulators=1,
        seed=seed * 7919 + 13)
