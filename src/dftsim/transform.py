"""Function hierarchy normalization: split, merge, and their fixpoint.

Trackers follow one region per function, so before mapping a program every
function must carry exactly one trackable region and no operations may
float loose under the main sequence. ``split`` breaks a multi-region
function into a chain of single-region fragments; ``merge`` wraps
contiguous runs of loose main-level operations into new straight-line
functions. Both move a value between functions by one rule, ``_link``: a
function that reads a register written by one of its ancestors depends on
that writer directly, and the writer returns the register, as Chain's
channels carry data straight from the task that writes it to the task that
reads it. A program input has no writer and a loop-carried register is
written by its reader, so neither is linked.

Both transformations preserve reference-execution results on all original
result registers; ``normalize`` composes them and is idempotent.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Set, Tuple

from .program import (
    STRAIGHT,
    FunctionSchedule,
    Operation,
    ProgramError,
    Region,
    ScheduledProgram,
)


class SplitError(ProgramError):
    pass


def _check_fresh(fid: str, origin: str, taken: AbstractSet[str]) -> None:
    """Reject a generated function id that a function of the input has."""
    if fid in taken:
        raise ProgramError(f"function id {fid}, made from {origin}, is already taken")


def _link(functions: Iterable[FunctionSchedule],
          deps: Set[Tuple[str, str]]) -> Tuple[FunctionSchedule, ...]:
    """Give each read of a register that an ancestor in ``deps`` writes a
    direct edge (writer, reader) in ``deps``, and make the writer return it."""
    functions = tuple(functions)
    writer = {op.output: f.id for f in functions for region in f.regions for op in region.ops}
    preds: Dict[str, Set[str]] = {f.id: set() for f in functions}
    for a, b in deps:
        preds[b].add(a)

    def ancestors(fid: str) -> Set[str]:
        seen, todo = set(), set(preds[fid])
        while todo:
            p = todo.pop()
            seen.add(p)
            todo |= preds[p] - seen
        return seen

    results = {f.id: f.result_regs for f in functions}
    for f in functions:
        for region in f.regions:
            for reg in region.live_in:
                src = writer.get(reg, f.id)
                if src != f.id and ((src, f.id) in deps or src in ancestors(f.id)):
                    deps.add((src, f.id))
                    if reg not in results[src]:
                        results[src] = results[src] | {reg}
    return tuple(f if results[f.id] is f.result_regs else f._replace(result_regs=results[f.id])
                 for f in functions)


def split(function: FunctionSchedule) -> List[FunctionSchedule]:
    """Split a function into one single-region fragment per region.

    Fragments keep source order, for the caller to chain and ``_link``.
    Each returns the function's results that its region writes; the last
    also reads and returns every result that no region writes. A region
    that reads what only a later region writes raises ``SplitError``.
    """
    regions = function.regions
    if len(regions) == 1:
        return [function]

    writer_region = {op.output: i for i, region in enumerate(regions) for op in region.ops}
    for k, region in enumerate(regions):
        for reg in region.live_in:
            w = writer_region.get(reg, k)
            if w > k:
                raise SplitError(
                    f"split dataflow break: {function.id} region {k} reads {reg} "
                    f"written only by later region {w}")

    carried = function.result_regs.difference(writer_region)
    fragments: List[FunctionSchedule] = []
    for j, region in enumerate(regions):
        extra = carried if j == len(regions) - 1 else frozenset()
        fragments.append(FunctionSchedule(
            id=f"{function.id}__s{j}",
            regions=(region._replace(live_in=tuple(sorted(extra.union(region.live_in)))),),
            result_regs=(function.result_regs & set(region.written_regs())) | extra))
    return fragments


def merge(program: ScheduledProgram) -> ScheduledProgram:
    """Wrap loose main-level operations into straight-line functions.

    Each contiguous run of ops between calls becomes a new function placed
    at its position in the main chain. Consecutive chain items depend on
    each other, so ``_link`` gives an item that reads an earlier item's
    write a direct edge from that writer, which returns the register.
    """
    if not program.main_sequence:
        return program

    taken = {f.id for f in program.functions}
    chain: List[str] = []          # item ids in main order
    new_functions: List[FunctionSchedule] = []
    run: List[Operation] = []

    def flush_run() -> None:
        nonlocal run
        if not run:
            return
        fid = f"main__m{len(new_functions)}"
        _check_fresh(fid, "loose main-sequence ops", taken)
        outputs = {op.output for op in run}
        live = tuple(sorted({r for op in run for r in op.inputs} - outputs))
        region = Region(kind=STRAIGHT, iterations=1,
                        body_length=max(op.end for op in run) + 1,
                        live_in=live, ops=tuple(run))
        new_functions.append(FunctionSchedule(
            id=fid, regions=(region,), result_regs=frozenset()))
        chain.append(fid)
        run = []

    for tag, item in program.main_sequence:
        if tag == "op":
            run.append(item)
        else:
            flush_run()
            chain.append(item)
    flush_run()

    deps = set(program.dependencies) | set(zip(chain, chain[1:]))
    functions = _link((*program.functions, *new_functions), deps)
    return program._replace(functions=functions, dependencies=tuple(sorted(deps)),
                   main_sequence=())


def normalize(program: ScheduledProgram) -> ScheduledProgram:
    """Merge, then split every function into a chain of fragments that
    follows its predecessors and precedes its successors, and ``_link``
    each value read across fragments. A fragment id that the merged
    program already has is an error.
    """
    merged = merge(program)
    parts = {f.id: split(f) for f in merged.functions}
    deps: Set[Tuple[str, str]] = set()
    for fid, fragments in parts.items():
        if len(fragments) > 1:
            for j, g in enumerate(fragments):
                _check_fresh(g.id, f"region {j} of {fid}", parts.keys())
        deps.update((a.id, b.id) for a, b in zip(fragments, fragments[1:]))
    for pred, succ in merged.dependencies:
        deps.add((parts[pred][-1].id, parts[succ][0].id))

    functions = _link((g for fragments in parts.values() for g in fragments), deps)
    return merged._replace(functions=functions, dependencies=tuple(sorted(deps)))
