"""Function hierarchy normalization: split, merge, and their fixpoint.

Trackers follow one region per function, so before mapping a program every
function must carry exactly one trackable region and no operations may
float loose under the main sequence. ``split`` breaks a multi-region
function into a chain of single-region fragments, threading cross-fragment
values through result/live-in registers; ``merge`` wraps contiguous runs
of loose main-level operations into new straight-line functions.

Both transformations preserve reference-execution results on all original
result registers; ``normalize`` composes them and is idempotent.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set, Tuple

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


def split(function: FunctionSchedule) -> List[FunctionSchedule]:
    """Split a function into one single-region fragment per region.

    Fragments keep source order and are meant to be chained sequentially
    by the caller. Two kinds of register cross a fragment boundary, each
    threaded through fragment result and live-in registers: values written
    by an earlier fragment, and live-ins that no region of the function
    writes (inputs or predecessor results), carried from the first
    fragment to the one that reads them.

    A register that a later fragment both reads first and updates (a
    loop-carried value whose initial value comes from outside) is not
    threaded. Under the single-writer rule that fragment is its only
    writer, so its pre-run value can only be a program input, which the
    fragment reads directly; ``powersim`` reloads such values from the
    non-volatile input buffer after an outage.
    """
    regions = function.regions
    if len(regions) == 1:
        return [function]

    n = len(regions)
    writer_region: Dict[str, int] = {}
    for i, region in enumerate(regions):
        for op in region.ops:
            writer_region[op.output] = i
    written = [set(r.written_regs()) for r in regions]

    # flow[b]: registers that must cross the boundary ahead of fragment b
    flow: List[Set[str]] = [set() for _ in range(n)]
    for k, region in enumerate(regions):
        for reg in region.live_in:
            w = writer_region.get(reg)
            if w == k:
                continue
            if w is not None and w > k:
                raise SplitError(
                    f"split dataflow break: {function.id} region {k} reads {reg} "
                    f"written only by later region {w}")
            src = w if (w is not None and w < k) else -1
            for b in range(max(src + 1, 1), k + 1):
                flow[b].add(reg)

    # results never written inside the function ride the whole chain
    passthrough = {reg for reg in function.result_regs if reg not in writer_region}
    for b in range(1, n):
        flow[b] |= passthrough

    fragments: List[FunctionSchedule] = []
    for j, region in enumerate(regions):
        live = set(region.live_in)
        if j == 0:
            live |= {reg for reg in flow[1] if reg not in written[0]}
            live |= passthrough
        else:
            live |= flow[j]
        results = set(function.result_regs) & written[j]
        if j < n - 1:
            results |= flow[j + 1]
        else:
            results |= passthrough
        fragments.append(FunctionSchedule(
            id=f"{function.id}__s{j}",
            regions=(replace(region, live_in=tuple(sorted(live))),),
            result_regs=frozenset(results)))
    return fragments


def merge(program: ScheduledProgram) -> ScheduledProgram:
    """Wrap loose main-level operations into straight-line functions.

    Each contiguous run of ops between calls becomes a new function placed
    at its position in the main chain; the main sequence itself induces
    sequential dependencies between consecutive items. Data edges from
    earlier producers to a wrapped run are added explicitly, exporting the
    producer's register as a result where needed.
    """
    if not program.main_sequence:
        return program

    functions = {f.id: f for f in program.functions}
    chain: List[str] = []          # item ids in main order
    new_functions: List[FunctionSchedule] = []
    run: List[Operation] = []
    run_index = 0

    def flush_run() -> None:
        nonlocal run, run_index
        if not run:
            return
        fid = f"main__m{run_index}"
        run_index += 1
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

    # export each wrapped output consumed by a later item as a result
    all_functions: Dict[str, FunctionSchedule] = dict(functions)
    for f in new_functions:
        all_functions[f.id] = f
    consumers_after: Dict[str, Set[str]] = {}
    for pos, fid in enumerate(chain):
        needs: Set[str] = set()
        for later in chain[pos + 1:]:
            for region in all_functions[later].regions:
                needs |= set(region.live_in)
        consumers_after[fid] = needs

    for i, f in enumerate(new_functions):
        produced = {op.output for op in f.regions[0].ops}
        exported = produced & consumers_after[f.id]
        new_functions[i] = replace(f, result_regs=frozenset(exported))
        all_functions[f.id] = new_functions[i]

    deps: Set[Tuple[str, str]] = set(program.dependencies)
    for a, b in zip(chain, chain[1:]):
        deps.add((a, b))

    # direct data edges for live-ins produced before the immediate pred
    writer_fn: Dict[str, str] = {}
    for fid in chain:
        for region in all_functions[fid].regions:
            for op in region.ops:
                writer_fn[op.output] = fid
    order = {fid: i for i, fid in enumerate(chain)}
    for fid in chain:
        f = all_functions[fid]
        for region in f.regions:
            for reg in region.live_in:
                src = writer_fn.get(reg)
                if src is None or src == fid:
                    continue
                if order.get(src, -1) < order.get(fid, -1) and (src, fid) not in deps:
                    deps.add((src, fid))
                if reg not in all_functions[src].result_regs:
                    src_f = all_functions[src]
                    all_functions[src] = replace(
                        src_f, result_regs=src_f.result_regs | {reg})

    ordered = [all_functions[f.id] for f in program.functions]
    ordered += [all_functions[f.id] for f in new_functions]
    return replace(program,
                   functions=tuple(ordered),
                   dependencies=tuple(sorted(deps)),
                   main_sequence=())


def normalize(program: ScheduledProgram) -> ScheduledProgram:
    """Merge then split until every function has exactly one region."""
    merged = merge(program)
    out_functions: List[FunctionSchedule] = []
    deps: Set[Tuple[str, str]] = set()
    first: Dict[str, str] = {}
    last: Dict[str, str] = {}
    for f in merged.functions:
        parts = split(f)
        first[f.id] = parts[0].id
        last[f.id] = parts[-1].id
        out_functions.extend(parts)
        for a, b in zip(parts, parts[1:]):
            deps.add((a.id, b.id))
    for pred, succ in merged.dependencies:
        deps.add((last[pred], first[succ]))

    return replace(merged,
                   functions=tuple(out_functions),
                   dependencies=tuple(sorted(deps)),
                   main_sequence=())
