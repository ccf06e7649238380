"""Execution engine: one generated Python function per distinct region body.

The register file is a plain list of ints indexed by ``reg_index``.
``CompiledRegion.run`` steps any span of a region's unrolled iterations in
one call to a generated function: registers live in locals and are written
back once, every op latching in a cycle is computed before any of them is
written back, and the width masks are folded into constants. The
function holds the body twice. A guarded copy, in which each latch cycle
runs only if it falls inside the requested cycles, steps the partial
iterations at the head and tail of a span, and the first whole
iterations. The rest of the whole iterations follow the settle rule
(loop-invariant code motion, Aho, Lam, Sethi & Ullman, *Compilers*,
§9.5). An op is *variant* if it lies on a dependency cycle through the
body, or reads a variant op's output; every other op is *invariant*, and
its value settles: after ``S`` whole iterations, the settle depth of the
body, every invariant register holds its final value, whatever the
registers held when the span started. So once a span has stepped ``S``
whole iterations through the guarded copy, an unguarded copy of the
variant ops alone steps the rest. Every ``benchgen`` body has
``S == 1``; its variant ops are 8% to 17% of the op executions of a
preset.

The generated source numbers a region's registers by local slot, so it
names no register index: a kernel is generated and compiled once per
distinct body in a process, and on a region's first run it is bound to
the region's register indices: its compiled code runs in a namespace
that holds them, and defines a ``span`` that reads them from there.
Regions that repeat a body at other registers, such as a chain inside a
larger program, share one compiled kernel.
tests/test_kernel.py checks every kind of span against the dict
interpreter ``program._interp_region``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Mapping

KERNEL_NAME = "python"

_U32 = 0xFFFFFFFF

# Value of each opcode, from its input register indices, with the output
# mask folded in; the mask is at most 32 bits, so it subsumes the 32-bit
# wrap.
_EXPR = {
    "const": "{k}",
    "pass": "r{0} & {m}",
    "add": "(r{0} + r{1}) & {m}",
    "sub": "(r{0} - r{1}) & {m}",
    "mul": "(r{0} * r{1}) & {m}",
    "xor": "(r{0} ^ r{1}) & {m}",
}


class CompiledRegion:
    """One region body, stepped by a kernel bound to it on first use."""

    __slots__ = ("body_length", "_ops", "_reg_index", "_widths", "_span")

    def __init__(self, ops, body_length: int, reg_index: Mapping[str, int],
                 widths: Mapping[str, int]):
        self.body_length = body_length
        self._ops = ops
        self._reg_index = reg_index
        self._widths = widths
        self._span = None

    def run(self, regs: List[int], c_lo: int, c_hi: int) -> None:
        """Latch all ops ending in cycles [c_lo, c_hi) against ``regs``.

        ``c_lo`` is a body cycle in [0, body_length). ``c_hi`` may pass
        ``body_length``: cycle ``c`` of the span is then body cycle
        ``c % body_length`` of a later iteration.
        """
        span = self._span
        if span is None:
            span = self._span = self._generate()
        span(regs, c_lo, c_hi)

    def _generate(self):
        """Return ``span(regs, lo, hi)`` bound to this region's registers.

        Registers are numbered by local slot in order of first use, and the
        source loads and writes back ``regs[iK]``, where the global ``iK``
        holds the register index of slot K. Regions with the same body thus
        have the same source, compiled once; binding a region runs that code
        in a namespace that maps each ``iK`` to its index.
        """
        source, slot = self._source()
        namespace = {f"i{s}": self._reg_index[r] for r, s in slot.items()}
        exec(_compile(source), namespace)
        return namespace["span"]

    def _source(self):
        """The kernel's source text and its register slots.

        Each cycle's latch group becomes one tuple assignment, so every
        right-hand side reads the pre-edge values. A span that starts
        mid-iteration, or ends within its first iteration, runs the
        guarded copy over [lo, min(hi, L)); so do the first ``S`` whole
        iterations (the settle depth, see ``_settle``), which ``f``
        counts down. Later whole iterations run the variant ops alone (a
        latch group that mixes both keeps only its variant members), and
        a partial tail runs the guarded copy again over [0, hi % L).
        A body with ``S == 0`` has no invariant op, or writes a register
        twice, and runs every op in every whole iteration. Running the
        first whole iterations guarded, rather than through a third,
        unguarded copy, keeps the source short: compiling it is most of
        what a kernel costs a run.
        """
        L = self.body_length
        ops = [op for op in self._ops if 0 <= op.end < L]
        levels, settle = _settle(ops)
        by_end: Dict[int, list] = {}
        for i, op in enumerate(ops):
            by_end.setdefault(op.end, []).append(i)
        widths = self._widths
        slot: Dict[str, int] = {}
        guarded, variant = [], []
        for c in sorted(by_end):
            targets, values, moving = [], [], []
            for i in by_end[c]:
                op = ops[i]
                m = (1 << widths.get(op.output, 32)) - 1
                ins = [slot.setdefault(r, len(slot)) for r in op.inputs]
                targets.append(f"r{slot.setdefault(op.output, len(slot))}")
                values.append(_EXPR[op.opcode].format(*ins, m=m, k=op.value & _U32 & m))
                if not levels[i]:
                    moving.append(len(values) - 1)
            latch = f"{', '.join(targets)} = {', '.join(values)}"
            guarded.append(f"            if lo <= {c} < e: {latch}")
            if len(moving) == len(values):
                variant.append(f"                {latch}")
            elif moving:
                variant.append(f"                {', '.join(targets[k] for k in moving)} = "
                               f"{', '.join(values[k] for k in moving)}")

        # A guarded span may skip a register's writer, so every register
        # written back is loaded first.
        lines = ["def span(regs, lo, hi):"]
        lines += [f"    r{s} = regs[i{s}]" for s in range(len(slot))]
        if settle:
            lines.append(f"    f = {settle}")
        lines += ["    while True:",
                  f"        if lo or hi < {L}{' or f' if settle else ''}:",
                  f"            e = hi if hi < {L} else {L}",
                  *guarded,
                  f"            hi -= {L}",
                  "            if hi <= 0:",
                  "                break"]
        if settle:
            lines += ["            if not lo:",
                      "                f -= 1"]
        lines += ["            lo = 0",
                  "        else:"]
        if variant:
            lines += [f"            for _ in range(hi // {L}):", *variant]
        lines += [f"            hi %= {L}",
                  "            if not hi:",
                  "                break"]
        lines += [f"    regs[i{s}] = r{s}" for s in sorted({slot[op.output] for op in ops})]
        return "\n".join(lines), slot


def _settle(ops):
    """Settle levels of a body's latching ops, and its settle depth.

    Returns ``(levels, S)``: ``levels[i]`` is 0 when ``ops[i]`` is variant
    and its settle level otherwise, and ``S`` is the largest level (0 when
    there is none). An invariant op ``o`` settles at
    ``max(1, level(w) + (w.end >= o.end))`` over the writers ``w`` of its
    inputs: it reads the previous iteration's value of a writer that
    latches no earlier than it does. By induction it holds its final value
    from whole iteration ``level(o)`` on.
    The ops are taken in Kahn's topological order of the read-after-write
    graph, started in op order: an op settles once all its writers have,
    so the ops that never settle are exactly those on a cycle or
    downstream of one. A register written twice has no single writer to
    follow, so such a body (which ``validate`` rejects) gets ``S == 0``.
    """
    writer: Dict[str, int] = {}
    for i, op in enumerate(ops):
        if writer.setdefault(op.output, i) != i:
            return [0] * len(ops), 0
    readers: List[List[int]] = [[] for _ in ops]
    pending = [0] * len(ops)
    for j, op in enumerate(ops):
        for reg in op.inputs:
            w = writer.get(reg)
            if w is not None:
                readers[w].append(j)
                pending[j] += 1
    level = [1] * len(ops)
    settled = [j for j, n in enumerate(pending) if not n]
    for i in settled:           # grows as ops settle
        end, lv = ops[i].end, level[i]
        for j in readers[i]:
            up = lv + (end >= ops[j].end)
            if up > level[j]:
                level[j] = up
            pending[j] -= 1
            if not pending[j]:
                settled.append(j)
    levels = [0] * len(ops)
    for i in settled:
        levels[i] = level[i]
    return levels, max(levels, default=0)


# A body recurs within a few programs (a chain, then a larger program
# that holds it), so a small bound keeps every reuse.
@lru_cache(maxsize=128)
def _compile(source: str):
    """Compile a kernel's source once per text. The text holds every mask,
    constant, opcode, cycle and body length of a kernel, so equal texts
    are equal kernels."""
    return compile(source, "<kernel>", "exec")


class CompiledProgram:
    """Register index plus one CompiledRegion per (normalized) function."""

    def __init__(self, reg_ids: Iterable[str], widths: Mapping[str, int]):
        self.reg_index: Dict[str, int] = {}
        self.widths: List[int] = []
        for rid in reg_ids:
            self.reg_index[rid] = len(self.widths)
            self.widths.append(widths.get(rid, 32))
        self.regions: Dict[str, CompiledRegion] = {}

    def new_regfile(self, inputs: Mapping[str, int]) -> List[int]:
        regs = [0] * len(self.widths)
        for rid, value in inputs.items():
            idx = self.reg_index.get(rid)
            if idx is not None:
                regs[idx] = value & ((1 << self.widths[idx]) - 1)
        return regs
