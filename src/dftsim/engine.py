"""Execution engine: one generated Python function per distinct region body.

The register file is a plain list of ints indexed by ``reg_index``.
``CompiledRegion.run`` steps any span of a region's unrolled iterations in
one call to a generated function: registers live in locals and are written
back once, every op latching in a cycle is computed before any of them is
written back, and the width masks are folded into constants. The function
holds the body twice: a guarded copy, in which each latch cycle runs only
if it falls inside the requested cycles, steps the partial iterations at
the head and tail of a span, and an unguarded copy in a loop steps the
whole iterations between them.

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
        Each cycle's latch group becomes one tuple assignment, so every
        right-hand side reads the pre-edge values. A span that starts
        mid-iteration, or ends within its first iteration, runs the
        guarded copy over [lo, min(hi, L)); whole iterations follow, and a
        partial tail runs the guarded copy again over [0, hi % L).
        """
        L = self.body_length
        slot: Dict[str, int] = {}
        by_end: Dict[int, list] = {}
        for op in self._ops:
            by_end.setdefault(op.end, []).append(op)
        groups = []
        written = set()
        for c in range(L):
            group = by_end.get(c)
            if not group:
                continue
            targets, values = [], []
            for op in group:
                m = (1 << self._widths.get(op.output, 32)) - 1
                ins = [slot.setdefault(r, len(slot)) for r in op.inputs]
                out = slot.setdefault(op.output, len(slot))
                written.add(out)
                targets.append(f"r{out}")
                values.append(_EXPR[op.opcode].format(*ins, m=m, k=op.value & _U32 & m))
            groups.append((c, ", ".join(targets), ", ".join(values)))

        # A guarded span may skip a register's writer, so every register
        # written back is loaded first.
        lines = ["def span(regs, lo, hi):"]
        lines += [f"    r{s} = regs[i{s}]" for s in range(len(slot))]
        lines += ["    while True:",
                  f"        if lo or hi < {L}:",
                  f"            e = hi if hi < {L} else {L}"]
        for c, targets, values in groups:
            lines += [f"            if lo <= {c} < e:",
                      f"                {targets} = {values}"]
        lines += [f"            hi -= {L}",
                  "            if hi <= 0:",
                  "                break",
                  "            lo = 0",
                  f"        for _ in range(hi // {L}):"]
        lines += [f"            {targets} = {values}" for _, targets, values in groups]
        if not groups:
            lines.append("            pass")
        lines += [f"        hi %= {L}",
                  "        if not hi:",
                  "            break"]
        lines += [f"    regs[i{s}] = r{s}" for s in sorted(written)]
        namespace = {f"i{s}": self._reg_index[r] for r, s in slot.items()}
        exec(_compile("\n".join(lines)), namespace)
        return namespace["span"]


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
