"""Execution engine: compiles regions to flat arrays and steps body cycles.

``CompiledRegion.run`` steps any span of a region's unrolled iterations in
one call. Whole iterations run in a straight-line Python function
generated for the region on its first use: registers live in locals,
every op latching in a cycle is computed before any of them is written
back, and the width masks are folded into constants. Partial iterations
at the head and tail of a span go through the cycle-stepping kernel,
which lives in a compiled extension when available; a pure-Python kernel
with identical semantics is selected at import time otherwise. Set
``DFTSIM_PURE_PYTHON=1`` to force the fallback. tests/test_kernel.py
checks both paths against the dict interpreter ``program._interp_region``.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Mapping

import numpy as np

from . import _kernel_py

if os.environ.get("DFTSIM_PURE_PYTHON"):
    _impl = _kernel_py
else:
    try:
        from . import _kernel as _impl  # type: ignore[attr-defined]
    except ImportError:
        _impl = _kernel_py

KERNEL_NAME = "compiled" if _impl.COMPILED else "python"

_U32 = 0xFFFFFFFF

_OPCODES = {"const": 0, "pass": 1, "add": 2, "sub": 3, "mul": 4, "xor": 5}


class CompiledRegion:
    """One region body flattened into latch-order arrays.

    Operations are grouped by end cycle; ``ptr[c]:ptr[c+1]`` slices the
    per-op arrays for the group latching at cycle ``c``.
    """

    __slots__ = (
        "body_length", "iterations", "n_ops",
        "ptr", "opc", "a", "b", "out", "imm", "mask", "scratch", "_iterate",
    )

    def __init__(self, ops, body_length: int, iterations: int,
                 reg_index: Mapping[str, int], widths: Mapping[str, int]):
        self.body_length = body_length
        self.iterations = iterations
        order = sorted(range(len(ops)), key=lambda i: (ops[i].end, i))
        self.n_ops = len(ops)
        ptr = np.zeros(body_length + 1, dtype=np.int64)
        opc = np.zeros(self.n_ops, dtype=np.int8)
        a = np.full(self.n_ops, -1, dtype=np.intc)
        b = np.full(self.n_ops, -1, dtype=np.intc)
        out = np.zeros(self.n_ops, dtype=np.intc)
        imm = np.zeros(self.n_ops, dtype=np.uint64)
        mask = np.zeros(self.n_ops, dtype=np.uint64)
        max_group = 0
        k = 0
        for c in range(body_length):
            ptr[c] = k
            group = [i for i in order if ops[i].end == c]
            # `order` is end-sorted; linear scan kept simple, compile is cold
            for i in group:
                op = ops[i]
                opc[k] = _OPCODES[op.opcode]
                if op.inputs:
                    a[k] = reg_index[op.inputs[0]]
                if len(op.inputs) > 1:
                    b[k] = reg_index[op.inputs[1]]
                out[k] = reg_index[op.output]
                imm[k] = op.value & _U32
                w = widths.get(op.output, 32)
                mask[k] = (1 << w) - 1
                k += 1
            max_group = max(max_group, len(group))
        ptr[body_length] = k
        self.ptr = ptr
        self.opc = opc
        self.a = a
        self.b = b
        self.out = out
        self.imm = imm
        self.mask = mask
        self.scratch = np.zeros(max(1, max_group), dtype=np.uint64)
        self._iterate = None

    def run(self, regs: np.ndarray, c_lo: int, c_hi: int) -> None:
        """Latch all ops ending in cycles [c_lo, c_hi) against ``regs``.

        ``c_lo`` is a body cycle in [0, body_length). ``c_hi`` may pass
        ``body_length``: cycle ``c`` of the span is then body cycle
        ``c % body_length`` of a later iteration.
        """
        L = self.body_length
        if c_lo:
            self._cycles(regs, c_lo, min(c_hi, L))
            if c_hi <= L:
                return
            c_hi -= L
        full, tail = divmod(c_hi, L)
        if full:
            if self._iterate is None:
                self._iterate = self._generate()
            self._iterate(regs, full)
        if tail:
            self._cycles(regs, 0, tail)

    def _cycles(self, regs: np.ndarray, c_lo: int, c_hi: int) -> None:
        _impl.run_cycles(self.ptr, self.opc, self.a, self.b, self.out,
                         self.imm, self.mask, regs, self.scratch, c_lo, c_hi)

    def _generate(self):
        """Compile ``iterate(regs, n)``, which runs n whole iterations.

        Each cycle's latch group becomes one tuple assignment, so every
        right-hand side reads the pre-edge values.
        """
        ptr, opc, a, b, out, imm, mask = (
            arr.tolist() for arr in (self.ptr, self.opc, self.a, self.b,
                                     self.out, self.imm, self.mask))
        reads = sorted({r for r in a + b if r >= 0})
        lines = ["def iterate(regs, n):"]
        lines += [f"    r{i} = int(regs[{i}])" for i in reads]
        lines.append("    for _ in range(n):")
        for c in range(self.body_length):
            group = range(ptr[c], ptr[c + 1])
            if not group:
                continue
            targets = ", ".join(f"r{out[i]}" for i in group)
            values = ", ".join(
                _EXPR[opc[i]].format(a=a[i], b=b[i], m=mask[i], k=imm[i] & mask[i])
                for i in group)
            lines.append(f"        {targets} = {values}")
        if not self.n_ops:
            lines.append("        pass")
        lines += [f"    regs[{i}] = r{i}" for i in sorted(set(out))]
        namespace: Dict[str, object] = {}
        exec("\n".join(lines), namespace)
        return namespace["iterate"]


# Value of each opcode with the output mask folded in; the mask is at most
# 32 bits, so it subsumes the 32-bit wrap.
_EXPR = {
    0: "{k}",
    1: "r{a} & {m}",
    2: "(r{a} + r{b}) & {m}",
    3: "(r{a} - r{b}) & {m}",
    4: "(r{a} * r{b}) & {m}",
    5: "(r{a} ^ r{b}) & {m}",
}


class CompiledProgram:
    """Register index plus one CompiledRegion per (normalized) function."""

    def __init__(self, reg_ids: Iterable[str], widths: Mapping[str, int]):
        self.reg_index: Dict[str, int] = {}
        self.widths: List[int] = []
        for rid in reg_ids:
            self.reg_index[rid] = len(self.widths)
            self.widths.append(widths.get(rid, 32))
        self.regions: Dict[str, CompiledRegion] = {}

    def add_region(self, function_id: str, ops, body_length: int,
                   iterations: int, widths: Mapping[str, int]) -> None:
        self.regions[function_id] = CompiledRegion(
            ops, body_length, iterations, self.reg_index, widths)

    def new_regfile(self, inputs: Mapping[str, int]) -> np.ndarray:
        regs = np.zeros(len(self.reg_index), dtype=np.uint64)
        for rid, value in inputs.items():
            idx = self.reg_index.get(rid)
            if idx is not None:
                regs[idx] = value & ((1 << self.widths[idx]) - 1)
        return regs
