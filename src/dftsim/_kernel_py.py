"""Pure-Python cycle-stepping kernel.

Steps the partial iterations at the head and tail of a span (whole
iterations run in code generated per region, see ``engine``). Fallback
for the compiled kernel in ``_kernel.pyx``; semantics must match it
exactly (see tests/test_kernel.py).

Opcode encoding shared with the compiled kernel:
    0 const, 1 pass, 2 add, 3 sub, 4 mul, 5 xor
Values are 32-bit unsigned with wrapping arithmetic; ``mask`` narrows the
result to the output register's declared width.
"""

COMPILED = False

_U32 = 0xFFFFFFFF


def run_cycles(ptr, opc, a, b, out, imm, mask, regs, scratch, c_lo, c_hi):
    """Latch every operation ending in body cycles [c_lo, c_hi).

    Operations latching in the same cycle read pre-edge register values:
    all values for a cycle are computed before any is written back.
    """
    for c in range(c_lo, c_hi):
        i0 = ptr[c]
        i1 = ptr[c + 1]
        if i0 == i1:
            continue
        for i in range(i0, i1):
            op = opc[i]
            if op == 0:
                v = imm[i]
            else:
                av = int(regs[a[i]])
                if op == 1:
                    v = av
                else:
                    bv = int(regs[b[i]])
                    if op == 2:
                        v = (av + bv) & _U32
                    elif op == 3:
                        v = (av - bv) & _U32
                    elif op == 4:
                        v = (av * bv) & _U32
                    else:
                        v = av ^ bv
            scratch[i - i0] = v & mask[i]
        for i in range(i0, i1):
            regs[out[i]] = scratch[i - i0]
