"""Reference results, computed from their definitions.

``reference_region`` steps a region cycle by cycle, decoding every op at
every latch, as the literal definition of the reference interpreter
``program._interp_region``. The outage-path references read only the
offline outputs (live sets, tracker plan, placement) and share no code
with ``control_unit.lookup`` or ``powersim``, so tests can hold the
simulator's fast paths to them.
"""

from dftsim.liveness import TRACKED
from dftsim.program import U32, UnboundLiveInError


def reference_region(region, regs, widths):
    """Step ``region`` on the dict ``regs``: in each body cycle, every op
    ending there reads its inputs, and then all of them latch their
    results, wrapped to 32 bits and masked to their declared widths."""
    for reg in region.live_in:
        if reg not in regs:
            if reg in region.written_regs():
                raise UnboundLiveInError(
                    f"loop-carried register {reg} has no initial value")
            raise UnboundLiveInError(f"live-in register {reg} is unbound")
    by_end = {}
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


def slice_indices(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def reference_store_set(prep, statuses, done):
    """(FFs stored, SLICEs stored, lost register indices) of a ``dft``
    outage, given the emitted status of each running tracker and the
    finished functions: for each non-zero status, the live set at its
    resume point (every register of a store-all function); the result
    registers of the finished functions; and the tracker region."""
    placement = prep.placement
    regs = set()
    for fid, status in statuses.items():
        if not status:
            continue
        if prep.specs[fid].mode == TRACKED:
            table = prep.live_tables[fid]
            regs |= table.live[table.resume[status - 1]]
        else:
            region = prep.program.function(fid).region
            regs |= set(region.written_regs()) | set(region.live_in)
    for f in done:
        regs |= prep.program.function(f).result_regs
    stored = set()
    for mask in placement.trackers.values():
        stored |= slice_indices(mask)
    for reg in regs:
        stored |= slice_indices(placement.regs[reg])
    index = prep.compiled.reg_index
    lost = tuple(index[reg] for reg, mask in placement.regs.items()
                 if not slice_indices(mask) <= stored)
    return sum(placement.slice_ffs[i] for i in stored), len(stored), lost
