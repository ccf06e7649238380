"""Reference results of the outage path, computed from their definitions.

They read only the offline outputs (live sets, tracker plan, placement)
and share no code with ``control_unit.lookup`` or ``powersim``, so tests
can hold the simulator's fast paths to them.
"""

from dftsim.liveness import TRACKED


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
