"""Cycle-accurate tracker values.

One tracker shadows each function. Its state is two counters: ``count``,
the binary counter over the body (the index of the next body cycle), and
``remaining``, the body cycles left until the function completes, which
stands in for the iteration counter. A tracker is a value, immutable by
contract: nothing assigns its fields after it is built, so ``advance``
and ``restore`` return new ones, and states of a run may share it. It is
a ``__slots__`` record with a plain ``__init__``, not a frozen class,
because the scheduler builds one per running tracker at every step, and
a frozen one, which sets each field through ``object.__setattr__``,
costs about three times as much to build. Its head and tail locks
follow from the scheduler's finished functions: a tail lock reads 1 once
its function is done, and a head lock is the AND of its predecessors'
tail locks (constant 1 for an entry function).

Status encoding at a cycle boundary (counters tick before any snapshot):
a running tracker reports the number of body cycles completed this
iteration - ``count`` itself mid-iteration, ``body_length`` at an
iteration seam (the counter counts up to the wrap bound before
resetting), and 0 when nothing has completed. Status 0 therefore always
means "nothing to store", which is what the zero row of the address
table encodes.
"""

from __future__ import annotations

from typing import Collection, Dict, Mapping, Sequence, Tuple

from .liveness import TRACKED, LiveSetTable, TrackerSpec
from .program import ProgramError, Record


class TrackerContractError(ProgramError):
    pass


class StatusCorruptionError(ProgramError):
    pass


class TrackerState(Record):
    """One tracker's counters, immutable by contract: never assigned after
    it is built, so it is compared and hashed by its fields, although
    they could be set."""

    __slots__ = ("spec", "count", "remaining")

    def __init__(self, spec: TrackerSpec, count: int, remaining: int):
        self.spec = spec
        self.count = count              # next body cycle to execute, [0, body_length)
        self.remaining = remaining      # body cycles left until the function completes

    def advance(self, cycles: int) -> "TrackerState":
        """The tracker after ``cycles`` more body cycles, wrapping the
        counter at each iteration seam."""
        if cycles > self.remaining:
            raise TrackerContractError("advance past function end")
        return TrackerState(self.spec, (self.count + cycles) % self.spec.body_length,
                            self.remaining - cycles)

    def boundary_status(self) -> int:
        """Completed-cycle encoding of the current boundary (0 = nothing,
        and for a tracker that has not started or has finished)."""
        if self.count:
            return self.count
        spec = self.spec
        return spec.body_length if 0 < self.remaining < spec.max_cycles else 0


def can_start(fid: str, preds: Mapping[str, Sequence[str]],
              done: Collection[str]) -> bool:
    """Whether ``fid``'s head lock reads 1: the AND of its predecessors'
    tail locks, each of which reads 1 once its function is in ``done``."""
    return all(p in done for p in preds[fid])


def make_trackers(specs: Mapping[str, TrackerSpec]) -> Dict[str, TrackerState]:
    """The tracker of each function before its first cycle."""
    return {fid: TrackerState(spec, 0, spec.max_cycles) for fid, spec in specs.items()}


def snapshot(trackers: Mapping[str, TrackerState],
             boundary: Mapping[str, int]) -> Dict[str, int]:
    """Statuses emitted on power loss, given each tracker's boundary status.

    A tracked function emits its boundary status; a store-all one has no
    counter and emits 1 (its single address row) whenever it has completed
    work to preserve.
    """
    return {fid: 1 if s and trackers[fid].spec.mode != TRACKED else s
            for fid, s in boundary.items()}


def restore(trackers: Mapping[str, TrackerState], statuses: Mapping[str, int],
            live_tables: Mapping[str, LiveSetTable]
            ) -> Tuple[Dict[str, TrackerState], Dict[str, int]]:
    """Roll trackers back to their resume points.

    ``statuses`` must be the trackers' boundary statuses (not the
    store-all row alias). A tracker at status s > 0 moves back to the
    cycle after the resume point of its last completed cycle s - 1
    (``LiveSetTable.resume``), so every operation in flight at the
    interruption re-launches; one at status 0 stays as it is. Returns the
    rolled-back trackers and the per-function rollback cycles.

    Raises StatusCorruptionError when a status is outside the counter
    range [0, body_length].
    """
    rolled: Dict[str, TrackerState] = {}
    rollback: Dict[str, int] = {}
    for fid, tr in trackers.items():
        back = 0
        s = statuses.get(fid, 0)
        if s:
            spec = tr.spec
            if not 0 < s <= spec.body_length:
                raise StatusCorruptionError(
                    f"status {s} of {fid} is outside the counter range [0, {spec.body_length}]")
            back = s - 1 - live_tables[fid].resume[s - 1]
            if back:
                tr = TrackerState(spec, (tr.count - back) % spec.body_length,
                                  tr.remaining + back)
        rolled[fid] = tr
        rollback[fid] = back
    return rolled, rollback
