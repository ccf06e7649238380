"""Cycle-accurate tracker state machines.

One tracker shadows each function: a binary counter over the body, an
iteration counter for loops, head/tail locks serializing starts in
dependency order, and a status value emitted on power loss.

Status encoding at a cycle boundary (counters tick before any snapshot):
``count`` holds the index of the next body cycle, so a running tracker
reports the number of body cycles completed this iteration - ``count``
itself mid-iteration, ``body_length`` at an iteration seam (the counter
counts up to the wrap bound before resetting), and 0 when nothing has
completed. Status 0 therefore always means "nothing to store", which is
what the zero row of the address table encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from .liveness import LiveSetTable, TrackerSpec
from .program import ProgramError

IDLE = "idle"
RUNNING = "running"
DONE = "done"


class TrackerContractError(ProgramError):
    pass


class StatusCorruptionError(ProgramError):
    pass


@dataclass
class TrackerState:
    spec: TrackerSpec
    count: int = 0          # next body cycle to execute, [0, body_length)
    iter_: int = 0          # completed iterations, [0, iterations]
    phase: str = IDLE
    lock_head: bool = False
    lock_tail: bool = False
    # Plain attributes, because the scheduler reads them on every event:
    # the counter wrap bound and the body cycles left until the function
    # completes. Every method that moves the counter keeps ``remaining``
    # equal to ``spec.max_cycles - (iter_ * body_length + count)``.
    body_length: int = field(init=False)
    remaining: int = field(init=False)

    def __post_init__(self) -> None:
        self.body_length = self.spec.body_length
        self.remaining = self.spec.max_cycles - self.iter_ * self.body_length - self.count

    def copy(self) -> "TrackerState":
        """An independent copy of every field."""
        new = object.__new__(TrackerState)
        new.__dict__.update(self.__dict__)
        return new

    def start(self) -> None:
        if self.phase != IDLE:
            raise TrackerContractError(f"start on {self.phase} tracker {self.spec.function_id}")
        self.phase = RUNNING
        self.lock_head = True
        self.count = 0
        self.iter_ = 0
        self.remaining = self.spec.max_cycles

    def advance(self, cycles: int) -> None:
        """Complete ``cycles`` body cycles, wrapping the counter at each
        iteration seam and terminating after the last iteration."""
        if self.phase != RUNNING:
            raise TrackerContractError(f"advance on {self.phase} tracker {self.spec.function_id}")
        if cycles > self.remaining:
            raise TrackerContractError("advance past function end")
        self.remaining -= cycles
        wraps, self.count = divmod(self.count + cycles, self.body_length)
        self.iter_ += wraps
        if not self.remaining:
            self.phase = DONE
            self.lock_tail = True

    def boundary_status(self) -> int:
        """Completed-cycle encoding of the current boundary (0 = nothing)."""
        if self.phase != RUNNING:
            return 0
        if self.count > 0:
            return self.count
        return self.body_length if self.iter_ > 0 else 0


def can_start(tracker: TrackerState, pred_lock_tails: Iterable[bool] = ()) -> bool:
    """A tracker may start when its head lock source reads 1.

    Entry trackers have lock_head pre-set to 1; a tracker with
    predecessors sees the conjunction of their tail locks.
    """
    if tracker.phase != IDLE:
        return False
    tails = list(pred_lock_tails)
    if tails:
        return all(tails)
    return tracker.lock_head


def make_trackers(program, specs: Mapping[str, TrackerSpec]) -> Dict[str, TrackerState]:
    """Idle tracker per function; entry trackers get the constant-1 head lock."""
    entries = program.entry_ids
    return {
        fid: TrackerState(spec=specs[fid], lock_head=(fid in entries))
        for fid in (f.id for f in program.functions)
    }


def snapshot(trackers: Mapping[str, TrackerState]) -> Dict[str, int]:
    """Statuses emitted on power loss.

    Running trackers report their boundary count; store-all trackers have
    no counter and report 1 (their single address row) whenever they have
    completed work to preserve. Idle and Done trackers report 0.
    """
    out: Dict[str, int] = {}
    for fid, tr in trackers.items():
        s = tr.boundary_status()
        if s and tr.spec.mode != "tracked":
            s = 1
        out[fid] = s
    return out


def restore(trackers: Mapping[str, TrackerState], statuses: Mapping[str, int],
            live_tables: Mapping[str, LiveSetTable]) -> Dict[str, int]:
    """Roll running trackers back to their resume points.

    ``statuses`` must be boundary encodings (not the store-all row alias).
    Phase, iteration and locks are recovered as stored; a running
    tracker's count moves back to the cycle after the resume point of its
    last completed cycle (``LiveSetTable.resume``), so every operation in
    flight at the interruption re-launches. Returns the per-function
    rollback cycles.

    Raises StatusCorruptionError when a status exceeds the counter range.
    """
    rollback: Dict[str, int] = {}
    for fid, tr in trackers.items():
        s = statuses.get(fid, 0)
        L = tr.body_length
        if s > L:
            raise StatusCorruptionError(
                f"status {s} of {fid} exceeds body length {L}")
        if tr.phase != RUNNING or s == 0:
            rollback[fid] = 0
            continue
        n = s - 1
        r = live_tables[fid].resume[n]
        tr.count = (r + 1) % L
        tr.remaining = tr.spec.max_cycles - tr.iter_ * L - tr.count
        rollback[fid] = n - r
    return rollback
