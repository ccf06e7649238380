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

from .liveness import TrackerSpec
from .program import ProgramError, Region

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
    status: int = 0         # last emitted status

    @property
    def body_length(self) -> int:
        return self.spec.body_length

    @property
    def elapsed(self) -> int:
        """Completed body cycles since start."""
        return self.iter_ * self.body_length + self.count

    @property
    def remaining(self) -> int:
        """Body cycles left until the function completes."""
        return self.spec.max_cycles - self.elapsed

    def start(self) -> None:
        if self.phase != IDLE:
            raise TrackerContractError(f"start on {self.phase} tracker {self.spec.function_id}")
        self.phase = RUNNING
        self.lock_head = True
        self.count = 0
        self.iter_ = 0

    def advance(self, cycles: int) -> None:
        """Complete ``cycles`` body cycles, wrapping the counter at each
        iteration seam and terminating after the last iteration."""
        if self.phase != RUNNING:
            raise TrackerContractError(f"advance on {self.phase} tracker {self.spec.function_id}")
        total = self.elapsed + cycles
        if total > self.spec.iterations * self.body_length:
            raise TrackerContractError("advance past function end")
        self.iter_, self.count = divmod(total, self.body_length)
        if self.iter_ == self.spec.iterations:
            self.phase = DONE
            self.lock_tail = True
            self.status = 0

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
        tr.status = s
        out[fid] = s
    return out


def restore(trackers: Mapping[str, TrackerState], statuses: Mapping[str, int],
            regions: Mapping[str, Region]) -> Dict[str, int]:
    """Roll running trackers back to their resume points.

    ``statuses`` must be boundary encodings (not the store-all row alias).
    Phase, iteration and locks are recovered as stored; a running
    tracker's count moves back so every operation in flight at the
    interruption re-launches. Returns the per-function rollback cycles.

    Raises StatusCorruptionError when a status exceeds the counter range.
    """
    from .liveness import resume_point

    rollback: Dict[str, int] = {}
    for fid, tr in trackers.items():
        s = statuses.get(fid, 0)
        if s > tr.body_length:
            raise StatusCorruptionError(
                f"status {s} of {fid} exceeds body length {tr.body_length}")
        if tr.phase != RUNNING or s == 0:
            rollback[fid] = 0
            continue
        n = s - 1
        r = resume_point(regions[fid], n)
        tr.count = (r + 1) % tr.body_length
        rollback[fid] = n - r
    return rollback
