"""Intermittent-power execution under three store/restore policies.

Outages are injected at progress points: a point p fires at the boundary
where p progress cycles have completed for the first time. Progress is
the makespan less the longest dependency path of work still to do, so it
grows by one per cycle of uninterrupted execution and reaches the
makespan exactly when the program ends. Roll-back rewinds it by as much
as the roll-back lengthens that path (in a chain, by the roll-back), so
a re-execution never re-fires an already-fired point, and every run
terminates after exactly the traced number of outages.

The scheduler steps from event to event. Trackers are checked for a start
once at the beginning of the run and afterwards only when a predecessor
completes. A segment lasts until a running function completes or the
next outage point comes, and each running region steps through the whole
segment in one engine call. Running regions never depend on each other
(a function starts only after all of its predecessors are done), so
stepping them one after another gives the same registers as stepping
them cycle by cycle together. An outage touches only the running
trackers: idle and finished ones emit status 0 and roll back by 0, so
boundary statuses, ``tracker.snapshot`` and ``tracker.restore`` see the
running ones alone.

Until its first outage, an intermittent run is the uninterrupted run. So
``run`` does not step that part again: it starts from the last entry of
``Prepared.states`` at or before the first outage point, and a run
without outages starts from the last entry. The table holds the
scheduler's state (position, registers, every tracker, the running,
finished and candidate functions) at the start of the run and after each
function completion, where segments end anyway, so it has at most one
entry per function; an outage before the first completion therefore
still steps from cycle 0. An entry is taken before the successors of
the completing functions are checked for a start, so an outage at a
completion point still fires before they start. The first ``run`` on a
``Prepared`` whose first outage comes at or after the first completion
(``Prepared.first_completion``, the shortest entry function) builds the
table by stepping the uninterrupted run once; a run that must step from
cycle 0 anyway does not need it. ``prepare`` does not build it, because
that would move the first-use compilation of every region kernel into
set-up, which callers that never run a program would pay too.

Policies:

* ``dft``   - snapshot tracker statuses, look up the address table, store
  exactly those SLICEs (plus the tracker region and the result rows of
  finished functions); on resume, roll trackers back to their resume
  points and replay. Registers outside the stored SLICEs lose their
  contents, which the simulator models by clobbering them with a sentinel
  so that any protocol gap breaks crash consistency loudly. The stored
  set depends only on the emitted statuses of the running trackers and
  on the finished functions, so each run resolves it once per distinct
  (statuses, finished functions) key, in ``store_set``: the address
  table's rows and the placement are SLICE masks (one bit per SLICE, see
  ``placement``), so the stored SLICEs are ``control_unit.lookup`` OR'd
  with the finished functions' result rows, the stored mask against each
  placed register's mask gives the lost registers, and a repeated key
  only copies ``Prepared.reload`` into those registers.
* ``cp``    - store each state's result registers to its dedicated BRAM at
  every state completion regardless of power; an outage discards the
  in-flight state entirely and resumes at the last completed boundary.
  Every function completes exactly once per run, so what ``cp`` stores
  does not depend on the trace.
* ``fullchip`` - store every SLICE on the grid at each outage; nothing is
  lost, but roll-back for in-flight multi-cycle operations still applies.

Externally-bound values (program inputs, loop-carried initials) are
assumed to sit in a non-volatile input buffer: when an outage loses their
register, the pre-run value is reloaded. The cp baseline could not
restart a state from scratch without that assumption. Everything else a
policy fails to store turns into a sentinel, so any protocol gap breaks
crash consistency loudly. ``Prepared.reload`` holds, per register, the
value a loss leaves behind under either rule.
"""

from __future__ import annotations

import hashlib
import statistics
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import random

from . import tracker as trk
from .control_unit import ControlUnitTable, bram_usage, build_table, lookup
from .liveness import LiveSetTable, TrackerSpec, live_sets, plan_trackers
from .placement import Placement, assign_slices
from .program import (
    ProgramError,
    ScheduledProgram,
    compile_program,
    execute_reference,
    validate,
)

DFT = "dft"
CP = "cp"
FULLCHIP = "fullchip"
POLICY_NAMES = (DFT, CP, FULLCHIP)

_CLOBBER = 0xDEADBEEF


class ConsistencyError(ProgramError):
    pass


@dataclass(frozen=True)
class PowerTrace:
    points: Tuple[int, ...]    # strictly increasing, < total_cycles
    seed: int
    total_cycles: int


@dataclass(frozen=True)
class Policy:
    name: str

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ValueError(f"unknown policy '{self.name}'")


@dataclass
class SimConfig:
    ffs_per_slice: int = 8
    grid: Tuple[int, int] = (100, 100)


@dataclass
class OutageRecord:
    point: int
    rollback: int
    ff_stored: int
    slices_stored: int


@dataclass
class SimulationReport:
    policy: str
    trace: PowerTrace
    total_rollback: int                     # cycles, summed over the outages
    per_outage_rollback: Tuple[int, ...]    # cycles per outage
    # Flip-flops stored over the run: at each outage for dft (whole occupied
    # SLICEs) and fullchip (every SLICE of the grid), at each function
    # completion for cp (its result registers).
    ff_stores: int
    bram_count: int                         # 18 Kb block RAMs
    slice_store_events: int                 # SLICEs stored, summed over the outages
    # Store latency in cycles: 1 per stored SLICE for dft and fullchip,
    # 1 per result word for cp.
    store_cost_cycles: int
    wall_progress_cycles: int               # cycles stepped, re-execution included
    final_state: Dict[str, int]
    reference_state: Dict[str, int]
    outages: Tuple[OutageRecord, ...]

    @property
    def consistent(self) -> bool:
        return self.final_state == self.reference_state


@dataclass(frozen=True)
class RunState:
    """The scheduler's state at an event of the uninterrupted run.

    A run that starts here instead of at cycle 0 copies the registers and
    the trackers; the state itself is never stepped.
    """
    position: int
    regs: Tuple[int, ...]
    trackers: Dict[str, trk.TrackerState]
    running: Tuple[str, ...]
    done: Tuple[str, ...]
    candidates: Tuple[str, ...]    # functions to check for a start next


_POSITION = attrgetter("position")


@dataclass
class Prepared:
    """Everything an intermittent run needs, built once per program."""
    program: ScheduledProgram
    config: SimConfig
    specs: Dict[str, TrackerSpec]
    live_tables: Dict[str, LiveSetTable]
    placement: Placement
    table: ControlUnitTable
    compiled: object
    reference: Dict[str, int]
    total_cycles: int
    result_ffs: int                         # result-register FFs summed over functions
    order: Tuple[str, ...]                  # topological order
    preds: Dict[str, Tuple[str, ...]]
    succs: Dict[str, Tuple[str, ...]]
    after: Dict[str, int]      # longest dependency path of work after a function
    # Register-file views of the outage path. ``reload[i]`` is what register
    # i holds after its contents are lost: its input-buffer value if it is
    # externally bound, the sentinel otherwise, masked to its width.
    reload: Tuple[int, ...]
    written: Dict[str, Tuple[int, ...]]     # register indices each function writes
    results: Dict[str, Tuple[int, ...]]     # result register indices per function
    final_regs: Tuple[Tuple[str, int], ...]  # (name, index) of every result register
    reg_slices: Tuple[Tuple[int, int], ...]  # (register index, SLICE mask) if placed
    brams: Dict[str, int]                   # BRAMs per policy
    start: RunState                         # before the first cycle
    first_completion: int                   # position of the first completion
    # ``start`` and the state after each function completion, by position;
    # built by the first ``run``.
    states: Optional[Tuple[RunState, ...]] = None


def makespan(program: ScheduledProgram) -> int:
    """Uninterrupted progress cycles: longest dependency path."""
    finish: Dict[str, int] = {}
    for fid in program.topo_order():
        f = program.function(fid)
        start = max((finish[p] for p in program.predecessors(fid)), default=0)
        finish[fid] = start + f.region.iterations * f.region.body_length
    return max(finish.values(), default=0)


def prepare(program: ScheduledProgram, config: Optional[SimConfig] = None) -> Prepared:
    config = config or SimConfig()
    if not program.is_normalized:
        raise ProgramError("program must be normalized before simulation")
    violations = validate(program)
    if violations:
        raise ProgramError("\n".join(str(v) for v in violations))
    specs = plan_trackers(program)
    live_tables = {f.id: live_sets(f.region, f.result_regs) for f in program.functions}
    placement = assign_slices(program, specs, config.ffs_per_slice, config.grid)
    table = build_table(program, specs, placement, live_tables)
    regions = {f.id: f.region for f in program.functions}
    order = tuple(program.topo_order())
    succs = {fid: program.successors(fid) for fid in regions}
    after: Dict[str, int] = {}
    for fid in reversed(order):
        after[fid] = max((after[s] + regions[s].iterations * regions[s].body_length
                          for s in succs[fid]), default=0)
    compiled = compile_program(program)
    reg_index = compiled.reg_index
    bound = program.default_inputs
    reload = tuple(bound.get(reg, _CLOBBER) & ((1 << compiled.widths[i]) - 1)
                   for reg, i in reg_index.items())
    results = {f.id: tuple(reg_index[reg] for reg in sorted(f.result_regs))
               for f in program.functions}
    return Prepared(
        program=program, config=config, specs=specs,
        live_tables=live_tables, placement=placement, table=table,
        compiled=compiled,
        reference=execute_reference(program),
        total_cycles=makespan(program),
        result_ffs=sum(compiled.widths[i] for rs in results.values() for i in rs),
        order=order,
        preds={fid: program.predecessors(fid) for fid in regions}, succs=succs,
        after=after, reload=reload,
        written={fid: tuple(reg_index[reg] for reg in r.written_regs())
                 for fid, r in regions.items()},
        results=results,
        final_regs=tuple((reg, reg_index[reg])
                         for reg in sorted(program.all_result_regs())),
        reg_slices=tuple((reg_index[reg], mask) for reg, mask in placement.regs.items()),
        brams={DFT: bram_usage(table), CP: len(program.functions), FULLCHIP: 0},
        start=RunState(position=0, regs=tuple(compiled.new_regfile(bound)),
                       trackers=trk.make_trackers(program, specs), running=(),
                       done=(), candidates=order),
        first_completion=min((specs[fid].max_cycles for fid in program.entry_ids),
                             default=0))


def gen_trace(total_cycles: int, outages: int, seed: int) -> PowerTrace:
    """Sample distinct outage progress points, uniform without replacement."""
    if outages < 0:
        raise ValueError("outage count must be non-negative")
    if outages >= total_cycles:
        raise ValueError(f"need outages < total_cycles, got {outages} >= {total_cycles}")
    rng = random.Random(seed)
    points = tuple(sorted(rng.sample(range(total_cycles), outages)))
    return PowerTrace(points=points, seed=seed, total_cycles=total_cycles)


def run(program: ScheduledProgram, policy: Policy, trace: PowerTrace, *,
        prepared: Prepared) -> SimulationReport:
    """One deterministic intermittent execution of ``prepared.program``
    (which ``program`` must be).

    It starts from the last state of the uninterrupted run at or before
    the first outage point (the last one when there is no outage).
    """
    first = trace.points[0] if trace.points else prepared.total_cycles
    if first < prepared.first_completion:
        return _execute(prepared, policy, trace, prepared.start)
    states = prepared.states
    if states is None:
        states = prepared.states = _completion_states(prepared)
    return _execute(prepared, policy, trace,
                    states[bisect_right(states, first, key=_POSITION) - 1])


def _completion_states(prep: Prepared) -> Tuple[RunState, ...]:
    """``prep.start`` and the state after each completion of the
    uninterrupted run, which steps once for this."""
    states = [prep.start]
    _execute(prep, Policy(DFT), PowerTrace((), 0, prep.total_cycles), prep.start,
             states)
    return tuple(states)


def store_set(prep: Prepared, statuses: Mapping[str, int],
              done: Sequence[str]) -> Tuple[int, int, Tuple[int, ...]]:
    """What a ``dft`` outage stores: (FFs stored, SLICEs stored, indices of
    the registers it loses), given the emitted statuses of the running
    trackers and the finished functions.
    """
    table = prep.table
    stored = lookup(table, statuses)
    for fid in done:
        stored |= table.result_row(fid)
    gone = ~stored
    return (prep.placement.occupied_ffs(stored), stored.bit_count(),
            tuple([i for i, mask in prep.reg_slices if mask & gone]))


def _execute(prep: Prepared, policy: Policy, trace: PowerTrace, state: RunState,
             states: Optional[List[RunState]] = None) -> SimulationReport:
    """Run from ``state``, a state of the uninterrupted run at or before
    the first outage point. Appends the state after each completion to
    ``states`` if given."""
    cfg = prep.config
    reload = prep.reload
    preds = prep.preds
    after = prep.after
    kernels = prep.compiled.regions

    regs = list(state.regs)
    trackers = {fid: tr.copy() for fid, tr in state.trackers.items()}
    pending = deque(trace.points)
    position = wall = state.position
    ff_stores = 0
    slice_events = 0
    store_cost = 0
    outages: List[OutageRecord] = []
    grid_slices = cfg.grid[0] * cfg.grid[1]
    # dft: (FFs stored, SLICEs stored, lost register indices) per outage
    # key, i.e. per (emitted statuses of the running trackers, finished
    # functions); both sets change only at events, so keys repeat.
    dft_stores: Dict[tuple, Tuple[int, int, Tuple[int, ...]]] = {}
    # Only a completion can let an idle tracker start, and only its
    # successors' head locks change then; a start waits for any outage
    # at the completion point to be handled first. The longest path of
    # work still to do starts at a running function or at a candidate.
    candidates: Sequence[str] = state.candidates
    running: Dict[str, trk.TrackerState] = {fid: trackers[fid] for fid in state.running}
    done: List[str] = list(state.done)

    while True:
        if pending and pending[0] == position:
            point = pending.popleft()
            boundary = {fid: tr.boundary_status() for fid, tr in running.items()}
            emitted = trk.snapshot(running)
            ff_here = 0
            slices_here = 0
            if policy.name == DFT:
                key = (tuple(emitted.items()), tuple(done))
                hit = dft_stores.get(key)
                if hit is None:
                    hit = dft_stores[key] = store_set(prep, emitted, done)
                ff_here, slices_here, lost = hit
                store_cost += slices_here
                for i in lost:
                    regs[i] = reload[i]
                rollback = max(trk.restore(running, boundary, prep.live_tables).values(),
                               default=0)
            elif policy.name == FULLCHIP:
                ff_here = grid_slices * cfg.ffs_per_slice
                slices_here = grid_slices
                store_cost += grid_slices
                rollback = max(trk.restore(running, boundary, prep.live_tables).values(),
                               default=0)
            else:  # cp: discard in-flight states, resume at last boundary
                rollback = max((tr.spec.max_cycles - tr.remaining
                                for tr in running.values()), default=0)
                for tr in running.values():
                    tr.count = tr.iter_ = 0
                    tr.remaining = tr.spec.max_cycles
                survivors = {i for fid in done for i in prep.results[fid]}
                for fid in (*running, *done):
                    for i in prep.written[fid]:
                        if i not in survivors:
                            regs[i] = reload[i]
            ff_stores += ff_here
            slice_events += slices_here
            outages.append(OutageRecord(point=point, rollback=rollback,
                                        ff_stored=ff_here, slices_stored=slices_here))
            position = prep.total_cycles - max(
                [tr.remaining + after[fid] for fid, tr in running.items()]
                + [trackers[fid].remaining + after[fid] for fid in candidates])
            continue

        for fid in candidates:
            tr = trackers[fid]
            if tr.phase == trk.IDLE and trk.can_start(
                    tr, [trackers[p].lock_tail for p in preds[fid]]):
                tr.start()
                running[fid] = tr
        candidates = ()
        if not running:
            if len(done) == len(trackers):
                break
            raise ProgramError("simulation stalled: unstartable functions remain")

        seg = min(tr.remaining for tr in running.values())
        if pending:
            seg = min(seg, pending[0] - position)
        for fid, tr in running.items():
            kernels[fid].run(regs, tr.count, tr.count + seg)
            tr.advance(seg)
        position += seg
        wall += seg
        finished = [fid for fid, tr in running.items() if tr.phase == trk.DONE]
        if finished:
            for fid in finished:
                del running[fid]
            done += finished
            candidates = tuple(dict.fromkeys(
                s for fid in finished for s in prep.succs[fid]))
            if states is not None:
                states.append(RunState(
                    position=position, regs=tuple(regs),
                    trackers={fid: tr.copy() for fid, tr in trackers.items()},
                    running=tuple(running), done=tuple(done), candidates=candidates))

    if policy.name == CP:
        # every function completes once per run, and its checkpoint fires
        # then, power or not
        ff_stores = prep.result_ffs
        store_cost = sum(map(len, prep.results.values()))
    return SimulationReport(
        policy=policy.name, trace=trace,
        total_rollback=sum(o.rollback for o in outages),
        per_outage_rollback=tuple(o.rollback for o in outages),
        ff_stores=ff_stores, bram_count=prep.brams[policy.name],
        slice_store_events=slice_events, store_cost_cycles=store_cost,
        wall_progress_cycles=wall,
        final_state={reg: regs[i] for reg, i in prep.final_regs},
        reference_state=prep.reference, outages=tuple(outages))


def derive_seed(base_seed: int, benchmark: str, policy: str, outages: int,
                round_index: int) -> int:
    """Per-cell seed: base xor a stable hash of (benchmark, policy, k, round)."""
    digest = hashlib.sha256(
        f"{benchmark}:{policy}:{outages}:{round_index}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


@dataclass
class Cell:
    policy: str
    outages: int
    rounds: int
    rollback_samples: Tuple[int, ...]
    ff_samples: Tuple[int, ...]

    @property
    def mean_rollback(self) -> float:
        return statistics.fmean(self.rollback_samples)

    @property
    def std_rollback(self) -> float:
        return statistics.pstdev(self.rollback_samples)

    @property
    def mean_ff(self) -> float:
        return statistics.fmean(self.ff_samples)

    @property
    def std_ff(self) -> float:
        return statistics.pstdev(self.ff_samples)


def run_monte_carlo(program: ScheduledProgram, policies: Sequence[Policy],
                    k_values: Sequence[int], rounds: int, base_seed: int, *,
                    benchmark: str = "program",
                    prepared: Prepared) -> Dict[Tuple[str, int], Cell]:
    """Mean rollback and store counts over seeded independent traces of
    ``prepared.program`` (which ``program`` must be).

    Every cell is reproducible standalone: its trace seed comes from
    ``derive_seed`` and nothing else. Raises ConsistencyError if any run
    diverges from the reference execution, naming the first diverging
    register in sorted order, both values and the trace seed.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    cells: Dict[Tuple[str, int], Cell] = {}
    for pol in policies:
        for k in k_values:
            rollbacks = []
            ffs = []
            for r in range(rounds):
                seed = derive_seed(base_seed, benchmark, pol.name, k, r)
                trace = gen_trace(prepared.total_cycles, k, seed)
                report = run(program, pol, trace, prepared=prepared)
                if not report.consistent:
                    got, want = report.final_state, report.reference_state
                    reg = min(x for x in got.keys() | want.keys()
                              if got.get(x) != want.get(x))
                    raise ConsistencyError(
                        f"{benchmark}/{pol.name}/k={k}/round={r}: final state "
                        f"diverged from reference at {reg}: expected "
                        f"{want.get(reg)}, got {got.get(reg)} (trace seed {seed}; "
                        f"reproduce with simulate --policy {pol.name} "
                        f"--outages {k} --seed {seed})")
                rollbacks.append(report.total_rollback)
                ffs.append(report.ff_stores)
            cells[(pol.name, k)] = Cell(
                policy=pol.name, outages=k, rounds=rounds,
                rollback_samples=tuple(rollbacks), ff_samples=tuple(ffs))
    return cells
