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
them cycle by cycle together.

Policies:

* ``dft``   - snapshot tracker statuses, look up the address table, store
  exactly those SLICEs (plus the tracker region and the result rows of
  finished functions); on resume, roll trackers back to their resume
  points and replay. Registers outside the stored SLICEs lose their
  contents, which the simulator models by clobbering them with a sentinel
  so that any protocol gap breaks crash consistency loudly.
* ``cp``    - store each state's result registers to its dedicated BRAM at
  every state completion regardless of power; an outage discards the
  in-flight state entirely and resumes at the last completed boundary.
* ``fullchip`` - store every SLICE on the grid at each outage; nothing is
  lost, but roll-back for in-flight multi-cycle operations still applies.

Externally-bound values (program inputs, loop-carried initials) are
assumed to sit in a non-volatile input buffer: when an outage loses their
register, the pre-run value is reloaded. The cp baseline could not
restart a state from scratch without that assumption. Everything else a
policy fails to store turns into a sentinel, so any protocol gap breaks
crash consistency loudly.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import random

from . import tracker as trk
from .control_unit import ControlUnitTable, bram_usage, build_table
from .liveness import LiveSetTable, TrackerSpec, live_sets, plan_trackers
from .placement import Placement, ResourceModel, assign_slices
from .program import (
    ProgramError,
    Region,
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
    per_slice_cost: int = 1    # store latency accounting, cycles per SLICE
    per_word_cost: int = 1     # store latency accounting, cycles per word

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ValueError(f"unknown policy '{self.name}'")


@dataclass
class SimConfig:
    ffs_per_slice: int = 8
    grid: Tuple[int, int] = (100, 100)
    inputs: Mapping[str, int] = field(default_factory=dict)


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
    total_rollback: int
    per_outage_rollback: Tuple[int, ...]
    ff_stores: int
    bram_count: int
    slice_store_events: int
    store_cost_cycles: int
    wall_progress_cycles: int
    final_state: Dict[str, int]
    reference_state: Dict[str, int]
    outages: Tuple[OutageRecord, ...]

    @property
    def consistent(self) -> bool:
        return self.final_state == self.reference_state


@dataclass
class Prepared:
    """Everything an intermittent run needs, built once per program."""
    program: ScheduledProgram
    config: SimConfig
    resources: ResourceModel
    specs: Dict[str, TrackerSpec]
    live_tables: Dict[str, LiveSetTable]
    placement: Placement
    table: ControlUnitTable
    compiled: object
    regions: Dict[str, Region]
    reference: Dict[str, int]
    total_cycles: int
    result_ffs: Dict[str, int]
    bound_regs: frozenset      # externally provided (non-volatile input buffer)
    order: Tuple[str, ...]                  # topological order
    preds: Dict[str, Tuple[str, ...]]
    succs: Dict[str, Tuple[str, ...]]
    written: Dict[str, Tuple[str, ...]]     # registers each function writes
    after: Dict[str, int]      # longest dependency path of work after a function


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
        raise ProgramError(f"invalid program: {violations[0]}")
    resources = ResourceModel()
    specs = plan_trackers(program, resources)
    live_tables = {f.id: live_sets(f.region, f.result_regs) for f in program.functions}
    placement = assign_slices(program, specs, config.ffs_per_slice, config.grid)
    table = build_table(program, specs, placement, live_tables)
    regions = {f.id: f.region for f in program.functions}
    widths = {}
    for f in program.functions:
        widths.update(f.region.reg_widths)
    result_ffs = {
        f.id: sum(widths.get(reg, 32) for reg in f.result_regs)
        for f in program.functions
    }
    bound = set(program.default_inputs) | set(config.inputs)
    order = tuple(program.topo_order())
    succs = {fid: program.successors(fid) for fid in regions}
    after: Dict[str, int] = {}
    for fid in reversed(order):
        after[fid] = max((after[s] + regions[s].iterations * regions[s].body_length
                          for s in succs[fid]), default=0)
    return Prepared(
        program=program, config=config, resources=resources, specs=specs,
        live_tables=live_tables, placement=placement, table=table,
        compiled=compile_program(program), regions=regions,
        reference=execute_reference(program, config.inputs),
        total_cycles=makespan(program), result_ffs=result_ffs,
        bound_regs=frozenset(bound), order=order,
        preds={fid: program.predecessors(fid) for fid in regions}, succs=succs,
        written={fid: r.written_regs() for fid, r in regions.items()}, after=after)


def gen_trace(total_cycles: int, outages: int, seed: int) -> PowerTrace:
    """Sample distinct outage progress points, uniform without replacement."""
    if outages < 0:
        raise ValueError("outage count must be non-negative")
    if outages >= total_cycles:
        raise ValueError(f"need outages < total_cycles, got {outages} >= {total_cycles}")
    rng = random.Random(seed)
    points = tuple(sorted(rng.sample(range(total_cycles), outages)))
    return PowerTrace(points=points, seed=seed, total_cycles=total_cycles)


def run(program: ScheduledProgram, policy: Policy, trace: PowerTrace,
        config: Optional[SimConfig] = None,
        prepared: Optional[Prepared] = None) -> SimulationReport:
    """One deterministic intermittent execution."""
    prep = prepared or prepare(program, config)
    cfg = prep.config
    placement = prep.placement
    table = prep.table

    trackers = trk.make_trackers(program, prep.specs)
    bound = dict(program.default_inputs)
    bound.update(cfg.inputs)
    regs = prep.compiled.new_regfile(bound)
    reg_index = prep.compiled.reg_index
    reg_widths = prep.compiled.widths

    preds = prep.preds
    written_of = prep.written
    kernels = prep.compiled.regions

    def clobber(reg_ids: Iterable[str]) -> None:
        """Lose registers outside the stored set.

        Externally-bound values reload from the non-volatile input buffer
        (their pre-run initial); anything computed turns to garbage.
        """
        for reg in reg_ids:
            i = reg_index[reg]
            fresh = bound[reg] if reg in bound else _CLOBBER
            regs[i] = fresh & ((1 << reg_widths[i]) - 1)

    pending = deque(trace.points)
    position = 0
    wall = 0
    ff_stores = 0
    slice_events = 0
    store_cost = 0
    outages: List[OutageRecord] = []
    grid_slices = cfg.grid[0] * cfg.grid[1]
    # Only a completion can let an idle tracker start, and only its
    # successors' head locks change then; a start waits for any outage
    # at the completion point to be handled first. The longest path of
    # work still to do starts at a running function or at a candidate.
    candidates: Sequence[str] = prep.order
    running: List[str] = []

    while True:
        if pending and pending[0] == position:
            point = pending.popleft()
            boundary = {fid: tr.boundary_status() for fid, tr in trackers.items()}
            emitted = trk.snapshot(trackers)
            ff_here = 0
            slices_here = 0
            if policy.name == DFT:
                stored = set(table.tracker_region)
                for fid, s in emitted.items():
                    if s:
                        stored.update(table.row(fid, s))
                for fid, tr in trackers.items():
                    if tr.phase == trk.DONE:
                        stored.update(table.result_row(fid))
                ff_here = placement.occupied_ffs(stored)
                slices_here = len(stored)
                store_cost += len(stored) * policy.per_slice_cost
                clobber(reg for reg, addrs in placement.regs.items()
                        if any(a not in stored for a in addrs))
                rollback = max(trk.restore(trackers, boundary, prep.regions).values(),
                               default=0)
            elif policy.name == FULLCHIP:
                ff_here = grid_slices * cfg.ffs_per_slice
                slices_here = grid_slices
                store_cost += grid_slices * policy.per_slice_cost
                rollback = max(trk.restore(trackers, boundary, prep.regions).values(),
                               default=0)
            else:  # cp: discard in-flight states, resume at last boundary
                rollback = 0
                survivors = set()
                for fid, tr in trackers.items():
                    if tr.phase == trk.DONE:
                        survivors |= program.function(fid).result_regs
                for fid, tr in trackers.items():
                    if tr.phase == trk.RUNNING:
                        rollback = max(rollback, tr.elapsed)
                        tr.count = 0
                        tr.iter_ = 0
                    if tr.phase != trk.IDLE:
                        clobber(reg for reg in written_of[fid]
                                if reg not in survivors)
            ff_stores += ff_here
            slice_events += slices_here
            outages.append(OutageRecord(point=point, rollback=rollback,
                                        ff_stored=ff_here, slices_stored=slices_here))
            rest = [trackers[fid].remaining + prep.after[fid]
                    for fid in (*running, *candidates)]
            position = prep.total_cycles - max(rest)
            continue

        for fid in candidates:
            tr = trackers[fid]
            if tr.phase == trk.IDLE and trk.can_start(
                    tr, [trackers[p].lock_tail for p in preds[fid]]):
                tr.start()
                running.append(fid)
        candidates = ()
        if not running:
            if all(tr.phase == trk.DONE for tr in trackers.values()):
                break
            raise ProgramError("simulation stalled: unstartable functions remain")

        seg = min(trackers[fid].remaining for fid in running)
        if pending:
            seg = min(seg, pending[0] - position)
        for fid in running:
            tr = trackers[fid]
            kernels[fid].run(regs, tr.count, tr.count + seg)
            tr.advance(seg)
        position += seg
        wall += seg
        finished = [fid for fid in running if trackers[fid].phase == trk.DONE]
        if finished:
            running = [fid for fid in running if fid not in finished]
            candidates = tuple(dict.fromkeys(
                s for fid in finished for s in prep.succs[fid]))
            if policy.name == CP:
                # checkpoint fires at every completion, power or not
                for fid in finished:
                    ff_stores += prep.result_ffs[fid]
                    store_cost += len(program.function(fid).result_regs) * policy.per_word_cost

    final = {reg: int(regs[reg_index[reg]])
             for reg in sorted(program.all_result_regs())}
    if policy.name == DFT:
        brams = bram_usage(table)
    elif policy.name == CP:
        brams = len(program.functions)
    else:
        brams = 0
    return SimulationReport(
        policy=policy.name, trace=trace,
        total_rollback=sum(o.rollback for o in outages),
        per_outage_rollback=tuple(o.rollback for o in outages),
        ff_stores=ff_stores, bram_count=brams,
        slice_store_events=slice_events, store_cost_cycles=store_cost,
        wall_progress_cycles=wall, final_state=final,
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
    seeds: Tuple[int, ...]
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
                    k_values: Sequence[int], rounds: int, base_seed: int,
                    config: Optional[SimConfig] = None,
                    benchmark: str = "program",
                    prepared: Optional[Prepared] = None) -> Dict[Tuple[str, int], Cell]:
    """Mean rollback and store counts over seeded independent traces.

    Every cell is reproducible standalone: its trace seed comes from
    ``derive_seed`` and nothing else. Raises ConsistencyError if any run
    diverges from the reference execution, naming the first diverging
    register in sorted order, both values and the trace seed.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    prep = prepared or prepare(program, config)
    cells: Dict[Tuple[str, int], Cell] = {}
    for pol in policies:
        for k in k_values:
            seeds = []
            rollbacks = []
            ffs = []
            for r in range(rounds):
                seed = derive_seed(base_seed, benchmark, pol.name, k, r)
                trace = gen_trace(prep.total_cycles, k, seed)
                report = run(program, pol, trace, prepared=prep)
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
                seeds.append(seed)
                rollbacks.append(report.total_rollback)
                ffs.append(report.ff_stores)
            cells[(pol.name, k)] = Cell(
                policy=pol.name, outages=k, rounds=rounds, seeds=tuple(seeds),
                rollback_samples=tuple(rollbacks), ff_samples=tuple(ffs))
    return cells
