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
running ones alone. Each policy computes at an outage only what it reads:
``dft`` computes the boundary statuses, emits them through
``tracker.snapshot`` for its store set and hands them to
``tracker.restore``; ``fullchip`` stores the whole grid, so it computes
the boundary statuses for ``tracker.restore`` alone; ``cp`` resets the
running trackers and computes neither.

After the last outage nothing is traced any more, so a run finishes
without the scheduler: in topological order, one engine call steps each
function with cycles left from its counter to its end, for the same
reason. Progress then grows by one per cycle up to the makespan, so the
wall clock gains the makespan less the position. Only the uninterrupted
run that builds ``Prepared.states`` keeps stepping from event to event,
because it records every completion.

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
that would move into set-up the first-use binding of every region's
kernel, generated once per distinct region body in a process and bound to
the region's register indices, which callers that never run a program
would pay too.

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
  placed register's mask gives the lost registers. The first outage of
  a key writes ``Prepared.reload`` into them; a repeat builds the key's
  restore plan (``restore_plan``) once and then only applies it, which
  for an outage that loses most registers means starting from a copy of
  ``Prepared.reload`` and copying the few kept registers back.
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
from bisect import bisect_right
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import random

from . import tracker as trk
from .control_unit import bram_usage, build_table, lookup
from .liveness import live_sets, plan_trackers
from .placement import assign_slices
from .program import (
    ProgramError,
    Record,
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


class PowerTrace(Record):
    __slots__ = ("points", "seed", "total_cycles")

    def __init__(self, points: Tuple[int, ...], seed: int, total_cycles: int):
        last = -1
        for i, point in enumerate(points):
            if not 0 <= point < total_cycles:
                raise ValueError(f"outage point {point} (index {i}) is outside "
                                 f"[0, {total_cycles})")
            if point <= last:
                raise ValueError(f"outage point {point} (index {i}) does not "
                                 f"follow {last}: points must strictly increase")
            last = point
        self.points = points    # strictly increasing, in [0, total_cycles)
        self.seed = seed
        self.total_cycles = total_cycles


class Policy(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy '{name}'")
        self.name = name


class SimConfig(Record):
    __slots__ = ("ffs_per_slice", "grid")

    def __init__(self, ffs_per_slice: int = 8, grid: Tuple[int, int] = (100, 100)):
        self.ffs_per_slice = ffs_per_slice
        self.grid = grid


class OutageRecord(Record):
    __slots__ = ("point", "rollback", "ff_stored", "slices_stored")

    def __init__(self, point: int, rollback: int, ff_stored: int, slices_stored: int):
        self.point = point
        self.rollback = rollback
        self.ff_stored = ff_stored
        self.slices_stored = slices_stored


class SimulationReport(Record):
    __slots__ = ("policy", "trace", "ff_stores", "bram_count", "store_cost_cycles",
                 "wall_progress_cycles", "final_state", "reference_state", "outages")

    def __init__(self, policy: str, trace: PowerTrace, ff_stores: int, bram_count: int,
                 store_cost_cycles: int, wall_progress_cycles: int,
                 final_state: Dict[str, int], reference_state: Dict[str, int],
                 outages: Tuple[OutageRecord, ...]):
        self.policy = policy
        self.trace = trace
        # Flip-flops stored over the run: at each outage for dft (whole
        # occupied SLICEs) and fullchip (every SLICE of the grid), at each
        # function completion for cp (its result registers).
        self.ff_stores = ff_stores
        self.bram_count = bram_count                        # 18 Kb block RAMs
        # Store latency in cycles: 1 per stored SLICE for dft and fullchip,
        # 1 per result word for cp.
        self.store_cost_cycles = store_cost_cycles
        self.wall_progress_cycles = wall_progress_cycles    # cycles stepped, re-execution included
        self.final_state = final_state
        self.reference_state = reference_state
        self.outages = outages

    @property
    def total_rollback(self) -> int:
        """Roll-back cycles, summed over the outages."""
        return sum(o.rollback for o in self.outages)

    @property
    def per_outage_rollback(self) -> Tuple[int, ...]:
        """Roll-back cycles of each outage."""
        return tuple(o.rollback for o in self.outages)

    @property
    def slice_store_events(self) -> int:
        """SLICEs stored, summed over the outages."""
        return sum(o.slices_stored for o in self.outages)

    @property
    def consistent(self) -> bool:
        return self.final_state == self.reference_state


class RunState(Record):
    """The scheduler's state at an event of the uninterrupted run.

    A run that starts here instead of at cycle 0 works on its own copies
    of the registers and of the tracker dict (a ``dft`` outage may even
    replace its register list by a new one); it shares the trackers
    themselves, which are immutable by contract. A state is too: nothing
    assigns its fields after it is built.
    """

    __slots__ = ("position", "regs", "trackers", "running", "done",
                 "candidates")      # functions to check for a start next


_POSITION = attrgetter("position")
_REMAINING = attrgetter("remaining")


class Prepared(Record):
    """Everything an intermittent run needs, built once per program."""

    __slots__ = (
        "program", "specs", "live_tables", "placement", "table", "compiled", "reference",
        "total_cycles",
        "cp_stores",        # (FFs, result words) that cp stores per run
        "fullchip_stores",  # (FFs, SLICEs) that fullchip stores per outage
        "order",            # topological order
        "preds", "succs",
        "after",            # longest dependency path of work after a function
        # Register-file views of the outage path. ``reload[i]`` is what
        # register i holds after its contents are lost: its input-buffer
        # value if it is externally bound, the sentinel otherwise, masked to
        # its width.
        "reload",
        "written",          # register indices each function writes
        "results",          # result register indices per function
        "final_regs",       # (name, index) of every result register
        "reg_slices",       # (register index, SLICE mask) if placed
        "brams",            # BRAMs per policy
        "start",            # before the first cycle
        "first_completion",     # position of the first completion
        # ``start`` and the state after each function completion, by
        # position; None until the first ``run`` builds it.
        "states")


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
    grid_slices = config.grid[0] * config.grid[1]
    return Prepared(
        program=program, specs=specs,
        live_tables=live_tables, placement=placement, table=table,
        compiled=compiled,
        reference=execute_reference(program),
        total_cycles=makespan(program),
        cp_stores=(sum(compiled.widths[i] for rs in results.values() for i in rs),
                   sum(map(len, results.values()))),
        fullchip_stores=(grid_slices * config.ffs_per_slice, grid_slices),
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
                       trackers=trk.make_trackers(specs), running=(),
                       done=(), candidates=order),
        first_completion=min((specs[fid].max_cycles for fid in program.entry_ids),
                             default=0),
        states=None)


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
    Raises ValueError when ``trace`` is for another number of progress
    cycles than the program's.
    """
    if trace.total_cycles != prepared.total_cycles:
        raise ValueError(f"trace is for {trace.total_cycles} progress cycles, "
                         f"the program has {prepared.total_cycles}")
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


def restore_plan(lost: Tuple[int, ...], n: int) -> Tuple[bool, Tuple[int, ...]]:
    """How a ``dft`` outage that loses the registers ``lost`` of ``n``
    puts them back (see ``apply_plan``): ``(False, lost)``, or, when it
    loses more than half of them, ``(True, kept)`` with the indices of
    the registers it keeps, which are fewer."""
    if 2 * len(lost) <= n:
        return False, lost
    gone = set(lost)
    return True, tuple([i for i in range(n) if i not in gone])


def apply_plan(plan: Tuple[bool, Tuple[int, ...]], regs: List[int],
               reload: Sequence[int]) -> List[int]:
    """The register file after an outage with restore ``plan``: ``regs``
    with ``reload`` written into each lost register, or for a plan of kept
    registers, a copy of ``reload`` with their values copied back from
    ``regs``, which is then not changed."""
    keep, indices = plan
    if keep:
        old = regs
        regs = list(reload)
        for i in indices:
            regs[i] = old[i]
    else:
        for i in indices:
            regs[i] = reload[i]
    return regs


def _execute(prep: Prepared, policy: Policy, trace: PowerTrace, state: RunState,
             states: Optional[List[RunState]] = None) -> SimulationReport:
    """Run from ``state``, a state of the uninterrupted run at or before
    the first outage point. Steps from event to event until the last
    outage and then finishes with straight kernel calls; given
    ``states``, steps from event to event to the end and appends the
    state after each completion to it."""
    name = policy.name
    reload = prep.reload
    preds = prep.preds
    after = prep.after
    kernels = prep.compiled.regions

    regs = list(state.regs)
    # every function's tracker, up to date for those not running
    trackers = dict(state.trackers)
    running = {fid: trackers[fid] for fid in state.running}
    position = wall = state.position
    outages: List[OutageRecord] = []
    # dft: [FFs stored, SLICEs stored, lost register indices, restore plan]
    # per outage key, i.e. per (emitted statuses of the running trackers,
    # finished functions); both sets change only at events, so keys
    # repeat. The plan is built when its key repeats: a run with one
    # outage per key, as in a single-outage sweep, would not recoup it.
    dft_stores: Dict[tuple, list] = {}
    # Only a completion can let an idle tracker start, and only its
    # successors' head locks change then; a start waits for any outage
    # at the completion point to be handled first. The longest path of
    # work still to do starts at a running function or at a candidate.
    candidates: Sequence[str] = state.candidates
    # finished functions in completion order, a tuple so that the dft
    # store key holds it as it is
    done: Tuple[str, ...] = state.done

    end = prep.total_cycles
    # step from event to event up to each outage point; the run that
    # records the states steps on to the end
    points = trace.points if states is None else (*trace.points, end)
    for point in points:
        while position < point:
            # candidates are idle: the start state's whole order, or the
            # successors of functions that have just finished
            for fid in candidates:
                if trk.can_start(fid, preds, done):
                    running[fid] = trackers[fid]
            candidates = ()
            if not running:
                raise ProgramError("simulation stalled: unstartable functions remain")

            # a segment ends at the outage point or at the first completion
            least = min(map(_REMAINING, running.values()))
            seg = point - position
            if seg > least:
                seg = least
            for fid, tr in running.items():
                kernels[fid].run(regs, tr.count, tr.count + seg)
                running[fid] = tr.advance(seg)
            position += seg
            wall += seg
            if seg == least:
                finished = [fid for fid, tr in running.items() if not tr.remaining]
                for fid in finished:
                    trackers[fid] = running.pop(fid)
                done += tuple(finished)
                candidates = tuple(dict.fromkeys(
                    s for fid in finished for s in prep.succs[fid]))
                if states is not None:
                    states.append(RunState(
                        position=position, regs=tuple(regs),
                        trackers={**trackers, **running}, running=tuple(running),
                        done=done, candidates=candidates))
        if point == end:
            break

        if name == CP:  # discard in-flight states, resume at last boundary
            ff_here = slices_here = 0
            rollback = 0    # a loop, as max() over a generator costs more
            for tr in running.values():
                back = tr.spec.max_cycles - tr.remaining
                if back > rollback:
                    rollback = back
            running = {fid: prep.start.trackers[fid] for fid in running}
            survivors = {i for fid in done for i in prep.results[fid]}
            for fid in (*running, *done):
                for i in prep.written[fid]:
                    if i not in survivors:
                        regs[i] = reload[i]
        else:
            boundary = {fid: tr.boundary_status() for fid, tr in running.items()}
            if name == DFT:
                emitted = trk.snapshot(running, boundary)
                key = (tuple(emitted.items()), done)
                hit = dft_stores.get(key)
                if hit is None:
                    hit = dft_stores[key] = [*store_set(prep, emitted, done), None]
                    plan = False, hit[2]
                else:
                    plan = hit[3]
                    if plan is None:
                        plan = hit[3] = restore_plan(hit[2], len(reload))
                ff_here, slices_here = hit[0], hit[1]
                regs = apply_plan(plan, regs, reload)
            else:  # fullchip
                ff_here, slices_here = prep.fullchip_stores
            running, rolled = trk.restore(running, boundary, prep.live_tables)
            # max with a default is several times slower for one tracker
            rollback = max(rolled.values()) if rolled else 0
        outages.append(OutageRecord(point, rollback, ff_here, slices_here))
        longest = 0     # the longest path of work still to do
        for fid, tr in running.items():
            path = tr.remaining + after[fid]
            if path > longest:
                longest = path
        for fid in candidates:
            path = trackers[fid].remaining + after[fid]
            if path > longest:
                longest = path
        position = end - longest

    # the rest of the run, after the last outage: running functions never
    # depend on each other, and the order is topological
    trackers.update(running)
    for fid in prep.order:
        tr = trackers[fid]
        if tr.remaining:
            kernels[fid].run(regs, tr.count, tr.count + tr.remaining)
    wall += end - position

    if name == CP:
        # every function completes once per run, and its checkpoint fires
        # then, power or not
        ff_stores, store_cost = prep.cp_stores
    else:
        ff_stores = sum(o.ff_stored for o in outages)
        store_cost = sum(o.slices_stored for o in outages)
    return SimulationReport(
        policy=name, trace=trace, ff_stores=ff_stores, bram_count=prep.brams[name],
        store_cost_cycles=store_cost, wall_progress_cycles=wall,
        final_state={reg: regs[i] for reg, i in prep.final_regs},
        reference_state=prep.reference, outages=tuple(outages))


def derive_seed(base_seed: int, benchmark: str, policy: str, outages: int,
                round_index: int) -> int:
    """Per-cell seed: base xor a stable hash of (benchmark, policy, k, round)."""
    digest = hashlib.sha256(
        f"{benchmark}:{policy}:{outages}:{round_index}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


def divergence(report: SimulationReport, command: str) -> str:
    """Say where an inconsistent report first left the reference: the
    first diverging register in sorted order, both values, and the
    ``command`` (such as ``dftsim simulate --preset aes``) completed with
    the run's policy, outage count and trace seed."""
    got, want = report.final_state, report.reference_state
    reg = min(x for x in got.keys() | want.keys() if got.get(x) != want.get(x))
    seed = report.trace.seed
    return (f"final state diverged from reference at {reg}: expected "
            f"{want.get(reg)}, got {got.get(reg)} (trace seed {seed}); reproduce with "
            f"{command} --policy {report.policy} --outages {len(report.trace.points)} "
            f"--seed {seed}")


def run_monte_carlo(program: ScheduledProgram, policies: Sequence[Policy],
                    k_values: Sequence[int], rounds: int, base_seed: int, *,
                    benchmark: str = "program", command: str = "dftsim simulate",
                    prepared: Prepared
                    ) -> Dict[Tuple[str, int], Tuple[SimulationReport, ...]]:
    """Run ``rounds`` seeded independent traces of ``prepared.program``
    (which ``program`` must be) per (policy, k) cell.

    Returns each cell's reports in round order, keyed by (policy name, k).
    Every cell is reproducible standalone: its trace seed comes from
    ``derive_seed`` and nothing else. Raises ConsistencyError if any run
    diverges from the reference execution, with its ``divergence`` text;
    ``command`` starts the repro command, so a caller that knows the
    program's source names it there.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    cells: Dict[Tuple[str, int], Tuple[SimulationReport, ...]] = {}
    for pol in policies:
        for k in k_values:
            reports = []
            for r in range(rounds):
                seed = derive_seed(base_seed, benchmark, pol.name, k, r)
                trace = gen_trace(prepared.total_cycles, k, seed)
                report = run(program, pol, trace, prepared=prepared)
                if not report.consistent:
                    raise ConsistencyError(f"{benchmark}/{pol.name}/k={k}/round={r}: "
                                           f"{divergence(report, command)}")
                reports.append(report)
            cells[(pol.name, k)] = tuple(reports)
    return cells
