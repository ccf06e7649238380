"""The benchmark's workloads: inputs made from a seed, set-up and simulation.

Every workload has two phases. ``setup`` generates, normalizes and
prepares each program it simulates. ``simulate`` makes every intermittent
run, one after another in this process, and collects one record per run.

* ``paper-grid``: the paper's experiment, as ``dftsim compare`` runs it.
  The six presets under every policy with k in {0, 5, 20} outages, through
  ``run_monte_carlo`` with its ``derive_seed`` cell seeds. Outages are rare,
  so the engine kernel and the scheduler's per-seam loop do the work.
* ``outage-dense``: aes and gsm under ``dft`` and ``fullchip`` with an
  outage every five cycles on average, so the outage path (snapshot, table
  lookup, store accounting, clobber and restore) does the work and the
  kernel sees only short spans. ``cp`` is left out: at this density it
  re-executes each program 50 to 200 times, which is kernel time that
  ``paper-grid`` already measures.
* ``crash-sweep``: one outage at every progress point, for all three
  policies, over small generated chains (``random_small_shape``) and over
  parallel programs built from two consecutive chains. Thousands of
  sub-millisecond runs on freshly prepared tiny programs, so per-run fixed
  cost and set-up weigh most. It is the only workload where two trackers
  run at once.

Everything here reaches dftsim through module attributes at call time,
so that the wrappers of ``spans`` and ``Runs`` see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List

from dftsim import benchgen, powersim, program as prog, transform
from dftsim.control_unit import bram_usage

POLICIES = powersim.POLICY_NAMES
PAPER_KS = (0, 5, 20)     # outage counts of the paper's grid, one round each
OUTAGE_EVERY = 5          # outage-dense: k = progress cycles // 5

# Work per repetition. "tiny" is for the benchmark's self-test only.
SIZES = {
    "full": {
        "paper-grid": {"presets": benchgen.PRESETS},
        "outage-dense": {"presets": ("aes", "gsm")},
        "crash-sweep": {"sweep_cost": 4_000_000},
    },
    "tiny": {
        "paper-grid": {"presets": ("float", "global")},
        "outage-dense": {"presets": ("global", "struct")},
        "crash-sweep": {"sweep_cost": 8_000},
    },
}


@dataclass
class Case:
    name: str
    program: object
    prep: object


class Runs:
    """Per-run records, collected by a wrapper around ``powersim.run``.

    A run fails when it raises or its final state differs from the
    reference execution. ``between`` is called after each unit of work.
    """

    def __init__(self, between: Callable[[], None] = lambda: None) -> None:
        self.between = between
        self.records: List[dict] = []
        self.case: Case = None
        self.attempted = 0
        self.failed = 0

    def wrap(self, run: Callable) -> Callable:
        def recorded(program, policy, trace, *args, **kwargs):
            report = run(program, policy, trace, *args, **kwargs)
            self.records.append({
                "case": self.case.name,
                "policy": report.policy,
                "k": len(trace.points),
                "seed": trace.seed,
                "total_rollback": report.total_rollback,
                "ff_stores": report.ff_stores,
                "wall_progress_cycles": report.wall_progress_cycles,
                "final_state": report.final_state,
                "outages": len(report.outages),
                "uninterrupted": self.case.prep.total_cycles,
                "consistent": report.consistent,
            })
            return report
        return recorded

    def attempt(self, case: Case, planned: int, work: Callable[[], object]) -> None:
        """Do ``work``, which should make ``planned`` consistent runs."""
        self.case = case
        before = len(self.records)
        try:
            work()
        except Exception as exc:  # a failing run must not stop the benchmark
            print(f"{case.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok = sum(r["consistent"] for r in self.records[before:])
        self.attempted += planned
        self.failed += planned - ok
        self.between()


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _prepared(name: str, program) -> Case:
    program = transform.normalize(program)
    return Case(name=name, program=program, prep=powersim.prepare(program))


def _two_chains(a, b):
    """Parallel program: two independent chains with disjoint names."""
    clash = ({f.id for f in a.functions} & {f.id for f in b.functions}
             or set(prog.all_registers(a)) & set(prog.all_registers(b)))
    if clash:
        raise ValueError(f"chains share names: {sorted(clash)[:3]}")
    return prog.ScheduledProgram(
        functions=a.functions + b.functions,
        dependencies=a.dependencies + b.dependencies,
        default_inputs={**a.default_inputs, **b.default_inputs})


# Simulated cycles per unit of estimated sweep cost, over the population of
# random_small_shape programs and two-chain pairs.
CYCLES_PER_COST = 0.23


def _sweep_cost(cycles: int, functions: int) -> int:
    """Estimated host cost of a single-outage sweep, in arbitrary units.

    Each of the sweep's 3 x M runs (M progress cycles) pays a fixed cost per
    function, about that of stepping 64 cycles with the pure-Python kernel,
    plus the M cycles it steps.
    """
    return len(POLICIES) * cycles * (64 * functions + cycles)


def setup(workload: str, seed: int, size: str = "full") -> List[Case]:
    params = SIZES[size][workload]
    if workload in ("paper-grid", "outage-dense"):
        return [_prepared(name, benchgen.preset_program(name))
                for name in params["presets"]]
    # Chains are drawn until the estimated cost of the sweeps reaches a fixed
    # budget. A chain is skipped when it would move the ratio of simulated
    # cycles to cost away from its population value, so that both the work
    # and the cycles of a repetition hardly depend on the seed.
    rng = random.Random(seed)
    seen = set()
    chains = []
    cases = []
    cost = cycles = 0
    while cost < params["sweep_cost"] or len(chains) < 2:
        s = rng.randrange(1, 1_000_000)
        if s in seen:
            continue
        seen.add(s)
        chain = benchgen.generate(benchgen.random_small_shape(s))
        shapes = [(powersim.makespan(chain), len(chain.functions))]
        if chains:
            prev_seed, prev = chains[-1]
            shapes.append((max(shapes[0][0], powersim.makespan(prev)),
                           shapes[0][1] + len(prev.functions)))
        c = sum(_sweep_cost(m, f) for m, f in shapes)
        y = sum(len(POLICIES) * m * m for m, _ in shapes)
        if cost and (abs((cycles + y) / (cost + c) - CYCLES_PER_COST)
                     > max(abs(cycles / cost - CYCLES_PER_COST), 0.02 * CYCLES_PER_COST)):
            continue
        cost += c
        cycles += y
        cases.append(_prepared(f"rnd{s}", chain))
        if chains:
            cases.append(_prepared(f"rnd{prev_seed}+rnd{s}", _two_chains(prev, chain)))
        chains.append((s, chain))
    return cases


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(workload: str, cases: List[Case], seed: int, runs: Runs) -> None:
    if workload == "paper-grid":
        for case in cases:
            for pol in POLICIES:
                for k in PAPER_KS:
                    runs.attempt(case, 1, lambda: powersim.run_monte_carlo(
                        case.program, [powersim.Policy(pol)], [k], 1, seed,
                        benchmark=case.name, prepared=case.prep))
    elif workload == "outage-dense":
        for case in cases:
            k = case.prep.total_cycles // OUTAGE_EVERY
            for pol in (powersim.DFT, powersim.FULLCHIP):
                trace_seed = powersim.derive_seed(seed, case.name, pol, k, 0)
                runs.attempt(case, 1, lambda: powersim.run(
                    case.program, powersim.Policy(pol),
                    powersim.gen_trace(case.prep.total_cycles, k, trace_seed),
                    prepared=case.prep))
    else:
        policies = [powersim.Policy(p) for p in POLICIES]
        for case in cases:
            total = case.prep.total_cycles
            for point in range(total):
                trace = powersim.PowerTrace(points=(point,), seed=point,
                                            total_cycles=total)
                for policy in policies:
                    runs.attempt(case, 1, lambda: powersim.run(
                        case.program, policy, trace, prepared=case.prep))


# ---------------------------------------------------------------------------
# Checks and metrics, outside the timed phase
# ---------------------------------------------------------------------------

def interpreter_mismatches(cases: List[Case]) -> List[str]:
    """Cases whose ``execute_reference`` disagrees with the dict interpreter.

    ``execute_reference`` on a normalized program steps the same engine
    kernel as ``run``, so a kernel fault would pass the consistency check
    of every run; ``program._interp_region`` shares no code with it.
    """
    bad = []
    for case in cases:
        p = case.program
        widths: Dict[str, int] = {}
        for f in p.functions:
            widths.update(f.region.reg_widths)
        regs = {reg: v & prog.U32 for reg, v in p.default_inputs.items()}
        for fid in p.topo_order():
            prog._interp_region(p.function(fid).region, regs, widths)
        expected = {reg: regs[reg] for reg in sorted(p.all_result_regs())}
        if expected != case.prep.reference:
            bad.append(case.name)
    return bad


def digest(records: List[dict]) -> str:
    """sha256 over the simulated outputs of every run, in run order."""
    h = hashlib.sha256()
    for r in records:
        row = [r["case"], r["policy"], r["k"], r["seed"], r["total_rollback"],
               r["ff_stores"], r["wall_progress_cycles"],
               sorted(r["final_state"].items())]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def simulated_metrics(cases: List[Case], records: List[dict]) -> Dict[str, float]:
    """Simulated-time results: deterministic for a fixed seed."""
    out: Dict[str, float] = {}
    for pol in (powersim.DFT, powersim.CP):
        mine = [r for r in records if r["policy"] == pol]
        outages = sum(r["outages"] for r in mine)
        if mine:
            out[f"rollback_per_outage.{pol}"] = (
                sum(r["total_rollback"] for r in mine) / outages if outages else 0.0)
            out[f"ff_stores_per_run.{pol}"] = sum(r["ff_stores"] for r in mine) / len(mine)
    cycles = sum(r["wall_progress_cycles"] for r in records)
    base = sum(r["uninterrupted"] for r in records)
    out["reexec_frac"] = (cycles - base) / base if base else 0.0
    out["bram.dft"] = sum(bram_usage(c.prep.table) for c in cases)
    out["simulated_cycles"] = cycles
    out["outages"] = sum(r["outages"] for r in records)
    return out
