"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py --workload paper-grid --seed 1 [--trace 1]

Times set-up from just before ``import dftsim`` until every program is
generated, normalized and prepared, then times the simulation phase, then
checks each program's reference execution against the dict interpreter.
Prints one JSON object on stdout. ``run.py`` starts this once per
repetition, so import and set-up costs are paid in every repetition.

On a shared machine the speed of the host drifts by tens of percent within
seconds to minutes. ``HostSpeed`` samples it around each phase and, during
the simulation phase, between runs, so that ``run.py`` can scale host
times to a nominal speed. The sampling time is not counted in ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass(frozen=True)
class _Slot:
    x: int
    y: int


_SLOTS = [_Slot(i % 100, i // 100) for i in range(600)]
_KEPT = frozenset(_SLOTS[::3])
_OWNERS = [(_SLOTS[i], _SLOTS[i * 7 % 600]) for i in range(300)]


def _speed_loop() -> None:
    """Fixed interpreter work: integer arithmetic, then hashing of frozen
    dataclasses, set membership and generator expressions, like the
    simulator's kernel and its outage path."""
    x = 0
    for i in range(75_000):
        x += i * i & 7
    for _ in range(16):
        kept = set(_KEPT)
        x += sum(1 for addrs in _OWNERS if any(a not in kept for a in addrs))


class HostSpeed:
    """Host speed, sampled as the time of ``_speed_loop``.

    The loop takes about 15 ms on a 2-core x86-64 VM with CPython 3.11.
    """

    INTERVAL_S = 0.25     # longest stretch of work between two samples

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def sample(self, times: int = 3) -> None:
        for _ in range(times):
            t = time.perf_counter()
            _speed_loop()
            self.last = time.perf_counter()
            self.samples.append(self.last - t)
            self.spent += self.last - t

    def tick(self) -> None:
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample(1)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def corrupt_final_state(run):
    """Wrap ``powersim.run`` so that every report has one result register
    flipped. Used by the self-test to show that a wrong run is caught."""
    def faulty(*args, **kwargs):
        report = run(*args, **kwargs)
        reg = min(report.final_state)
        report.final_state[reg] ^= 1
        return report
    return faulty


def environment(dftsim) -> dict:
    import numpy
    return {
        "kernel": dftsim.KERNEL_NAME,
        "DFTSIM_PURE_PYTHON": bool(os.environ.get("DFTSIM_PURE_PYTHON")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "dftsim" / "__init__.py").is_file():
        print(f"dftsim sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if args.trace else None

    setup_speed = HostSpeed()
    setup_speed.sample()
    t0 = time.perf_counter()
    import dftsim
    import workloads
    if tracer:
        tracer.install_setup()
    cases = workloads.setup(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - t0
    setup_speed.sample()

    if Path(dftsim.__file__).resolve().parent != (SRC / "dftsim").resolve():
        print(f"imported dftsim from {dftsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sim_speed = HostSpeed()
    runs = workloads.Runs(between=sim_speed.tick)
    if tracer:
        tracer.install_sim()
    run = dftsim.powersim.run
    if args.inject_fault:
        run = corrupt_final_state(run)
    dftsim.powersim.run = runs.wrap(run)

    sim_speed.sample()
    spent = sim_speed.spent
    t1 = time.perf_counter()
    workloads.simulate(args.workload, cases, args.seed, runs)
    wall_s = time.perf_counter() - t1 - (sim_speed.spent - spent)
    sim_speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    mismatches = workloads.interpreter_mismatches(cases)
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_speed_s": setup_speed.mean(),
        "wall_speed_s": sim_speed.mean(),
        "peak_rss_mb": peak_rss_mb,
        "attempted": runs.attempted + len(cases),
        "failed": runs.failed + len(mismatches),
        "interpreter_mismatches": mismatches,
        "digest": workloads.digest(runs.records),
        "simulated": workloads.simulated_metrics(cases, runs.records),
        "spans": tracer.report() if tracer else None,
        "env": environment(dftsim),
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
