"""dftsim benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports dftsim from ``src``.
It starts ``rep.py`` again and again, one process at a time (a closed loop
with one caller), until ``--seconds`` have passed. Every repetition makes
the same inputs from ``--seed``, so its simulated results must repeat
exactly; host metrics are medians over the repetitions.

End-to-end metrics (``--trace 0``), in host time:

* ``setup_s``: from just before ``import dftsim`` until every program of the
  workload is generated, normalized and prepared, in a fresh process;
* ``wall_s``: the simulation phase, every ``run`` / ``run_monte_carlo`` call;
* ``host_ns_per_cycle``: ``wall_s`` over the simulated cycles, re-execution
  included;
* ``peak_rss_mb``: peak resident memory of the repetition's process.

``setup_s`` and ``wall_s`` are scaled to a nominal host speed: each is
multiplied by 15 ms over the mean time of a fixed loop sampled around and
during the phase (see ``rep.HostSpeed``). The unscaled medians are printed
and recorded as ``setup_s.raw`` and ``wall_s.raw``.

The simulated results (``SIMULATED``) and ``failed_frac`` are printed and
recorded too. With ``--trace 1`` it alternates untraced repetitions with
traced ones and reports the per-layer span statistics of the traced ones
(unscaled), plus the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is a JSON record of the
environment, the digest of the simulated results and every metric. The
exit code is 1 when any run or check failed, 2 when the dftsim sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SETUP_NAMES, SIM_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("paper-grid", "outage-dense", "crash-sweep")

MIN_REPS = 3          # of each kind (untraced, traced) in a run
TIME_LIMIT_S = 150    # start no repetition that may end after this
NOMINAL_SPEED_S = 0.015   # loop time of rep.HostSpeed at nominal speed

# Bounded end-to-end metrics (BENCHMARK.json), in host time.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "host_ns_per_cycle": "ns",
    "peak_rss_mb": "MB",
}

# Unscaled host times and the loop time of rep.HostSpeed, printed and recorded.
RAW = {"setup_s.raw": "s", "wall_s.raw": "s", "host_speed_s": "s"}

# Simulated results, in simulated time and model units. They are printed
# and recorded but not bounded: for a fixed seed they repeat exactly, and
# across seeds they vary with the inputs.
SIMULATED = {
    "failed_frac": "ratio",
    "rollback_per_outage.dft": "cycles",
    "rollback_per_outage.cp": "cycles",
    "ff_stores_per_run.dft": "ff/run",
    "ff_stores_per_run.cp": "ff/run",
    "reexec_frac": "ratio",
    "bram.dft": "blocks",
}

# Per-layer metrics of the traced run. ``powersim.gen_trace`` keeps only its
# call count: it takes microseconds, and crash-sweep never calls it.
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.calls"] = "count"
    if _name != "powersim.gen_trace":
        PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "engine.region_run.cycles": "cycles",
    "engine.cycles_per_call": "cycles",
    "powersim.outages": "count",
    "trace.overhead_frac": "ratio",
})


REP_KEYS = ("setup_s", "wall_s", "setup_speed_s", "wall_speed_s", "peak_rss_mb")


def repetition(args, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--size", args.size]
    if args.inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"repetition failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(args):
    """Repetitions until ``args.seconds`` have passed: (untraced, traced)."""
    start = time.perf_counter()
    plain, traced = [], []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        need = len(plain) < MIN_REPS or (args.trace and len(traced) < MIN_REPS)
        if elapsed >= args.seconds and not need:
            break
        if elapsed + 1.5 * longest > TIME_LIMIT_S:
            break
        trace_next = bool(args.trace) and len(traced) < len(plain)
        t = time.perf_counter()
        rep = repetition(args, trace_next, TIME_LIMIT_S + 20 - elapsed)
        longest = max(longest, time.perf_counter() - t)
        (traced if trace_next else plain).append(rep)
    return plain, traced


def median(reps, key):
    return statistics.median(key(r) for r in reps)


def scaled(rep: dict, phase: str) -> float:
    """Host time of a phase at the nominal host speed."""
    speed = rep["setup_speed_s" if phase == "setup_s" else "wall_speed_s"]
    return rep[phase] * NOMINAL_SPEED_S / speed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small programs, for the self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt every run's final state, for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "dftsim" / "__init__.py").is_file():
        print(f"dftsim sources not found in {SRC}", file=sys.stderr)
        return 2

    plain, traced = measure(args)
    reps = plain + traced
    first = reps[0]
    deterministic = all(r["digest"] == first["digest"]
                        and r["simulated"] == first["simulated"] for r in reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    sim = first["simulated"]

    metrics = {
        "setup_s": median(plain, lambda r: scaled(r, "setup_s")),
        "wall_s": median(plain, lambda r: scaled(r, "wall_s")),
        "host_ns_per_cycle": median(
            plain, lambda r: scaled(r, "wall_s") * 1e9 / sim["simulated_cycles"]),
        "peak_rss_mb": median(plain, lambda r: r["peak_rss_mb"]),
        "setup_s.raw": median(plain, lambda r: r["setup_s"]),
        "wall_s.raw": median(plain, lambda r: r["wall_s"]),
        "host_speed_s": median(plain, lambda r: r["wall_speed_s"]),
        "failed_frac": failed / attempted,
    }
    metrics.update({k: sim[k] for k in SIMULATED if k in sim})
    units = {**END_TO_END, **RAW, **SIMULATED}
    if traced:
        for name in PER_LAYER:
            if name in traced[0]["spans"]:
                metrics[name] = median(traced, lambda r: r["spans"][name])
        metrics["powersim.outages"] = sim["outages"]
        metrics["trace.overhead_frac"] = (
            median(traced, lambda r: scaled(r, "wall_s")) / metrics["wall_s"] - 1)
        units.update(PER_LAYER)

    env = first["env"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["kernel"] == "python":
        print("host times come from the pure-Python engine kernel "
              "(the compiled kernel is not built)")
    print(f"workload={args.workload} seed={args.seed} "
          f"repetitions={len(plain)} untraced, {len(traced)} traced; "
          f"runs attempted={attempted} failed={failed}")
    print(f"simulated-results sha256 {first['digest']}"
          + ("" if deterministic else " (differs between repetitions)"))
    if first["interpreter_mismatches"]:
        print("reference differs from the dict interpreter on: "
              + ", ".join(first["interpreter_mismatches"]))
    for name in {**END_TO_END, **RAW, **SIMULATED}:
        if name in metrics:
            print(f"  {name:26s} {metrics[name]:>14.6g} {units[name]}")
        else:
            print(f"  {name:26s} {'n/a':>14s} (cp is not run on {args.workload})")
    if traced:
        for phase, names, key in (("set-up", SETUP_NAMES, "setup_s"),
                                  ("simulation", SIM_NAMES, "wall_s")):
            total = median(traced, lambda r: r[key])
            print(f"traced {phase} phase, {total:.4f} s: calls, self time, share")
            for name in sorted(names, key=lambda n: -metrics.get(f"{n}.self_s", 0)):
                self_s = metrics.get(f"{name}.self_s")
                share = f"{self_s / total:8.1%}" if self_s is not None else ""
                print(f"  {name:26s} {metrics[name + '.calls']:>10.0f} "
                      f"{self_s or 0:>10.4f} s {share}")
        for name in ("engine.region_run.cycles", "engine.cycles_per_call",
                     "powersim.outages", "trace.overhead_frac"):
            print(f"  {name:26s} {metrics[name]:>14.6g} {units[name]}")

    correct = failed == 0 and deterministic
    shown = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "digest": first["digest"], "metrics": metrics,
                      "repetitions": [{k: r[k] for k in REP_KEYS} for r in plain]}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
