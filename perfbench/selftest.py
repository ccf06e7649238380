"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run it from the root of a source checkout. It checks that:

* ``BENCHMARK.json`` names the workloads and metrics that ``run.py`` emits;
* every workload emits every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) with its unit, and prints each
  simulated result by name and unit;
* a run made wrong on purpose (every report's final state corrupted)
  shows up in ``failed`` and ``failed_frac`` and in the exit code;
* without the dftsim sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.HERE.parent
SCRATCH = ROOT / ".perfbench-selftest"

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_manifest() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")
    check({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end metrics match run.py")
    check({m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer metrics match run.py")


def check_workload(workload: str) -> None:
    for trace, expected in (("0", run.END_TO_END), ("1", run.PER_LAYER)):
        proc = bench("--workload", workload, "--trace", trace, "--size", "tiny")
        what = f"{workload} --trace {trace}"
        check(proc.returncode == 0, f"{what}: exit code 0")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"{what}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{what}: correct, no failed runs")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == expected, f"{what}: every metric with its unit")
        check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
              f"{what}: numeric values")
        record = json.loads(lines[-2])["metrics"]
        shown = [n for n in run.SIMULATED
                 if not (workload == "outage-dense" and n.endswith(".cp"))]
        check(all(n in record for n in shown), f"{what}: simulated results recorded")
        printed = "\n".join(lines[:-2])
        check(all(f" {n} " in printed for n in run.SIMULATED)
              and all(f" {u}" in printed for u in run.SIMULATED.values()),
              f"{what}: simulated results printed with units")


def check_fault_caught() -> None:
    proc = bench("--workload", "crash-sweep", "--trace", "0", "--size", "tiny",
                 "--inject-fault")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["metrics"]
    check(proc.returncode != 0, "corrupted final state: non-zero exit code")
    check(not result["correct"] and result["failed"] > 0,
          "corrupted final state: failed runs counted")
    check(record["failed_frac"] > 0, "corrupted final state: failed_frac > 0")


def check_missing_sources() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(run.HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "paper-grid", "--trace", "0", cwd=SCRATCH)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without dftsim sources: non-zero exit, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    check_manifest()
    for workload in run.WORKLOADS:
        check_workload(workload)
    check_fault_caught()
    check_missing_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
