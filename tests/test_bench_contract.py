"""Every benchmark workload runs cleanly at the tiny size.

``perfbench/rep.py`` is the process the benchmark starts for each
repetition. Run traced on each workload, it must exit 0, report no failed
run or check, and report every span that ``perfbench/spans.py`` defines.
Run again untraced under another string-hash seed, it must report the same
digest and simulated results, which ``perfbench/run.py`` requires of every
repetition: they may not depend on the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_bench_spans import load_spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-grid", "outage-dense", "crash-sweep")
# Entry points of the outage path: the workloads that take outages must
# call each of them, so that no dftsim function stays only because the
# tracer names it. (``make_trackers`` and ``resume_point`` run in set-up,
# and ``crash-sweep`` makes its traces without ``gen_trace``.)
OUTAGE_PATH = ("tracker.can_start", "tracker.snapshot", "tracker.restore",
               "tracker.advance", "engine.region_run", "control_unit.row",
               "placement.occupied_ffs")


def tiny_repetition(workload, trace, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/rep.py", "--workload", workload, "--seed", "1",
         "--size", "tiny", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_repetition(workload):
    doc, stderr = tiny_repetition(workload, "1")
    assert doc["attempted"] > 0
    assert doc["failed"] == 0, stderr
    assert doc["interpreter_mismatches"] == []
    spans = doc["spans"]
    for name in load_spans().SPAN_NAMES:
        assert f"{name}.calls" in spans and f"{name}.self_s" in spans, name
    assert spans["powersim.run.calls"] > 0
    if workload in ("outage-dense", "crash-sweep"):
        for name in OUTAGE_PATH:
            assert spans[f"{name}.calls"] > 0, name
    # another hash seed than the traced run's, when that one is fixed
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    untraced, stderr = tiny_repetition(
        workload, "0", env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert untraced["failed"] == 0, stderr
    assert untraced["digest"] == doc["digest"]
    assert untraced["simulated"] == doc["simulated"]
