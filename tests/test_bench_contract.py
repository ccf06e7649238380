"""Every benchmark workload runs cleanly at the tiny size.

``perfbench/rep.py`` is the process the benchmark starts for each
repetition. Run traced on each workload, it must exit 0, report no failed
run or check, and report every span that ``perfbench/spans.py`` defines.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_bench_spans import load_spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-grid", "outage-dense", "crash-sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_repetition(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/rep.py", "--workload", workload, "--seed", "1",
         "--size", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["attempted"] > 0
    assert doc["failed"] == 0, proc.stderr
    assert doc["interpreter_mismatches"] == []
    spans = doc["spans"]
    for name in load_spans().SPAN_NAMES:
        assert f"{name}.calls" in spans and f"{name}.self_s" in spans, name
    assert spans["powersim.run.calls"] > 0
