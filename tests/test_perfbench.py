"""The benchmark harness runs against the package: every workload, traced.

A traced run wraps the layer functions the harness measures and checks every
op through ``perfbench/checks.py``, which reads ``Word.letters``; a renamed
function or attribute fails here.
"""

import importlib.util
import json
import subprocess
import sys

import pytest
from conftest import ROOT

_spec = importlib.util.spec_from_file_location("selftest", ROOT / "perfbench" / "selftest.py")
selftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(selftest)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_tiny_run_passes_the_selftest(workload):
    assert selftest.check_run(BENCHMARK, workload, 1) == []


def test_traced_estimate_counts_every_start_of_the_ascent():
    # The oracle start, one fresh d = 1 start and one fresh d = 2 start per
    # estimate, all counted where the tracer counts starts: in _ascend.
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "estimate_words",
           "--tiny", "--trace", "1", "--seed", "7", "--seconds", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=selftest.RUN_TIMEOUT_S)
    assert done.returncode == 0, done.stderr[-500:]
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["optimize.ascent.starts"]["value"] == 3.0
    assert metrics["optimize.ascent.steps"]["value"] == 15.0
