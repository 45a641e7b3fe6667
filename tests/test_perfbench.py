"""The benchmark harness runs against the package: every workload, traced.

A traced run wraps the layer functions the harness measures and checks every
op through ``perfbench/checks.py``, which reads ``Word.letters``; a renamed
function or attribute fails here.
"""

import importlib.util
import json

import pytest
from conftest import ROOT

_spec = importlib.util.spec_from_file_location("selftest", ROOT / "perfbench" / "selftest.py")
selftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(selftest)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_tiny_run_passes_the_selftest(workload):
    assert selftest.check_run(BENCHMARK, workload, 1) == []
