#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that the last stdout line is the result object, that it carries
exactly the metrics BENCHMARK.json names for that mode, each with its
declared unit and a finite value, and that no warning reached stdout.
Exits 0 when every run passes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    problems = []
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    if set(printed) != set(declared):
        problems.append(f"metrics differ: missing {sorted(set(declared) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(declared))}")
    for name, unit in declared.items():
        entry = printed.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, declared {unit!r}")
        if not (isinstance(entry.get("value"), (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{name}: value {entry.get('value')!r}")
        if not any(line.split()[:1] == [name] for line in lines[:-1]):
            problems.append(f"{name}: no metric line on stdout")
    if any("Warning" in line for line in lines):
        problems.append("a warning reached stdout")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            failures += bool(problems)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} --trace {trace}")
            for problem in problems:
                print(f"    {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
