#!/usr/bin/env python3
"""Benchmark of the constrep package, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload curve_x --seed 1 --seconds 30 --trace 0

Workloads are ``curve_x``, ``estimate_words`` and ``kesten_balls`` (see
``workloads.py``). The run measures set-up time in separate processes, then
runs the workload's timed rounds back to back. The number of rounds follows
from ``--seconds`` alone, so the same seed and run length check the same
inputs on fast and slow code. Every op is then checked with code that does
not use the package's power iteration (``checks.py``). The gated times are
at reference speed: wall-clock figures scaled by the host's slowdown during
the run, which a fixed reference kernel measures (``calibrate.py``); the
wall-clock figures are printed beside them. Stdout carries one line per
metric, then one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the JSON metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` every round runs twice, untraced and
then traced (``spans.py``), and the JSON carries the per-layer metrics and
the tracing overhead. A record with the environment, every op's value and
time, and a digest of the values is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 5
SETUP_PROBE_SAMPLES = 3
SETUP_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy asks for transparent huge pages on arrays of 4 MB and more (the
# oracle's 720 x 720 grids); whether the host grants them varies from run to
# run and moves peak RSS by about 8 MB, so the benchmark turns that off.
HUGEPAGE_VAR = "NUMPY_MADVISE_HUGEPAGE"
WORKLOAD_NAMES = ("curve_x", "estimate_words", "kesten_balls")

UNITS = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "value_ratio_mean": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_environment():
    """One BLAS thread, no package thread pool, no huge pages; children inherit it."""
    os.environ.pop("CONSTRAINED_REP_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ[HUGEPAGE_VAR] = "0"


def setup_probe(args):
    """Time importing constrep and building the inputs, in this fresh process.

    Prints the wall time and the host's slowdown measured right after it.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
    seconds = time.perf_counter() - t0
    import calibrate

    probe = calibrate.Probe("dense")
    for _ in range(SETUP_PROBE_SAMPLES):
        probe.sample()
    print(repr(seconds), repr(probe.slowdown()))


def measure_setup(args, samples):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(samples):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        seconds, slowdown = done.stdout.strip().splitlines()[-1].split()
        times.append((float(seconds), float(slowdown)))
    return times


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    import constrep

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "CONSTRAINED_REP_THREADS": os.environ.get("CONSTRAINED_REP_THREADS"),
        HUGEPAGE_VAR: os.environ.get(HUGEPAGE_VAR),
        "constrep": os.path.relpath(constrep.__file__, BENCH_DIR.parent),
    }


def run_rounds(workload, probe, tracer):
    """Run each timed round, and with a tracer its traced twin after it.

    The probe samples the host during untraced rounds only, so that no
    sample lands inside a span.
    """
    untraced, traced = [], []
    for r in range(workload.rounds):
        probe.start()
        try:
            untraced.append(timed_round(workload, r, probe.clock))
        finally:
            probe.stop()
        if tracer is not None:
            tracer.install()
            try:
                traced.append(timed_round(workload, r, probe.clock, tracer))
            finally:
                tracer.uninstall()
    return untraced, traced


def timed_round(workload, r, clock, tracer=None):
    """(round index, output or None, seconds, error text)."""
    t0 = clock()
    try:
        if tracer is None:
            output = workload.run_round(r, clock)
        else:
            output = tracer.round(workload.run_round, r, clock)
    except Exception:  # a failing round is counted, and the run goes on
        return r, None, clock() - t0, traceback.format_exc()
    return r, output, clock() - t0, None


def round_records(workload, rounds):
    """Checked op records of each round; a round that raised fails."""
    out = []
    for r, output, seconds, error in rounds:
        if output is None:
            print(f"round {r} raised:\n{error}", file=sys.stderr)
            out.append([{"key": f"round {r}", "value": float("nan"), "seconds": seconds,
                         "failures": ["raised"], "gap": 0.0, "ratio": 0.0,
                         "letters": 0, "l1_closed": False}])
        else:
            out.append(workload.records(output))
    return out


def flatten(rounds):
    return [rec for records in rounds for rec in records]


def ops_per_s(rounds):
    """Ops completed per second of op wall time, over all timed rounds."""
    records = flatten(rounds)
    return len(records) / sum(r["seconds"] for r in records)


def digest(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(f"{rec['key']}={rec['value']!r}\n".encode())
    return h.hexdigest()


def metric_line(name, value, unit, note=""):
    print(f"{name:<44} {value:>14.6g} {unit:<10} {note}".rstrip())


def summarize(rounds, slowdown):
    """Run summary; ``ops_per_s`` and ``op_s_p50`` are at reference speed."""
    records = flatten(rounds)
    return {
        "ops": len(records),
        "rounds": len(rounds),
        "ops_per_s": ops_per_s(rounds) * slowdown,
        "wall_ops_per_s": ops_per_s(rounds),
        "op_s_p50": statistics.median(r["seconds"] for r in records) / slowdown,
        "value_ratio_mean": statistics.fmean(r["ratio"] for r in records),
        "value_mean": statistics.fmean(r["value"] for r in records),
        "cert_gap_max": max(r["gap"] for r in records),
        "letters_mean": statistics.fmean(r["letters"] for r in records),
        "l1_closed_frac": sum(r["l1_closed"] for r in records) / len(records),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "constrep" / "__init__.py").is_file():
        print(f"perfbench: package source not found at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup_runs = measure_setup(args, 2 if args.tiny else SETUP_SAMPLES)
    setup_s = statistics.median(seconds / slowdown for seconds, slowdown in setup_runs)
    wall_setup_s = statistics.median(seconds for seconds, _ in setup_runs)
    sys.path.insert(0, str(SRC))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        import calibrate
        import spans
        import workloads

        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
        finally:
            if tracer is not None:
                tracer.uninstall()
        probe = calibrate.Probe(workload.probe_kind)
        untraced, traced = run_rounds(workload, probe, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain_rounds = round_records(workload, untraced)
        traced_rounds = round_records(workload, traced)
    records, traced_records = flatten(plain_rounds), flatten(traced_rounds)
    power_warnings = sum(1 for w in caught if w.category.__name__ == "PowerIterationWarning")

    for plain, rec in zip(records, traced_records):
        if repr(plain["value"]) != repr(rec["value"]):
            rec["failures"].append(f"traced value {rec['value']!r} != untraced {plain['value']!r}")
    all_records = records + traced_records
    slowdown = probe.slowdown()
    s = summarize(plain_rounds, slowdown)
    failed = sum(1 for r in all_records if r["failures"])
    for rec in all_records:
        for failure in rec["failures"]:
            print(f"check failed: {rec['key']}: {failure}", file=sys.stderr)

    env = environment()
    print(f"# {args.workload} seed={args.seed}: {workload.size}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# values_sha256 {digest(records)} over {len(records)} ops")
    n_note = f"n={s['ops']} ops"
    metric_line("ops_per_s", s["ops_per_s"], "1/s", f"{n_note} in {s['rounds']} rounds, at reference speed")
    metric_line("wall_ops_per_s", s["wall_ops_per_s"], "1/s", f"{n_note}, wall clock")
    metric_line("host_slowdown", slowdown, "ratio",
                f"harmonic mean of {len(probe.samples)} {probe.kind} kernel samples")
    metric_line("op_s_p50", s["op_s_p50"], "s", f"{n_note}, at reference speed")
    metric_line("setup_s", setup_s, "s", f"median of {len(setup_runs)} processes, at reference speed")
    metric_line("wall_setup_s", wall_setup_s, "s", f"median of {len(setup_runs)} processes, wall clock")
    metric_line("failed_frac", failed / len(all_records), "frac", f"{failed} of {len(all_records)} ops")
    metric_line("cert_gap_max", s["cert_gap_max"], "abs", n_note)
    metric_line("value_mean", s["value_mean"], "value", n_note)
    metric_line("value_ratio_mean", s["value_ratio_mean"], "ratio", n_note)
    metric_line("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss of this process before the checks")
    metric_line("letters_mean", s["letters_mean"], "letters", n_note)
    metric_line("l1_closed_frac", s["l1_closed_frac"], "frac", n_note)
    metric_line("power_iteration_warnings", power_warnings, "count", f"{len(caught)} warnings in all")

    end_to_end = {
        "ops_per_s": s["ops_per_s"],
        "setup_s": setup_s,
        "value_ratio_mean": s["value_ratio_mean"],
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in end_to_end.items()}
    record = {"args": vars(args), "env": env, "setup_runs": setup_runs,
              "probe": {"kind": probe.kind, "samples": probe.samples},
              "end_to_end": end_to_end, "summary": s, "values_sha256": digest(records),
              "ops": records}

    if tracer is not None:
        layer = spans.layer_metrics(tracer, len(traced_records))
        traced_ops_per_s = ops_per_s(traced_rounds)
        overhead = 1.0 - traced_ops_per_s / s["wall_ops_per_s"] if s["wall_ops_per_s"] else 0.0
        layer["trace.overhead_frac"] = (overhead, "frac")
        layer["linalg.power_iteration_warnings"] = (power_warnings / len(all_records), "count/op")
        layer["optimize.l1_closed_frac"] = (s["l1_closed_frac"], "frac")
        layer["freegroup.letters_mean"] = (s["letters_mean"], "letters")
        print(f"# tracing overhead {overhead:.2%}: traced {traced_ops_per_s:.6g} ops/s, "
              f"untraced {s['wall_ops_per_s']:.6g} ops/s, wall clock, same inputs")
        for name, (value, unit) in layer.items():
            metric_line(name, value, unit)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        record["per_layer"] = metrics
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"{args.workload}_seed{args.seed}_spans.jsonl")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
