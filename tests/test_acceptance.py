"""Acceptance checks: one test per shipped guarantee, full stated scale.

Each test prints exactly one ``ACCEPTANCE <k> <name>: PASS|FAIL`` line with
its worst residuals, then asserts. Run with ``pytest -v`` (test names mirror
the criteria) or ``pytest -s`` to see the lines inline.
"""

import math
import time

import numpy as np
from conftest import run_cli

from constrep import optimize, representation, verify
from constrep.freegroup import averaging_element
from constrep.linalg import random_unitary


def _report(num, name, ok, detail):
    line = "ACCEPTANCE %d %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _twenty_reference_pairs():
    """20 constrained pairs: 5 per (mu, d) combination, deterministic."""
    reps = []
    index = 0
    for mu in (1.0, 3.0):
        for dim in (2, 4):
            for _ in range(5):
                reps.append(representation.random_constrained(dim, mu, seed=700 + index))
                index += 1
    return reps


def test_criterion_01_deformation_scaling():
    start = time.perf_counter()
    dims = (2, 4, 8, 16)
    pairs = [
        representation.random_constrained(dims[index % 4], 4.0, seed=index)
        for index in range(100)
    ]
    _, worst_scale, worst_unitary, worst_commute = verify.deformation_residuals(
        pairs, np.linspace(0.0, 1.0, 21)
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_scale <= 1e-8
        and worst_unitary <= 1e-9
        and worst_commute <= 1e-9
        and elapsed < 30.0
    )
    _report(
        1,
        "deformation_scaling",
        ok,
        "scale=%.3e unitary=%.3e commute=%.3e time=%.1fs"
        % (worst_scale, worst_unitary, worst_commute, elapsed),
    )


def test_criterion_02_retraction_exactness():
    worst_target = 0.0
    worst_zero_relation = 0.0
    for mu_index, mu in enumerate((0.0, 1.0, 2.0, 3.0)):
        pairs = []
        attempt = 0
        while len(pairs) < 100:
            rep = representation.random_constrained(
                8, 4.0, seed=10_000 * (mu_index + 1) + attempt
            )
            attempt += 1
            assert attempt < 2000, "rejection sampling exhausted"
            if representation.constraint_value(rep) > mu:
                pairs.append(rep)
        target, zero_relation, _ = verify.retraction_residuals(pairs, mu)
        worst_target = max(worst_target, target)
        worst_zero_relation = max(worst_zero_relation, zero_relation)
    ok = worst_target <= 1e-8 and worst_zero_relation <= 1e-8
    _report(
        2,
        "retraction_exactness",
        ok,
        "target=%.3e zero_relation=%.3e" % (worst_target, worst_zero_relation),
    )


def test_criterion_03_zero_constrained_constructor():
    unitaries = [random_unitary(2 + index % 7, seed=3000 + index) for index in range(50)]
    worst_unitary, worst_relation = verify.zero_constructor_residuals(unitaries)
    ok = worst_unitary <= 1e-9 and worst_relation <= 1e-9
    _report(
        3,
        "zero_constrained_constructor",
        ok,
        "unitary=%.3e relation=%.3e" % (worst_unitary, worst_relation),
    )


def test_criterion_04_averaging_norm_curve():
    start = time.perf_counter()
    grid = np.arange(0.0, 4.0 + 1e-12, 0.25)
    curve = optimize.norm_curve(averaging_element(), grid, optimize.OptimizerConfig())
    deviation, decrease, max_increment = verify.averaging_curve_residuals(curve)
    elapsed = time.perf_counter() - start
    monotone = decrease == 0.0
    ok = (
        deviation <= 5e-2
        and monotone
        and max_increment <= 0.25 + 0.1
        and elapsed < 600.0
    )
    _report(
        4,
        "averaging_norm_curve",
        ok,
        "deviation=%.3e monotone=%s increment=%.3f time=%.1fs"
        % (deviation, monotone, max_increment, elapsed),
    )


def test_criterion_05_unit_generator_norm():
    config = optimize.OptimizerConfig(dims=(1, 2, 4), restarts=6, max_steps=200)
    worst = verify.unit_generator_residual((0.0, 2.0, 4.0), config)
    ok = worst <= 1e-6
    _report(5, "unit_generator_norm", ok, "deviation=%.3e" % worst)


def test_criterion_06_oracle_agreement():
    mus = (0.5, 1.5, 2.5, 3.5)
    config = optimize.OptimizerConfig(dims=(1, 2), restarts=4, max_steps=150)
    worst_oracle = verify.oracle_line_residual(mus)
    worst_floor = verify.oracle_floor_residual(averaging_element(), mus, config)
    ok = worst_oracle <= 2e-2 and worst_floor <= 1e-9
    _report(
        6,
        "oracle_agreement",
        ok,
        "oracle=%.3e floor=%.3e" % (worst_oracle, worst_floor),
    )


def test_criterion_07_sine_identity():
    worst, blocks = verify.rotation_residuals(
        _twenty_reference_pairs(), np.linspace(0.0, math.pi / 2, 33)
    )
    ok = worst <= 1e-8 and blocks <= 1e-12
    _report(7, "sine_identity", ok, "residual=%.3e blocks=%.3e" % (worst, blocks))


def test_criterion_08_homotopy_endpoints():
    worst = max(verify.rotation_endpoint_residuals(_twenty_reference_pairs()))
    ok = worst <= 1e-10
    _report(8, "homotopy_endpoints", ok, "residual=%.3e" % worst)


def test_criterion_09_wedge_annihilates_averaging_element():
    basepoint, kill = verify.wedge_residuals(4096)
    ok = kill <= 1e-12 and basepoint <= 1e-10
    _report(
        9,
        "wedge_annihilates_averaging_element",
        ok,
        "sum=%.3e basepoint=%.3e" % (kill, basepoint),
    )


def test_criterion_10_winding_numbers():
    # A residual below 1e-3 also makes winding_number return the expected
    # integer, which rounds the total and needs a residual below 0.01.
    worst = max(verify.winding_residuals(4096))
    ok = worst < 1e-3
    _report(10, "winding_numbers", ok, "residual=%.3e" % worst)


def test_criterion_11_character_homotopies():
    paths = verify.character_path_residuals(_twenty_reference_pairs(), 33)
    worst_unitary, worst_excess, worst_endpoint, worst_scaling = map(
        max, zip(*paths.values())
    )
    ok = (
        worst_unitary <= 1e-9
        and worst_excess <= 1e-9
        and worst_endpoint <= 1e-9
        and worst_scaling <= 1e-9
    )
    _report(
        11,
        "character_homotopies",
        ok,
        "unitary=%.3e excess=%.3e endpoint=%.3e scaling=%.3e"
        % (worst_unitary, worst_excess, worst_endpoint, worst_scaling),
    )


def test_criterion_12_scalar_characters():
    residuals = verify.scalar_character_residuals()
    worst = residuals["wedge_character_diagonal"]
    fold_exact = residuals["fold_fixes_i"] == 0.0
    ok = worst == 0.0 and fold_exact
    _report(
        12,
        "scalar_characters",
        ok,
        "residual=%.3e fold_fixes_i=%s" % (worst, fold_exact),
    )


def test_criterion_13_kesten_benchmark():
    start = time.perf_counter()
    depth_one, min_increase, excess, gap = verify.kesten_residuals(10)
    elapsed = time.perf_counter() - start
    increasing = min_increase > 0.0
    ok = (
        depth_one <= 1e-9
        and increasing
        and excess < 0.0
        and gap < 0.2
        and gap > 0.0
        and elapsed < 60.0
    )
    _report(
        13,
        "kesten_benchmark",
        ok,
        "depth1=%.3e increasing=%s gap=%.3f time=%.1fs"
        % (depth_one, increasing, gap, elapsed),
    )


def test_criterion_14_byte_determinism():
    verify_args = ["verify", "--suite", "all", "--seed", "0"]
    first = run_cli(*verify_args)
    second = run_cli(*verify_args)
    verify_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )

    curve_args = [
        "curve",
        "-e",
        "u + u^-1 + v + v^-1",
        "--grid",
        "0:4:0.5",
        "--dims",
        "1,2,4",
        "--restarts",
        "4",
        "--max-steps",
        "150",
        "--seed",
        "0",
    ]
    runs = [run_cli(*curve_args) for _ in range(3)]
    curve_ok = all(run.returncode == 0 for run in runs) and (
        runs[0].stdout == runs[1].stdout == runs[2].stdout
    )

    ok = verify_ok and curve_ok
    _report(
        14,
        "byte_determinism",
        ok,
        "verify_identical=%s curve_identical=%s" % (verify_ok, curve_ok),
    )
