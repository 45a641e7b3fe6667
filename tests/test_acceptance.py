"""Acceptance checks: one test per shipped guarantee, full stated scale.

Each test prints exactly one ``ACCEPTANCE <k> <name>: PASS|FAIL`` line with
its worst residuals, then asserts. Run with ``pytest -v`` (test names mirror
the criteria) or ``pytest -s`` to see the lines inline.
"""

import math
import subprocess
import sys
import time

import numpy as np

from constrep import bundle, homotopy, optimize, representation
from constrep.freegroup import averaging_element, generator
from constrep.linalg import random_unitary, unitarity_defect, operator_norm


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
    t_grid = np.linspace(0.0, 1.0, 21)
    worst_scale = 0.0
    worst_unitary = 0.0
    worst_commute = 0.0
    for index in range(100):
        dim = dims[index % 4]
        rep = representation.random_constrained(dim, 4.0, seed=index)
        base = representation.constraint_value(rep)
        for t in t_grid:
            moved = representation.deform(rep, float(t))
            value = representation.constraint_value(moved)
            worst_scale = max(worst_scale, abs(value - (1.0 - float(t)) * base))
            worst_unitary = max(
                worst_unitary, unitarity_defect(moved.u), unitarity_defect(moved.v)
            )
            worst_commute = max(
                worst_commute,
                float(np.max(np.abs(moved.u @ rep.u - rep.u @ moved.u))),
                float(np.max(np.abs(moved.v @ rep.v - rep.v @ moved.v))),
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
        found = 0
        attempt = 0
        while found < 100:
            rep = representation.random_constrained(
                8, 4.0, seed=10_000 * (mu_index + 1) + attempt
            )
            attempt += 1
            assert attempt < 2000, "rejection sampling exhausted"
            if representation.constraint_value(rep) <= mu:
                continue
            found += 1
            pulled = representation.retract_to(rep, mu)
            worst_target = max(
                worst_target, abs(representation.constraint_value(pulled) - mu)
            )
            if mu == 0.0:
                total = (
                    pulled.u + pulled.u.conj().T + pulled.v + pulled.v.conj().T
                )
                worst_zero_relation = max(
                    worst_zero_relation, float(np.max(np.abs(total)))
                )
    ok = worst_target <= 1e-8 and worst_zero_relation <= 1e-8
    _report(
        2,
        "retraction_exactness",
        ok,
        "target=%.3e zero_relation=%.3e" % (worst_target, worst_zero_relation),
    )


def test_criterion_03_zero_constrained_constructor():
    worst_unitary = 0.0
    worst_relation = 0.0
    for index in range(50):
        dim = 2 + index % 7  # d <= 8
        u = random_unitary(dim, seed=3000 + index)
        rep = representation.zero_constrained_from(u)
        worst_unitary = max(worst_unitary, unitarity_defect(rep.v))
        relation = rep.u + rep.u.conj().T + rep.v + rep.v.conj().T
        worst_relation = max(worst_relation, operator_norm(relation))
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
    elapsed = time.perf_counter() - start
    values = np.asarray(curve.values)
    deviation = float(np.max(np.abs(values - grid)))
    diffs = np.diff(values)
    monotone = bool(np.all(diffs >= 0.0))
    max_increment = float(np.max(diffs))
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
    worst = 0.0
    for mu in (0.0, 2.0, 4.0):
        result = optimize.estimate_norm(generator("u"), mu, config)
        worst = max(worst, abs(result.value - 1.0))
    ok = worst <= 1e-6
    _report(5, "unit_generator_norm", ok, "deviation=%.3e" % worst)


def test_criterion_06_oracle_agreement():
    x = averaging_element()
    worst_oracle = 0.0
    worst_floor = 0.0
    config = optimize.OptimizerConfig(dims=(1, 2), restarts=4, max_steps=150)
    for mu in (0.5, 1.5, 2.5, 3.5):
        oracle = optimize.one_dim_oracle(x, mu)
        worst_oracle = max(worst_oracle, abs(oracle - mu))
        estimate = optimize.estimate_norm(x, mu, config)
        worst_floor = max(worst_floor, oracle - estimate.value)
    ok = worst_oracle <= 2e-2 and worst_floor <= 1e-9
    _report(
        6,
        "oracle_agreement",
        ok,
        "oracle=%.3e floor=%.3e" % (worst_oracle, max(0.0, worst_floor)),
    )


def test_criterion_07_sine_identity():
    worst = 0.0
    t_grid = np.linspace(0.0, math.pi / 2, 33)
    for rep in _twenty_reference_pairs():
        for t in t_grid:
            worst = max(worst, homotopy.sine_law_residual(rep, float(t)))
    ok = worst <= 1e-8
    _report(7, "sine_identity", ok, "residual=%.3e" % worst)


def test_criterion_08_homotopy_endpoints():
    worst = 0.0
    for rep in _twenty_reference_pairs():
        start_u, start_v = homotopy.homotopy_images(rep, 0.0)
        comp_u, comp_v = homotopy.composed_images(rep)
        end_u, end_v = homotopy.homotopy_images(rep, math.pi / 2)
        split_u, split_v = homotopy.split_endpoint_images(rep)
        worst = max(
            worst,
            float(np.max(np.abs(start_u - comp_u))),
            float(np.max(np.abs(start_v - comp_v))),
            float(np.max(np.abs(end_u - split_u))),
            float(np.max(np.abs(end_v - split_v))),
        )
    ok = worst <= 1e-10
    _report(8, "homotopy_endpoints", ok, "residual=%.3e" % worst)


def test_criterion_09_wedge_annihilates_averaging_element():
    mat_u, mat_v = homotopy.wedge_generator_images(4096)
    kill = homotopy.wedge_sum_residual(mat_u, mat_v)
    basepoint = max(
        homotopy.wedge_condition_residual(mat_u),
        homotopy.wedge_condition_residual(mat_v),
    )
    ok = kill <= 1e-12 and basepoint <= 1e-10
    _report(
        9,
        "wedge_annihilates_averaging_element",
        ok,
        "sum=%.3e basepoint=%.3e" % (kill, basepoint),
    )


def test_criterion_10_winding_numbers():
    n = 4096
    points = homotopy.circle_points(n)
    loops = (
        (homotopy.CircleSamples(homotopy.upper_fold(points)), 0),
        (homotopy.CircleSamples(points), 1),
        (homotopy.CircleSamples(points**2), 2),
    )
    worst = 0.0
    ok = True
    for samples, want in loops:
        total = homotopy.winding_total(samples)
        worst = max(worst, abs(total - want))
        ok = ok and homotopy.winding_number(samples) == want
    ok = ok and worst < 1e-3
    _report(10, "winding_numbers", ok, "residual=%.3e" % worst)


def test_criterion_11_character_homotopies():
    worst_unitary = 0.0
    worst_excess = 0.0
    worst_scaling = 0.0
    for rep in _twenty_reference_pairs():
        report = homotopy.character_homotopy_check(rep, grid_size=33)
        for path in report.paths:
            worst_unitary = max(worst_unitary, path.max_unitarity_defect)
            worst_excess = max(worst_excess, path.max_constraint_excess)
            if path.name == "fold_swap":
                worst_scaling = max(worst_scaling, path.scaling_residual)
    ok = worst_unitary <= 1e-9 and worst_excess <= 1e-9 and worst_scaling <= 1e-9
    _report(
        11,
        "character_homotopies",
        ok,
        "unitary=%.3e excess=%.3e scaling=%.3e"
        % (worst_unitary, worst_excess, worst_scaling),
    )


def test_criterion_12_scalar_characters():
    sym_u, sym_v = homotopy._phi_symbolic()
    worst = 0.0
    for sym in (sym_u, sym_v):
        for r in range(2):
            for c in range(2):
                value = homotopy.scalar_character(sym[r][c])
                want = 1j if r == c else 0j
                worst = max(worst, abs(value - want))
    fold_exact = homotopy.upper_fold(1j) == 1j
    ok = worst == 0.0 and fold_exact
    _report(
        12,
        "scalar_characters",
        ok,
        "residual=%.3e fold_fixes_i=%s" % (worst, fold_exact),
    )


def test_criterion_13_kesten_benchmark():
    start = time.perf_counter()
    norms = bundle.ball_norm_table(10)
    elapsed = time.perf_counter() - start
    depth_one = abs(norms[0] - 2.0)
    increasing = bool(np.all(np.diff(norms) > 0))
    below = max(norms) < bundle.KESTEN_NORM
    gap = bundle.KESTEN_NORM - norms[-1]
    ok = (
        depth_one <= 1e-9
        and increasing
        and below
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


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "constrep", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_14_byte_determinism():
    verify_args = ["verify", "--suite", "all", "--seed", "0"]
    first = _run_cli(verify_args)
    second = _run_cli(verify_args)
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
    runs = [_run_cli(curve_args) for _ in range(3)]
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
