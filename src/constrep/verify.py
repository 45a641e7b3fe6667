"""Residual functions for the library's exact identities, and the suites on them.

Each fact has one residual function. It takes its sample as arguments and
returns its worst residuals, so each caller keeps its own seeds, sizes and
tolerances. The suites behind ``constrep verify`` call these functions at
desk scale (seconds, not minutes); the acceptance criteria in
``tests/test_acceptance.py`` call the same functions at their stated scale.
Function, the checks it serves, and the criteria:

* :func:`deformation_residuals`: ``deformation_*``; 1.
* :func:`retraction_residuals`: ``retraction_*``; 2.
* :func:`zero_constructor_residuals`: ``zero_constructor``; 3.
* :func:`averaging_curve_residuals`: ``averaging_curve_*``; 4.
* :func:`unit_generator_residual`: ``unit_generator_norm``; 5.
* :func:`oracle_line_residual`: ``oracle_on_averaging_element``; 6.
* :func:`oracle_floor_residual`: ``estimate_dominates_oracle``; 6.
* :func:`rotation_residuals`: ``rotation_sine_scaling``,
  ``rotation_block_structure``; 7.
* :func:`rotation_endpoint_residuals`: ``rotation_start_matches_composition``,
  ``rotation_end_matches_split``; 8.
* :func:`wedge_residuals`: ``wedge_*``; 9.
* :func:`winding_residuals`: ``winding_*``; 10.
* :func:`character_path_residuals`: ``character_paths``; 11.
* :func:`scalar_character_residuals`: ``scalar_characters``; 12.
* :func:`kesten_residuals`: ``ball_*``; 13.

``estimate_determinism`` and ``character_kills_averaging_element`` serve
no criterion and are computed in their suites. Output formatting is fixed
so repeated runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bundle, homotopy, optimize, representation
from .freegroup import GroupRingElement, averaging_element, generator, parse_element
from .homotopy import generator_sum
from .linalg import operator_norm, random_unitary, unitarity_defect


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    residual: float
    tol: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return "CHECK %s %s residual=%.6e tol=%g" % (
            self.name,
            status,
            self.residual,
            self.tol,
        )


def _check(name, residual, tol):
    residual = float(residual)
    return CheckResult(name=name, passed=residual <= tol, residual=residual, tol=tol)


def _max_entry(mat):
    return float(np.max(np.abs(mat)))


# --------------------------------------------------------------------------
# residual functions, one per fact
# --------------------------------------------------------------------------


def deformation_residuals(pairs, t_grid):
    """Worst (sum identity, constraint scaling, unitarity, commutation) of deform.

    Over every pair and t, deform(pair, t) is compared with the pair: its
    generator sum with (1 - t) times the pair's, entrywise; its constraint
    value with (1 - t) times the pair's; and its images with the pair's, by
    their commutators, entrywise. Unitarity is the images' defect.
    """
    identity = scaling = unitarity = commutation = 0.0
    for rep in pairs:
        base_sum = generator_sum(rep.u, rep.v)
        base = representation.constraint_value(rep)
        for t in t_grid:
            t = float(t)
            moved = representation.deform(rep, t)
            gap = generator_sum(moved.u, moved.v) - (1.0 - t) * base_sum
            identity = max(identity, _max_entry(gap))
            scaling = max(
                scaling, abs(representation.constraint_value(moved) - (1.0 - t) * base)
            )
            unitarity = max(
                unitarity, unitarity_defect(moved.u), unitarity_defect(moved.v)
            )
            commutation = max(
                commutation,
                _max_entry(moved.u @ rep.u - rep.u @ moved.u),
                _max_entry(moved.v @ rep.v - rep.v @ moved.v),
            )
    return identity, scaling, unitarity, commutation


def retraction_residuals(pairs, mu):
    """Worst (level miss, zero relation, feasible pairs moved) of retract_to(., mu).

    A pair above mu must land on it; at mu = 0 its generator sum must also
    vanish entrywise. A pair at or below mu must come back as the same object.
    """
    target = zero_relation = 0.0
    moved = 0
    for rep in pairs:
        pulled = representation.retract_to(rep, mu)
        if representation.constraint_value(rep) <= mu:
            moved += pulled is not rep
            continue
        target = max(target, abs(representation.constraint_value(pulled) - mu))
        if mu == 0.0:
            total = generator_sum(pulled.u, pulled.v)
            zero_relation = max(zero_relation, _max_entry(total))
    return target, zero_relation, moved


def zero_constructor_residuals(unitaries):
    """Worst (unitarity of V, norm of U + U* + V + V*) of zero_constrained_from."""
    unitarity = relation = 0.0
    for u in unitaries:
        rep = representation.zero_constrained_from(u)
        unitarity = max(unitarity, unitarity_defect(rep.v))
        relation = max(relation, operator_norm(generator_sum(rep.u, rep.v)))
    return unitarity, relation


def rotation_endpoint_residuals(pairs):
    """Worst entrywise gaps (at t = 0 to composed, at pi/2 to split images)."""
    start = end = 0.0
    for rep in pairs:
        path_u, path_v = homotopy.homotopy_images(rep, 0.0)
        want_u, want_v = homotopy.composed_images(rep)
        start = max(start, _max_entry(path_u - want_u), _max_entry(path_v - want_v))
        path_u, path_v = homotopy.homotopy_images(rep, math.pi / 2)
        want_u, want_v = homotopy.split_endpoint_images(rep)
        end = max(end, _max_entry(path_u - want_u), _max_entry(path_v - want_v))
    return start, end


def rotation_residuals(pairs, t_grid):
    """Worst (sine law, generator sum against its block form) along the rotation.

    The sine law compares the norm of the generator sum of the path images
    at t with sin t times the pair's constraint value; the block form is
    :func:`~constrep.homotopy.interpolant_sum_blocks`, compared entrywise.
    """
    sine = blocks = 0.0
    for rep in pairs:
        base = operator_norm(generator_sum(rep.u, rep.v))
        for t in t_grid:
            t = float(t)
            total = generator_sum(*homotopy.homotopy_images(rep, t))
            sine = max(sine, abs(operator_norm(total) - math.sin(t) * base))
            blocks = max(
                blocks, _max_entry(total - homotopy.interpolant_sum_blocks(rep, t))
            )
    return sine, blocks


def character_path_residuals(pairs, grid_size):
    """Worst (unitarity, constraint excess, endpoint, scaling) per character path.

    Returns a dict from each name in ``CHARACTER_PATHS`` to its worst
    residuals over the pairs, each path walked on ``grid_size`` uniform
    parameters: the images' unitarity defect; how far the constraint value
    exceeds the pair's own; the entrywise gap of the first and last images
    to the intended characters; and, along ``fold_swap`` only, the gap
    between the constraint value and t times the pair's.
    """
    worst = dict.fromkeys(homotopy.CHARACTER_PATHS, (0.0, 0.0, 0.0, 0.0))
    for rep in pairs:
        eye = np.eye(rep.dim, dtype=complex)
        base = operator_norm(generator_sum(rep.u, rep.v))
        ends = {
            "plus_minus": ((eye, -eye), (1j * eye, 1j * eye)),
            "minus_plus": ((-eye, eye), (1j * eye, 1j * eye)),
            "fold_swap": (
                (1j * eye, 1j * eye),
                (homotopy.upper_fold_matrix(rep.v), homotopy.upper_fold_matrix(rep.u)),
            ),
        }
        for name in homotopy.CHARACTER_PATHS:
            unitarity, excess, endpoints, scaling = worst[name]
            top = 1.0 if name == "fold_swap" else math.pi / 2
            grid = [float(t) for t in np.linspace(0.0, top, grid_size)]
            images = [homotopy.character_path(rep, name, t) for t in grid]
            for t, (u_t, v_t) in zip(grid, images):
                unitarity = max(
                    unitarity, unitarity_defect(u_t), unitarity_defect(v_t)
                )
                value = operator_norm(generator_sum(u_t, v_t))
                excess = max(excess, value - base)
                if name == "fold_swap":
                    scaling = max(scaling, abs(value - t * base))
            start_and_end = (images[0], images[-1])
            for (u_t, v_t), (want_u, want_v) in zip(start_and_end, ends[name]):
                endpoints = max(
                    endpoints, _max_entry(u_t - want_u), _max_entry(v_t - want_v)
                )
            worst[name] = (unitarity, excess, endpoints, scaling)
    return worst


def wedge_residuals(n):
    """(basepoint mismatch, generator-sum residual) of the n-sample wedge images.

    The mismatch is the largest |f(1) - g(1)| over the sampled wedge pairs
    (f, g) = (h(z, 1), h(1, z)) of the entries of both images; the residual
    is the largest sampled entry of A + A* + B + B*.
    """
    samples = homotopy.wedge_samples(n)
    basepoint = _max_entry(samples[..., 0, 0] - samples[..., 1, 0])
    a, b = samples
    # the adjoint of a 2x2 grid of loops transposes the grid and conjugates
    total = a + a.swapaxes(0, 1).conj() + b + b.swapaxes(0, 1).conj()
    return basepoint, _max_entry(total)


def scalar_character_residuals():
    """Named exact identities of the scalar characters, as residuals.

    Returns a dict from check name to residual: the fold fixes i
    (``fold_fixes_i``), the character at i, h(i, i), sends both doubled
    generator images to i times the 2x2 identity
    (``wedge_character_diagonal``), and scaling the ring unit commutes with
    the character (``unit_embedding_identity``).
    """
    diagonal = max(
        abs(h(1j, 1j) - (1j if r == c else 0j))
        for image in homotopy.WEDGE_IMAGES
        for r, row in enumerate(image)
        for c, h in enumerate(row)
    )
    unit = max(
        abs(homotopy.character_at_i(GroupRingElement.from_scalar(lam)) - lam)
        for lam in (1.0, -2.5, complex(1.0, 2.0), complex(-0.25, -3.5))
    )
    return {
        "fold_fixes_i": abs(homotopy.upper_fold(1j) - 1j),
        "wedge_character_diagonal": diagonal,
        "unit_embedding_identity": unit,
    }


def winding_residuals(n):
    """|winding total - want| of the identity (1), folded (0) and squared (2) loops."""
    points = homotopy.circle_points(n)
    loops = ((points, 1), (homotopy.upper_fold(points), 0), (points**2, 2))
    return tuple(abs(homotopy.winding_total(values) - want) for values, want in loops)


def unit_generator_residual(mus, config):
    """Worst |estimate - 1| for the generator u, whose norm is 1 at every level."""
    u = generator("u")
    return max(abs(optimize.estimate_norm(u, mu, config).value - 1.0) for mu in mus)


def oracle_line_residual(mus):
    """Worst |oracle - mu| for x = u + u^-1 + v + v^-1, whose 1-D norm is mu."""
    x = averaging_element()
    return max(abs(optimize.one_dim_oracle(x, mu) - mu) for mu in mus)


def oracle_floor_residual(element, mus, config):
    """Worst amount by which an estimate falls below the 1-D oracle, or 0."""
    shortfalls = (
        optimize.one_dim_oracle(element, mu)
        - optimize.estimate_norm(element, mu, config).value
        for mu in mus
    )
    return max(0.0, *shortfalls)


def averaging_curve_residuals(curve):
    """(line deviation, largest decrease, largest increase) of a curve of x.

    ``curve`` is a :class:`~constrep.optimize.NormCurve` of
    x = u + u^-1 + v + v^-1, whose norm at level mu is mu. The residuals are
    read from its values alone; the 1-D oracle floor is
    :func:`oracle_floor_residual`'s fact.
    """
    values = np.asarray(curve.values)
    steps = np.diff(values)
    line = float(np.max(np.abs(values - np.asarray(curve.grid))))
    decrease = max(0.0, -float(np.min(steps, initial=0.0)))
    return line, decrease, float(np.max(steps, initial=0.0))


def kesten_residuals(depth):
    """Ball norms for radii 1..depth: (|first - 2|, least increase, excess, gap).

    Excess and gap are the largest norm minus 2 sqrt 3 and 2 sqrt 3 minus
    the last norm.
    """
    norms = bundle.ball_norm_table(depth)
    return (
        abs(norms[0] - 2.0),
        float(np.min(np.diff(norms), initial=np.inf)),
        max(norms) - bundle.KESTEN_NORM,
        bundle.KESTEN_NORM - norms[-1],
    )


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _deformation_suite(seed):
    pairs = [
        representation.random_constrained(dim, 4.0, seed=seed + index)
        for index, dim in enumerate((2, 4, 8) * 4)
    ]
    identity, scaling, unitarity, commutation = deformation_residuals(
        pairs, np.linspace(0.0, 1.0, 21)
    )
    retraction = 0.0
    for mu_index, mu in enumerate((0.0, 1.0, 2.0, 3.0)):
        first = seed + 100 + 10 * mu_index
        pairs = [
            representation.random_constrained(4, 4.0, seed=first + k) for k in range(5)
        ]
        retraction = max(retraction, retraction_residuals(pairs, mu)[0])
    feasible = representation.random_constrained(4, 2.0, seed=seed + 555)
    moved = retraction_residuals([feasible], 4.0)[2]
    unitaries = [random_unitary(2 + i % 7, seed=seed + 700 + i) for i in range(10)]
    zero = max(zero_constructor_residuals(unitaries))
    return [
        _check("deformation_sum_identity", identity, 1e-8),
        _check("deformation_constraint_scaling", scaling, 1e-8),
        _check("deformation_unitarity", unitarity, 1e-9),
        _check("deformation_commutation", commutation, 1e-9),
        _check("retraction_constraint", retraction, 1e-8),
        _check("retraction_fixes_feasible", moved, 0.5),
        _check("zero_constructor", zero, 1e-9),
    ]


def _homotopy_suite(seed):
    basepoint, wedge_sum = wedge_residuals(4096)
    rep = representation.random_constrained(2, 4.0, seed=seed + 11)
    start, end = rotation_endpoint_residuals([rep])
    samples = [
        representation.random_constrained(dim, mu, seed=seed + 20 + index)
        for index, (dim, mu) in enumerate(((2, 1.0), (2, 3.0), (4, 1.0), (4, 3.0)))
    ]
    sine, blocks = rotation_residuals(samples, np.linspace(0.0, math.pi / 2, 33))
    samples = [
        representation.random_constrained(dim, 3.0, seed=seed + 40 + index)
        for index, dim in enumerate((2, 4))
    ]
    paths = max(map(max, character_path_residuals(samples, 33).values()))
    scalar = max(scalar_character_residuals().values())
    character_x = abs(homotopy.character_at_i(averaging_element()))
    return [
        _check("wedge_basepoint", basepoint, 1e-10),
        _check("wedge_kills_generator_sum", wedge_sum, 1e-12),
        _check("rotation_start_matches_composition", start, 1e-10),
        _check("rotation_end_matches_split", end, 1e-10),
        _check("rotation_sine_scaling", sine, 1e-8),
        _check("rotation_block_structure", blocks, 1e-12),
        _check("character_paths", paths, 1e-9),
        _check("scalar_characters", scalar, 1e-15),
        _check("character_kills_averaging_element", character_x, 1e-15),
    ]


def _winding_suite(seed):
    del seed  # winding checks are deterministic by construction
    identity, folded, squared = winding_residuals(4096)
    return [
        _check("winding_identity_loop", identity, 1e-3),
        _check("winding_folded_loop", folded, 1e-3),
        _check("winding_squared_loop", squared, 1e-3),
    ]


def _norms_suite(seed):
    small = optimize.OptimizerConfig(dims=(1, 2), restarts=4, max_steps=120, seed=seed)
    unit = unit_generator_residual((0.0, 2.0, 4.0), small)
    oracle = oracle_line_residual((0.5, 1.5, 2.5, 3.5))
    mixed = parse_element("2*u - v + u*v")
    floor = oracle_floor_residual(mixed, (1.0, 3.0), small)
    first = optimize.estimate_norm(mixed, 2.0, small)
    second = optimize.estimate_norm(mixed, 2.0, small)
    curve_config = optimize.OptimizerConfig(
        dims=(1, 2, 4), restarts=6, max_steps=300, seed=seed
    )
    curve = optimize.norm_curve(
        averaging_element(), np.arange(0.0, 4.0 + 1e-12, 0.5), curve_config
    )
    line, decrease, _ = averaging_curve_residuals(curve)
    return [
        _check("unit_generator_norm", unit, 1e-6),
        _check("oracle_on_averaging_element", oracle, 2e-2),
        _check("estimate_dominates_oracle", floor, 1e-9),
        _check("estimate_determinism", abs(first.value - second.value), 0.0),
        _check("averaging_curve_line", line, 5e-2),
        _check("averaging_curve_monotone", decrease, 1e-12),
    ]


def _kesten_suite(seed):
    del seed  # the balls are fixed graphs
    depth_one, least_increase, excess, gap = kesten_residuals(10)
    return [
        _check("ball_depth_one", depth_one, 1e-9),
        _check("ball_norms_increasing", max(0.0, -least_increase), 1e-12),
        _check("ball_below_tree_norm", max(0.0, excess), 1e-12),
        _check("ball_approaches_tree_norm", gap, 0.2),
    ]


_SUITES = {
    "deformation": _deformation_suite,
    "homotopy": _homotopy_suite,
    "winding": _winding_suite,
    "norms": _norms_suite,
    "kesten": _kesten_suite,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name, seed=0):
    """Run one suite (or ``all``) and return the list of check results.

    ``seed`` is checked first, by the one rule for seeds, even where no
    suite reads it.
    """
    optimize.check_seed(seed)
    if name == "all":
        return [result for suite in _SUITES.values() for result in suite(seed)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return _SUITES[name](seed)


def format_report(name, results):
    """Render check lines plus a one-line summary, deterministically."""
    lines = [result.line() for result in results]
    passed = sum(1 for result in results if result.passed)
    status = "PASS" if passed == len(results) else "FAIL"
    lines.append("SUITE %s %s (%d/%d checks passed)" % (name, status, passed, len(results)))
    return "\n".join(lines) + "\n"
