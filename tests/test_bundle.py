"""Cayley-ball benchmarks and curve export formats."""

import itertools

import numpy as np
import pytest
from conftest import run_python
from scipy.linalg import eigvalsh_tridiagonal

from constrep import bundle
from constrep.freegroup import averaging_element
from constrep.optimize import OptimizerConfig, norm_curve

TINY = OptimizerConfig(dims=(1,), restarts=2, max_steps=60, seed=0)


def _dense_ball(depth):
    """Ball adjacency in breadth-first order: the root's children are 1..4,
    and vertex p >= 1 has the three children 3p + 2, 3p + 3 and 3p + 4."""
    n = bundle.ball_vertex_count(depth)
    child = np.arange(1, n)
    parent = np.where(child <= 4, 0, (child - 2) // 3)
    adjacency = np.zeros((n, n))
    adjacency[parent, child] = adjacency[child, parent] = 1.0
    return adjacency


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_ball_vertex_counts(depth):
    # Reduced words over u, u^-1, v, v^-1, coded 0..3 so that k ^ 1 undoes k.
    words = [w for n in range(depth + 1) for w in itertools.product(range(4), repeat=n)]
    words = sum(all(a != b ^ 1 for a, b in zip(w, w[1:])) for w in words)
    assert bundle.ball_vertex_count(depth) == words
    assert np.count_nonzero(_dense_ball(depth)) == 2 * (words - 1)  # a tree, edges both ways


def test_ball_degree_profile():
    adjacency = _dense_ball(3)
    boundary = 4 * 3**2  # words of length exactly 3 have degree 1, others 4
    assert np.array_equal(adjacency.sum(axis=1), np.repeat([4.0, 1.0], [53 - boundary, boundary]))
    assert np.array_equal(adjacency, adjacency.T) and not adjacency.diagonal().any()


def test_ball_depth_guards():
    for fn in (bundle.cayley_ball_norm, bundle.ball_norm_table):
        for bad in (0, bundle.MAX_BALL_DEPTH + 1):
            with pytest.raises(ValueError):
                fn(bad)


def test_depth_one_ball_is_a_star():
    # hand oracle: the 5-vertex star has operator norm 2
    assert np.linalg.eigvalsh(_dense_ball(1))[-1] == pytest.approx(2.0, abs=1e-12)
    assert bundle.cayley_ball_norm(1) == 2.0


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_ball_norm_matches_dense_eigensolver(depth):
    want = np.linalg.eigvalsh(_dense_ball(depth))[-1]
    assert abs(bundle.cayley_ball_norm(depth) - want) < 1e-12


def test_ball_norm_matches_the_jacobi_eigenvalue():
    # Only the top eigenvalue (select="i" bisects): all of them take 30x longer.
    for r in range(1, 2001):
        off = np.r_[2.0, np.full(r - 1, np.sqrt(3.0))]
        (want,) = eigvalsh_tridiagonal(np.zeros(r + 1), off, select="i", select_range=(r, r))
        assert abs(bundle.cayley_ball_norm(r) - want) < 1e-14, r


def test_ball_norms_increase_toward_tree_norm():
    norm = bundle.cayley_ball_norm
    for depth in np.unique(np.geomspace(1, bundle.MAX_BALL_DEPTH - 1, 300).astype(int)):
        assert norm(depth) < norm(depth + 1) < bundle.KESTEN_NORM
    assert np.all(np.diff(bundle.ball_norm_table(12)) > 0)
    gap = bundle.KESTEN_NORM - norm(10**4)
    assert gap * 10**8 == pytest.approx(np.sqrt(3.0) * np.pi**2, rel=0.01)  # sqrt(3) pi^2 / R^2


def test_import_leaves_scipy_submodules_unloaded():
    # The package itself imports no scipy, to build a table or to estimate.
    code = (
        "import sys, constrep; constrep.bundle.ball_norm_table(12); "
        "constrep.estimate_norm(constrep.parse_element('u*v - 2*v^3'), 1.5, "
        "constrep.OptimizerConfig(dims=(1, 2), restarts=2, max_steps=20)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_csv_round_trip(tmp_path):
    x = averaging_element()
    curve = norm_curve(x, [0.0, 1.0, 2.0], TINY)
    path = tmp_path / "curve.csv"
    payload = bundle.export_csv(curve, path)
    assert payload.startswith(bundle.CSV_HEADER + "\n")
    assert payload == path.read_text(encoding="ascii")

    rows = [line.split(",") for line in payload.splitlines()[1:]]
    assert len(rows) == 3
    for row, mu, estimate in zip(rows, curve.grid, curve.estimates):
        assert row == [
            "%.9g" % mu,
            "%.9g" % estimate.value,
            str(estimate.dim_used),
            str(estimate.restart_index),
            "true" if estimate.converged else "false",
        ]

    # a second export is byte-identical
    again = tmp_path / "curve2.csv"
    assert bundle.export_csv(curve, again) == payload


def test_svg_rendering_is_deterministic(tmp_path):
    x = averaging_element()
    curve = norm_curve(x, [0.0, 2.0, 4.0], TINY)
    first = bundle.render_svg(curve)
    second = bundle.render_svg(curve)
    assert first == second
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")
    assert "<polyline" in first
    assert 'stroke-dasharray="6 4"' in first  # tree-norm reference line
    assert 'stroke-dasharray="2 3"' in first  # diagonal guide

    path = tmp_path / "curve.svg"
    payload = bundle.render_svg(curve, path)
    assert payload == first
    assert path.read_text(encoding="ascii") == first
