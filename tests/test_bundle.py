"""Cayley-ball benchmarks and curve export formats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import constrep

from constrep.bundle import (
    CSV_HEADER,
    KESTEN_NORM,
    ball_norm_table,
    ball_vertex_count,
    cayley_ball,
    cayley_ball_norm,
    continuity_report,
    export_csv,
    read_curve_csv,
    render_svg,
)
from constrep.freegroup import averaging_element, parse_element
from constrep.optimize import OptimizerConfig, norm_curve

TINY = OptimizerConfig(dims=(1,), restarts=2, max_steps=60, seed=0)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_ball_vertex_counts(depth):
    adjacency = cayley_ball(depth)
    want = 2 * 3**depth - 1
    assert ball_vertex_count(depth) == want
    assert adjacency.shape == (want, want)
    # a tree on n vertices has n - 1 edges, stored in both directions
    assert adjacency.nnz == 2 * (want - 1)


def test_ball_degree_profile():
    adjacency = cayley_ball(3)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    boundary = 4 * 3**2  # words of length exactly 3
    assert np.all(degrees[-boundary:] == 1.0)
    assert np.all(degrees[:-boundary] == 4.0)
    assert degrees[0] == 4.0
    # symmetric with zero diagonal
    assert (adjacency != adjacency.T).nnz == 0
    assert adjacency.diagonal().sum() == 0.0


def test_ball_depth_guards():
    with pytest.raises(ValueError):
        cayley_ball(0)
    with pytest.raises(ValueError):
        cayley_ball(15)
    with pytest.raises(ValueError):
        cayley_ball_norm(0)
    with pytest.raises(ValueError):
        cayley_ball_norm(15)
    with pytest.raises(ValueError):
        ball_norm_table(0)


def test_depth_one_ball_is_a_star():
    # hand oracle: the 5-vertex star has operator norm 2
    star = np.zeros((5, 5))
    star[0, 1:] = 1.0
    star[1:, 0] = 1.0
    assert abs(np.linalg.eigvalsh(star)[-1] - 2.0) < 1e-12
    assert abs(cayley_ball_norm(1) - 2.0) < 1e-9


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_ball_norm_matches_dense_eigensolver(depth):
    got = cayley_ball_norm(depth)
    dense = cayley_ball(depth).toarray()
    want = float(np.linalg.eigvalsh(dense)[-1])
    assert abs(got - want) < 1e-12


def test_import_leaves_scipy_submodules_unloaded():
    # scipy.sparse is loaded only when a ball's adjacency matrix is built
    src = str(Path(constrep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, constrep; "
        "print(sorted(m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_ball_norms_increase_toward_tree_norm():
    norms = ball_norm_table(8)
    assert np.all(np.diff(norms) > 0)
    assert max(norms) < KESTEN_NORM
    assert KESTEN_NORM == pytest.approx(2.0 * np.sqrt(3.0))


def test_csv_round_trip(tmp_path):
    x = averaging_element()
    curve = norm_curve(x, [0.0, 1.0, 2.0], TINY)
    path = tmp_path / "curve.csv"
    payload = export_csv(curve, path)
    assert payload.startswith(CSV_HEADER + "\n")
    assert payload == path.read_text(encoding="ascii")

    rows = read_curve_csv(path)
    assert len(rows) == 3
    for row, mu, estimate in zip(rows, curve.grid, curve.estimates):
        assert row["mu"] == float("%.9g" % mu)
        assert row["estimate"] == float("%.9g" % estimate.value)
        assert row["dim"] == estimate.dim_used
        assert row["restarts"] == estimate.restart_index
        assert row["converged"] == estimate.converged

    # a second export is byte-identical
    again = tmp_path / "curve2.csv"
    assert export_csv(curve, again) == payload


def test_read_curve_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu,value\n0,1\n")
    with pytest.raises(ValueError):
        read_curve_csv(path)
    path.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError):
        read_curve_csv(path)


def test_svg_rendering_is_deterministic(tmp_path):
    x = averaging_element()
    curve = norm_curve(x, [0.0, 2.0, 4.0], TINY)
    first = render_svg(curve)
    second = render_svg(curve)
    assert first == second
    assert first.startswith("<svg ")
    assert first.rstrip().endswith("</svg>")
    assert "<polyline" in first
    assert 'stroke-dasharray="6 4"' in first  # tree-norm reference line
    assert 'stroke-dasharray="2 3"' in first  # diagonal guide

    path = tmp_path / "curve.svg"
    payload = render_svg(curve, path)
    assert payload == first
    assert path.read_text(encoding="ascii") == first


def test_continuity_report_on_averaging_curve():
    x = averaging_element()
    curve = norm_curve(x, [0.0, 0.5, 1.0, 1.5, 2.0], TINY)
    report = continuity_report(curve)
    assert report.monotone
    assert report.max_increment <= 0.55
    assert report.max_oracle_shortfall <= 1e-9
    assert report.max_line_deviation <= 5e-2
    assert report.passed(increment_limit=0.55, deviation_limit=5e-2)


def test_continuity_report_other_element_skips_line():
    a = parse_element("u + v")
    curve = norm_curve(a, [1.0, 2.0], TINY)
    report = continuity_report(curve)
    assert report.max_line_deviation == 0.0
    assert report.monotone
