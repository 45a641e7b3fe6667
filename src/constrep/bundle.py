"""Finite Cayley-ball benchmarks and export of estimated norm curves.

The ball of radius R in the Cayley graph of the free group on two
generators is a finite piece of the 4-regular tree with 2 * 3**R - 1
vertices. Its adjacency norm increases with R to 2 * sqrt(3), the spectral
radius of the tree (Kesten 1959). The norm comes from an (R+1) x (R+1)
radial Jacobi matrix, whose size grows with R rather than with the vertex
count; the sparse adjacency matrix itself is built only as a small-depth
cross-check. The module also serializes estimated norm curves as CSV and
deterministic SVG plots.
"""

from __future__ import annotations

import math

import numpy as np

KESTEN_NORM = 2.0 * math.sqrt(3.0)
MAX_BALL_DEPTH = 14


def _check_depth(depth):
    depth = int(depth)
    if not 1 <= depth <= MAX_BALL_DEPTH:
        raise ValueError(f"depth must lie in [1, {MAX_BALL_DEPTH}], got {depth}")
    return depth


def ball_vertex_count(depth):
    """Number of vertices in the radius-``depth`` ball: 2 * 3**depth - 1."""
    depth = int(depth)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return 2 * 3**depth - 1


def cayley_ball(depth):
    """Sparse adjacency matrix of the radius-``depth`` ball of the tree.

    Vertices are reduced words of length at most ``depth`` in breadth-first
    order (the identity is vertex 0), and edges join each word to its four
    one-letter extensions, except that boundary words keep only the edge to
    their parent. The graph is a tree: the root has degree 4, interior
    vertices degree 4, boundary vertices degree 1.
    """
    from scipy.sparse import csr_matrix

    depth = _check_depth(depth)

    # Letters are coded 0..3 as u, u^-1, v, v^-1; the inverse of code k is
    # k ^ 1. Levels are generated breadth-first; each vertex stores the code
    # of its last letter so children never undo it.
    total = ball_vertex_count(depth)
    rows = []
    cols = []

    level_codes = np.array([-1], dtype=np.int8)  # root has no last letter
    level_indices = np.array([0], dtype=np.int64)
    next_index = 1
    for _ in range(depth):
        child_codes = []
        child_indices = []
        for parent_pos in range(level_indices.size):
            parent = int(level_indices[parent_pos])
            last = int(level_codes[parent_pos])
            for code in range(4):
                if last >= 0 and code == (last ^ 1):
                    continue
                child = next_index
                next_index += 1
                rows.append(parent)
                cols.append(child)
                rows.append(child)
                cols.append(parent)
                child_codes.append(code)
                child_indices.append(child)
        level_codes = np.array(child_codes, dtype=np.int8)
        level_indices = np.array(child_indices, dtype=np.int64)
    if next_index != total:
        raise AssertionError("vertex count mismatch while building the ball")

    data = np.ones(len(rows), dtype=float)
    return csr_matrix((data, (rows, cols)), shape=(total, total))


def cayley_ball_norm(depth):
    """Operator norm of the radius-``depth`` ball adjacency matrix.

    The ball is connected, so by Perron-Frobenius its top eigenvalue is the
    norm and has a positive eigenvector, unique up to scale. Automorphisms
    fixing the root permute each sphere transitively and fix that vector,
    so it is radial (Kesten 1959). On radial vectors, normalized by the
    square roots of the sphere sizes 1, 4, 12, 36, ..., the adjacency acts
    as the (R+1) x (R+1) Jacobi matrix with zero diagonal and off-diagonal
    sqrt(|S_{k+1}| / |S_k|): 2 from the root, sqrt(3) after. Its top
    eigenvalue is the norm.
    """
    depth = _check_depth(depth)
    off = np.full(depth, math.sqrt(3.0))
    off[0] = 2.0
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(jacobi)[-1])


def ball_norm_table(max_depth):
    """Norms of the balls for depths 1..max_depth, as a list of floats."""
    max_depth = _check_depth(max_depth)
    return [cayley_ball_norm(depth) for depth in range(1, max_depth + 1)]


# --------------------------------------------------------------------------
# Curve export
# --------------------------------------------------------------------------


CSV_HEADER = "mu,estimate,dim,restarts,converged"


def export_csv(curve, path=None):
    """A curve as CSV with a fixed header and %.9g float formatting.

    Returns the payload and writes it to ``path`` when one is given.
    """
    lines = [CSV_HEADER]
    for mu, estimate in zip(curve.grid, curve.estimates):
        lines.append(
            "%.9g,%.9g,%d,%d,%s"
            % (
                float(mu),
                estimate.value,
                estimate.dim_used,
                estimate.restart_index,
                "true" if estimate.converged else "false",
            )
        )
    payload = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(payload)
    return payload


def read_curve_csv(path):
    """Read back a CSV written by :func:`export_csv` as a list of dicts."""
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header; want {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5:
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append(
            {
                "mu": float(parts[0]),
                "estimate": float(parts[1]),
                "dim": int(parts[2]),
                "restarts": int(parts[3]),
                "converged": parts[4] == "true",
            }
        )
    return rows


_SVG_WIDTH = 800
_SVG_HEIGHT = 600
_SVG_MARGIN = 60.0


def _svg_x(mu, lo, hi):
    span = hi - lo if hi > lo else 1.0
    return _SVG_MARGIN + (mu - lo) / span * (_SVG_WIDTH - 2 * _SVG_MARGIN)


def _svg_y(value, top):
    top = top if top > 0 else 1.0
    return _SVG_HEIGHT - _SVG_MARGIN - value / top * (_SVG_HEIGHT - 2 * _SVG_MARGIN)


def render_svg(curve, path=None):
    """Render a curve as a deterministic standalone SVG plot.

    The plot draws the estimates as a single polyline, tick marks at the
    integer constraint levels, a dashed vertical reference at the tree norm
    2 * sqrt(3), and a dotted diagonal marking value equal to constraint
    level. All coordinates are printed with two decimals so the bytes are
    reproducible across runs.
    """
    grid = [float(mu) for mu in curve.grid]
    values = [float(v) for v in curve.values]
    lo, hi = grid[0], grid[-1]
    top = max(4.0, max(values))

    parts = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">'
        % (_SVG_WIDTH, _SVG_HEIGHT)
    )
    parts.append(
        '<rect x="0" y="0" width="%d" height="%d" fill="white"/>'
        % (_SVG_WIDTH, _SVG_HEIGHT)
    )
    # axes
    x0 = _svg_x(lo, lo, hi)
    x1 = _svg_x(hi, lo, hi)
    y0 = _svg_y(0.0, top)
    y1 = _svg_y(top, top)
    parts.append(
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
        % (x0, y0, x1, y0)
    )
    parts.append(
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
        % (x0, y0, x0, y1)
    )
    # integer ticks on the constraint axis
    tick = math.ceil(lo)
    while tick <= hi:
        tx = _svg_x(float(tick), lo, hi)
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
            % (tx, y0, tx, y0 + 6.0)
        )
        parts.append(
            '<text x="%.2f" y="%.2f" font-size="12" text-anchor="middle">%d</text>'
            % (tx, y0 + 20.0, tick)
        )
        tick += 1
    # dashed vertical reference at the tree norm, when it is inside the range
    if lo <= KESTEN_NORM <= hi:
        rx = _svg_x(KESTEN_NORM, lo, hi)
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="gray" '
            'stroke-dasharray="6 4"/>' % (rx, y0, rx, y1)
        )
    # dotted diagonal: value equal to constraint level
    diag_hi = min(hi, top)
    if diag_hi > max(lo, 0.0):
        dx0 = _svg_x(max(lo, 0.0), lo, hi)
        dy0 = _svg_y(max(lo, 0.0), top)
        dx1 = _svg_x(diag_hi, lo, hi)
        dy1 = _svg_y(diag_hi, top)
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="gray" '
            'stroke-dasharray="2 3"/>' % (dx0, dy0, dx1, dy1)
        )
    # the curve itself
    points = " ".join(
        "%.2f,%.2f" % (_svg_x(mu, lo, hi), _svg_y(value, top))
        for mu, value in zip(grid, values)
    )
    parts.append(
        '<polyline fill="none" stroke="blue" stroke-width="2" points="%s"/>' % points
    )
    parts.append("</svg>")
    payload = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(payload)
    return payload


__all__ = [
    "KESTEN_NORM",
    "MAX_BALL_DEPTH",
    "ball_vertex_count",
    "cayley_ball",
    "cayley_ball_norm",
    "ball_norm_table",
    "CSV_HEADER",
    "export_csv",
    "read_curve_csv",
    "render_svg",
]
