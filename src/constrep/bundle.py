"""Finite Cayley-ball benchmarks and export of estimated norm curves.

The ball of radius R in the Cayley graph of the free group on two
generators is a finite piece of the 4-regular tree with 2 * 3**R - 1
vertices. Its adjacency norm increases with R to 2 sqrt(3), the spectral
radius of the tree (Kesten 1959). By Perron-Frobenius the norm has a
positive eigenvector, which the root's stabilizer fixes, so it is radial:
on radial vectors normalized by the sphere sizes 1, 4, 12, 36, ..., the
adjacency is the (R+1) x (R+1) Jacobi matrix J with zero diagonal and
off-diagonal (2, sqrt 3, ..., sqrt 3), and the norm is its top eigenvalue.

With lambda = 2 sqrt(3) cos(theta), the vector p_k = sin((R + 1 - k) theta),
k = 1..R, satisfies rows 2..R of J p = lambda p, by
sin(a + theta) + sin(a - theta) = 2 sin(a) cos(theta) and p_{R+1} = 0.
Row 1 then fixes p_0 = (sqrt(3) / 2) sin((R + 1) theta), and row 0,
2 p_1 = lambda p_0, leaves the secular equation

    3 cos(theta) sin((R + 1) theta) = 2 sin(R theta).

Its left side minus its right is (R + 3) theta > 0 near 0 and negative at
pi / (R + 1). By interlacing with rows 1..R of J, whose top eigenvalue is
2 sqrt(3) cos(pi / (R + 1)), the one root between is the top eigenvalue's,
so a norm costs one scalar root at any R.

The cap MAX_BALL_DEPTH = 10**5 keeps tables strictly increasing: norms
differ by about 2 sqrt(3) pi^2 / R^3, 77 ulps at 10**5, and from about
R = 3.55 * 10**5 on neighbours can round to the same double.

The module also serializes estimated norm curves as CSV and deterministic
SVG plots.
"""

from __future__ import annotations

import math

KESTEN_NORM = 2.0 * math.sqrt(3.0)
MAX_BALL_DEPTH = 10**5
# Newton stops at a step under a few ulps of theta, within 5 steps up to the
# cap; 64 steps would let bisection alone reach an ulp of the root.
_SECULAR_STEPS = 64
_THETA_TOL = 2.0**-50


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


def cayley_ball_norm(depth):
    """Operator norm of the radius-``depth`` ball adjacency matrix.

    2 sqrt(3) cos(theta) at the root of the secular equation (see the module
    docstring), written f = (3 c^2 - 2) sin(R theta) + 3 s c cos(R theta)
    with s, c = sin(theta), cos(theta), by Newton's method kept inside the
    bracket by bisection. The start is one fixed-point step from pi / (R + 3)
    of (R + 1) theta = pi - 2 theta + 2 theta^3 + O(theta^5), true near the root.
    """
    depth = _check_depth(depth)
    lo, hi = 0.0, math.pi / (depth + 1)
    theta = math.pi / (depth + 3)
    theta = (math.pi + 2.0 * theta**3) / (depth + 3)
    for _ in range(_SECULAR_STEPS):
        s, c = math.sin(theta), math.cos(theta)
        sr, cr = math.sin(depth * theta), math.cos(depth * theta)
        g, h = 3.0 * c * c - 2.0, 3.0 * s * c
        f = g * sr + h * cr
        if f > 0.0:
            lo = theta
        else:
            hi = theta
        step = f / (depth * (g * cr - h * sr) - 2.0 * h * sr + 3.0 * (c * c - s * s) * cr)
        theta -= step
        if abs(step) <= _THETA_TOL * theta:
            break
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    # sqrt(12 c^2) rounds no irrational constant; depth 1 gives exactly 2.
    c = math.cos(theta)
    return math.sqrt(12.0 * (c * c))


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
