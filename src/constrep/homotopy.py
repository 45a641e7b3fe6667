"""Sampled circle loops, the wedge of two circles, and homotopy identities.

This module carries the machinery for the identity chain that connects the
block-doubled embedding of a constrained pair with scalar characters:

* uniformly sampled loops on the unit circle with a numerical winding number;
* the wedge algebra of function pairs (f, g) agreeing at the basepoint 1,
  with a small symbolic tag set so substitution of unitaries is exact;
* the doubled generator images whose generator-sum vanishes identically;
* a one-parameter rotation between the composed images and a direct sum of
  the identity pair with three one-dimensional-style characters, along which
  the constraint functional scales exactly like sin t;
* straight-line homotopies from those characters to the scalar character
  sending both generators to i.

It holds constructions and closed forms only; :mod:`constrep.verify`
measures every identity among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freegroup import GroupRingElement
from .linalg import apply_circle_function, apply_hermitian_function

MIN_SAMPLES = 8
_BASEPOINT_TOL = 1e-10
_WINDING_RESIDUAL_LIMIT = 0.01


def circle_points(n):
    """n equally spaced points on the unit circle starting at 1."""
    n = int(n)
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    return np.exp(2j * np.pi * np.arange(n) / n)


def upper_fold(z):
    """The circle self-map z -> -Re z + i |Im z|.

    Maps the unit circle onto its closed upper half while negating the real
    part; fixes i, swaps 1 and -1, and has winding number zero. Works on
    scalars and arrays.
    """
    arr = np.asarray(z)
    out = -arr.real + 1j * np.abs(arr.imag)
    if np.isscalar(z) or arr.ndim == 0:
        return complex(out)
    return out


def upper_fold_matrix(w):
    """Functional calculus of :func:`upper_fold` on a unitary matrix."""
    return apply_circle_function(w, upper_fold)


@dataclass(frozen=True, eq=False)
class CircleSamples:
    """Values of a loop at the standard sample points."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.size < MIN_SAMPLES:
            raise ValueError(f"samples must be a vector of length >= {MIN_SAMPLES}")
        object.__setattr__(self, "values", values)

    @property
    def n(self):
        return self.values.size


def winding_total(samples):
    """Sum of principal-branch argument increments around the loop, over 2 pi.

    Raises when a sample vanishes (argument undefined) or when a consecutive
    gap reaches pi (the loop is undersampled and the branch is ambiguous).
    """
    values = samples.values
    magnitudes = np.abs(values)
    if np.any(magnitudes == 0.0):
        raise ValueError("loop passes through zero; winding number undefined")
    ratios = np.roll(values, -1) / values
    increments = np.angle(ratios)
    if np.max(np.abs(increments)) >= np.pi * (1.0 - 1e-12):
        raise ValueError("loop is undersampled: consecutive argument gap reaches pi")
    return float(np.sum(increments) / (2.0 * np.pi))


def winding_number(samples):
    """Integer winding number of a sampled loop around the origin."""
    total = winding_total(samples)
    nearest = round(total)
    residual = abs(total - nearest)
    if residual >= _WINDING_RESIDUAL_LIMIT:
        raise ValueError(
            f"winding total {total} is not close to an integer (residual {residual:.3e})"
        )
    return int(nearest)


# --------------------------------------------------------------------------
# The wedge of two circles: pairs (f, g) with f(1) = g(1)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CircleGen:
    """Symbolic coordinate loop: which=1 is (z, 1), which=2 is (1, z)."""

    which: int

    def __post_init__(self):
        if self.which not in (1, 2):
            raise ValueError("which must be 1 or 2")


@dataclass(frozen=True)
class ScalarConst:
    """Symbolic constant pair (c, c)."""

    value: complex


@dataclass(frozen=True)
class Folded:
    """Symbolic application of :func:`upper_fold` to another expression."""

    arg: object


def sample_expr(expr, n):
    """Sample a symbolic wedge expression; returns the two component arrays."""
    points = circle_points(n)
    ones = np.ones(int(n), dtype=complex)
    if isinstance(expr, CircleGen):
        return (points.copy(), ones) if expr.which == 1 else (ones, points.copy())
    if isinstance(expr, ScalarConst):
        c = complex(expr.value)
        return np.full(int(n), c), np.full(int(n), c)
    if isinstance(expr, Folded):
        first, second = sample_expr(expr.arg, n)
        return upper_fold(first), upper_fold(second)
    raise ValueError(f"expression outside the supported symbolic fragment: {expr!r}")


def scalar_character(expr):
    """Evaluate the character sending both circle coordinates to i."""
    if isinstance(expr, CircleGen):
        return 1j
    if isinstance(expr, ScalarConst):
        return complex(expr.value)
    if isinstance(expr, Folded):
        return upper_fold(scalar_character(expr.arg))
    raise ValueError(f"expression outside the supported symbolic fragment: {expr!r}")


def substitute_expr(expr, rep):
    """Substitute the circle coordinates by the pair's unitaries (exactly).

    The first coordinate becomes diag(U, I), the second diag(I, V); constants
    become scalar matrices and folds act by functional calculus.
    """
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    if isinstance(expr, CircleGen):
        if expr.which == 1:
            return _block_diag(rep.u, eye)
        return _block_diag(eye, rep.v)
    if isinstance(expr, ScalarConst):
        return complex(expr.value) * np.eye(2 * d, dtype=complex)
    if isinstance(expr, Folded):
        return upper_fold_matrix(substitute_expr(expr.arg, rep))
    raise ValueError(f"expression outside the supported symbolic fragment: {expr!r}")


@dataclass(frozen=True, eq=False)
class WedgePair:
    """A wedge-algebra element: two loops sharing their basepoint value."""

    first: CircleSamples
    second: CircleSamples
    expr: object = None

    def __post_init__(self):
        if self.first.n != self.second.n:
            raise ValueError("component sample counts differ")
        gap = abs(self.first.values[0] - self.second.values[0])
        if gap > _BASEPOINT_TOL:
            raise ValueError(f"basepoint values disagree by {gap:.3e}")

    @classmethod
    def from_expr(cls, expr, n):
        first, second = sample_expr(expr, n)
        return cls(CircleSamples(first), CircleSamples(second), expr)


@dataclass(frozen=True, eq=False)
class WedgeMatrix:
    """A 2x2 matrix over the wedge algebra."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) != 2 or any(len(row) != 2 for row in self.entries):
            raise ValueError("entries must form a 2x2 grid")
        n = self.entries[0][0].first.n
        for row in self.entries:
            for pair in row:
                if pair.first.n != n:
                    raise ValueError("all entries must share the sample count")
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))

    @property
    def n(self):
        return self.entries[0][0].first.n

    def entry(self, row, col):
        return self.entries[row][col]

    def component_arrays(self, which):
        """2x2 nested list of the sampled first (which=0) or second component."""
        return [
            [
                (pair.first if which == 0 else pair.second).values
                for pair in row
            ]
            for row in self.entries
        ]


def _phi_symbolic():
    """Symbolic doubled images of the two generators."""
    image_u = (
        (CircleGen(1), ScalarConst(0)),
        (ScalarConst(0), Folded(CircleGen(2))),
    )
    image_v = (
        (Folded(CircleGen(1)), ScalarConst(0)),
        (ScalarConst(0), CircleGen(2)),
    )
    return image_u, image_v


def wedge_generator_images(n):
    """Sampled wedge matrices assigned to the generators.

    The diagonal construction is arranged so the generator-plus-adjoint sums
    of the two images cancel entrywise: substituting them into the averaging
    element gives exactly zero.
    """
    sym_u, sym_v = _phi_symbolic()
    mat_u = WedgeMatrix(
        tuple(tuple(WedgePair.from_expr(expr, n) for expr in row) for row in sym_u)
    )
    mat_v = WedgeMatrix(
        tuple(tuple(WedgePair.from_expr(expr, n) for expr in row) for row in sym_v)
    )
    return mat_u, mat_v


def wedge_substitution(matrix, rep):
    """Substitute a symbolic wedge matrix into a pair; returns a 4d x 4d matrix.

    Every entry must carry a symbolic tag (as produced by
    :func:`wedge_generator_images`); purely sampled entries cannot be
    substituted exactly and are rejected.
    """
    blocks = []
    for row in matrix.entries:
        block_row = []
        for pair in row:
            if pair.expr is None:
                raise ValueError("entry has no symbolic form; cannot substitute")
            block_row.append(substitute_expr(pair.expr, rep))
        blocks.append(block_row)
    top = np.hstack(blocks[0])
    bottom = np.hstack(blocks[1])
    return np.vstack([top, bottom])


def character_at_i(element):
    """Evaluate the scalar character sending both generators to i (exactly)."""
    if not isinstance(element, GroupRingElement):
        raise TypeError("expected a GroupRingElement")
    powers = (1 + 0j, 1j, -1 + 0j, -1j)
    total = 0j
    for word, coeff in element.terms.items():
        p, q = word.generator_sums()
        total += coeff * powers[(p + q) % 4]
    return total


# --------------------------------------------------------------------------
# The rotation homotopy between the composed images and split characters
# --------------------------------------------------------------------------


def generator_sum(u, v):
    """U + U* + V + V*, the image of the averaging element under (U, V)."""
    return u + u.conj().T + v + v.conj().T


def _block_diag(*mats):
    size = sum(m.shape[0] for m in mats)
    out = np.zeros((size, size), dtype=complex)
    at = 0
    for m in mats:
        k = m.shape[0]
        out[at : at + k, at : at + k] = m
        at += k
    return out


def composed_images(rep):
    """The substituted doubled images: a pair of 4d x 4d unitaries."""

    def build(sym):
        blocks = [[substitute_expr(expr, rep) for expr in row] for row in sym]
        return np.vstack([np.hstack(blocks[0]), np.hstack(blocks[1])])

    sym_u, sym_v = _phi_symbolic()
    return build(sym_u), build(sym_v)


def split_endpoint_images(rep):
    """Direct sum of the identity pair with the three residual characters.

    Block order: the pair itself; the character (1, -1); the character
    (-1, 1); and the folded swap (fold(V), fold(U)).
    """
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    image_u = _block_diag(rep.u, eye, -eye, upper_fold_matrix(rep.v))
    image_v = _block_diag(rep.v, -eye, eye, upper_fold_matrix(rep.u))
    return image_u, image_v


def _corner_rotation(t, d):
    """Real rotation by t acting in the first and fourth d-blocks."""
    r = np.eye(4 * d, dtype=complex)
    c = math.cos(t)
    s = math.sin(t)
    eye = np.eye(d)
    r[0:d, 0:d] = c * eye
    r[0:d, 3 * d : 4 * d] = s * eye
    r[3 * d : 4 * d, 0:d] = -s * eye
    r[3 * d : 4 * d, 3 * d : 4 * d] = c * eye
    return r


def homotopy_images(rep, t):
    """Images of the generators along the rotation path, t in [0, pi/2].

    At t = 0 this agrees with :func:`composed_images`; at t = pi/2 it agrees
    with :func:`split_endpoint_images` up to reordering absorbed by the
    rotation. The image of u is constant; the image of v is conjugated by a
    rotation in block coordinates 1 and 4.
    """
    t = float(t)
    if not (0.0 <= t <= math.pi / 2 + 1e-12):
        raise ValueError(f"homotopy parameter must lie in [0, pi/2], got {t}")
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    image_u = _block_diag(rep.u, eye, -eye, upper_fold_matrix(rep.v))
    core_v = _block_diag(upper_fold_matrix(rep.u), -eye, eye, rep.v)
    rot = _corner_rotation(t, d)
    image_v = rot @ core_v @ rot.T
    return image_u, image_v


def interpolant_sum_blocks(rep, t):
    """Closed form of the generator sum of :func:`homotopy_images` at t.

    With x the generator-plus-adjoint sum of the pair, s = sin t, c = cos t,
    the sum is the 4x4 block matrix [[s^2 x, 0, 0, cs x], [0,0,0,0],
    [0,0,0,0], [cs x, 0, 0, -s^2 x]], whose norm is sin t times the norm
    of x because [[s, c], [c, -s]] is a reflection.
    """
    d = rep.dim
    x = generator_sum(rep.u, rep.v)
    s = math.sin(float(t))
    c = math.cos(float(t))
    out = np.zeros((4 * d, 4 * d), dtype=complex)
    out[0:d, 0:d] = s * s * x
    out[0:d, 3 * d : 4 * d] = c * s * x
    out[3 * d : 4 * d, 0:d] = c * s * x
    out[3 * d : 4 * d, 3 * d : 4 * d] = -s * s * x
    return out


# --------------------------------------------------------------------------
# Homotopies from the residual characters to the scalar character at i
# --------------------------------------------------------------------------

CHARACTER_PATHS = ("plus_minus", "minus_plus", "fold_swap")


def character_path(rep, which, t):
    """Images (u_t, v_t) along one of the three character homotopies.

    ``plus_minus`` joins (1, -1) to (i, i) and ``minus_plus`` joins (-1, 1)
    to (i, i), both scalar paths over t in [0, pi/2] with identically zero
    constraint. ``fold_swap`` joins (i, i) at t = 0 to
    (fold(V), fold(U)) at t = 1; along it the constraint value is exactly
    t times the constraint of the original pair.
    """
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    t = float(t)
    if which == "plus_minus":
        if not (0.0 <= t <= math.pi / 2 + 1e-12):
            raise ValueError("parameter must lie in [0, pi/2]")
        return (
            complex(math.cos(t), math.sin(t)) * eye,
            complex(-math.cos(t), math.sin(t)) * eye,
        )
    if which == "minus_plus":
        if not (0.0 <= t <= math.pi / 2 + 1e-12):
            raise ValueError("parameter must lie in [0, pi/2]")
        return (
            complex(-math.cos(t), math.sin(t)) * eye,
            complex(math.cos(t), math.sin(t)) * eye,
        )
    if which == "fold_swap":
        if not (0.0 <= t <= 1.0):
            raise ValueError("parameter must lie in [0, 1]")
        if t == 0.0:
            return 1j * eye, 1j * eye
        k_u = (rep.v + rep.v.conj().T) / 2.0
        k_v = (rep.u + rep.u.conj().T) / 2.0

        def fn(x):
            return -t * x + 1j * np.sqrt(np.maximum(0.0, 1.0 - t * t * x * x))

        return (
            apply_hermitian_function(k_u, fn),
            apply_hermitian_function(k_v, fn),
        )
    raise ValueError(f"unknown path {which!r}; expected one of {CHARACTER_PATHS}")
