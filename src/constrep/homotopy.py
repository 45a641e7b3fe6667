"""Sampled circle loops, the wedge of two circles, and homotopy identities.

This module carries the machinery for the identity chain that connects the
block-doubled embedding of a constrained pair with scalar characters:

* uniformly sampled loops on the unit circle with a numerical winding number;
* the doubled generator images over the wedge of two circles, whose
  generator sum vanishes identically. Each entry is one vectorized function
  h(a, b) of the two circle coordinates (:data:`WEDGE_IMAGES`), read three
  ways: sampled, it is the wedge pair (h(z, 1), h(1, z)) that agrees at the
  basepoint 1; substituted by a pair (U, V), it is diag(h(U, I), h(I, V))
  by functional calculus; and its scalar character at i is h(i, i);
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

import numpy as np

from .freegroup import GroupRingElement
from .linalg import apply_circle_function

MIN_SAMPLES = 8
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
    """Functional calculus of :func:`upper_fold` on a checked unitary matrix."""
    return apply_circle_function(w, upper_fold)


def winding_total(values):
    """Sum of principal-branch argument increments around the loop, over 2 pi.

    ``values`` is the loop sampled at ``circle_points(n)``, a vector of at
    least ``MIN_SAMPLES`` points. Raises when a sample vanishes (argument
    undefined) or when a consecutive gap reaches pi (the loop is
    undersampled and the branch is ambiguous).
    """
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < MIN_SAMPLES:
        raise ValueError(f"samples must be a vector of length >= {MIN_SAMPLES}")
    magnitudes = np.abs(values)
    if np.any(magnitudes == 0.0):
        raise ValueError("loop passes through zero; winding number undefined")
    ratios = np.roll(values, -1) / values
    increments = np.angle(ratios)
    if np.max(np.abs(increments)) >= np.pi * (1.0 - 1e-12):
        raise ValueError("loop is undersampled: consecutive argument gap reaches pi")
    return float(np.sum(increments) / (2.0 * np.pi))


def winding_number(values):
    """Integer winding number of a sampled loop around the origin."""
    total = winding_total(values)
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

# The doubled generator images (image of u, image of v), each a 2x2 grid of
# entries h(a, b), vectorized functions of the two circle coordinates. The
# wedge element of an entry is (f, g) = (h(z, 1), h(1, z)).
WEDGE_IMAGES = (
    (
        (lambda a, b: a, lambda a, b: 0 * a),
        (lambda a, b: 0 * a, lambda a, b: upper_fold(b)),
    ),
    (
        (lambda a, b: upper_fold(a), lambda a, b: 0 * a),
        (lambda a, b: 0 * a, lambda a, b: b),
    ),
)


def _wedge_pair(h):
    """The wedge element (h(z, 1), h(1, z)) of an entry, as array functions."""
    return (
        lambda z: h(z, np.ones_like(z)),
        lambda z: h(np.ones_like(z), z),
    )


def wedge_samples(n):
    """The doubled generator images sampled at ``circle_points(n)``.

    A complex array of shape (2, 2, 2, 2, n), indexed by generator, row,
    column, wedge component and sample point: component 0 holds h(z, 1)
    and component 1 holds h(1, z) for the entry's function h.
    """
    z = circle_points(n)
    return np.array(
        [
            [[[f(z) for f in _wedge_pair(h)] for h in row] for row in image]
            for image in WEDGE_IMAGES
        ]
    )


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
    """The doubled images with the pair substituted: two 4d x 4d unitaries.

    Substitution is the homomorphism (f, g) -> diag(f(U), g(V)) of the
    wedge, applied to every entry by functional calculus.
    """

    def substitute(h):
        f, g = _wedge_pair(h)
        return _block_diag(
            apply_circle_function(rep.u, f), apply_circle_function(rep.v, g)
        )

    return tuple(
        np.block([[substitute(h) for h in row] for row in image])
        for image in WEDGE_IMAGES
    )


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
    (fold(V), fold(U)) at t = 1 through the circle function
    z -> -t Re z + i sqrt(1 - t^2 (Re z)^2) of V and of U; along it the
    constraint value is exactly t times the constraint of the original pair.
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

        def fn(z):
            x = z.real
            return -t * x + 1j * np.sqrt(np.maximum(0.0, 1.0 - t * t * x * x))

        return tuple(apply_circle_function(np.stack((rep.v, rep.u)), fn))
    raise ValueError(f"unknown path {which!r}; expected one of {CHARACTER_PATHS}")
