"""Finite-dimensional unitary representation pairs under a norm constraint.

A representation assigns unitaries U, V to the two generators. The constraint
functional is ``||U + U* + V + V*||``; a pair is mu-constrained when that
value is at most mu. The key operation is an exact spectral retraction: the
one-parameter deformation ``deform`` scales the constraint by exactly (1-t),
so ``retract_to`` can land on a target level in one shot.

A 1 x 1 pair is a character u -> z_u, v -> z_v, read in scalar arithmetic:
``evaluate`` applies the scalar rule :func:`_character_waves`, which the
optimizer shares, and ``constraint_value`` reads :func:`character_level`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .freegroup import GroupRingElement
from .homotopy import generator_sum, upper_fold_matrix
from .linalg import (
    NonUnitaryError,
    UNITARY_TOL,
    apply_circle_function,
    haar_unitary,
    unitarity_defect,
)


def check_mu(mu):
    """Validate a constraint level; returns it as a float in [0, 4]."""
    mu = float(mu)
    if not (0.0 <= mu <= 4.0):
        raise ValueError(f"constraint level must lie in [0, 4], got {mu}")
    return mu


def _checked_image(name, mat):
    """A caller's image of ``name`` as a square, finite, unitary complex array."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"image of {name} must be a square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"image of {name} has non-finite entries")
    defect = unitarity_defect(mat)
    if defect > UNITARY_TOL:
        raise NonUnitaryError(f"image of {name} is not unitary (defect {defect:.3e})")
    return mat


@dataclass(frozen=True, eq=False)
class Representation:
    """A pair of same-dimension unitaries assigned to the generators u, v."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _checked_image("u", self.u)
        v = _checked_image("v", self.v)
        if u.shape != v.shape:
            raise ValueError("generator images must have equal dimensions")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def _unchecked(cls, u, v):
        """Pair from complex arrays the caller built unitary; skips validation.

        For the package's own constructions, whose inputs were validated where
        they entered; the public constructor checks.
        """
        rep = object.__new__(cls)
        object.__setattr__(rep, "u", u)
        object.__setattr__(rep, "v", v)
        return rep

    @property
    def dim(self):
        return self.u.shape[0]


# Largest power a table holds. Higher powers are products of its entries, so
# a table is at most 65 d x d matrices however long the syllable, and the
# gradient walks a longer syllable in chunks of this many letters.
_POWER_BLOCK = 64


def _power_table(w, t):
    """(I, W, W^2, ..., W^t) as one (t + 1, d, d) array, filled by doubling."""
    table = np.empty((t + 1, *w.shape), dtype=complex)
    table[0] = np.eye(w.shape[0])
    table[1] = w
    n = 1
    while n < t:
        m = min(n, t - n)
        # W^(n+j) = W^j W^n for j = 1..m, one batched product.
        np.matmul(table[1:m + 1], table[n], out=table[n + 1:n + m + 1])
        n += m
    return table


def power_tables(rep, element):
    """One power table per generator for ``element``: {"u": T_u, "v": T_v}.

    A generator with image W whose largest |power| in the element's
    syllables is K gets T = (I, W, ..., W^t), t = min(K, 64), and t = 1
    when it appears only to the power +-1 or not at all. The images are
    unitary, so an inverse letter reads its generator's table by adjoint:
    W^-k is (W^k)*.
    """
    top = {"u": 1, "v": 1}
    for word in element.terms:
        for gen, power in word.syllables:
            top[gen] = max(top[gen], abs(power))
    return {gen: _power_table(getattr(rep, gen), min(k, _POWER_BLOCK)) for gen, k in top.items()}


def _syllable_image(tables, gen, power):
    """W^power for the image W of ``gen``, read from its table; W^-k is the
    adjoint of W^k."""
    table = tables[gen]
    k, t = abs(power), len(table) - 1
    if k <= t:
        mat = table[k]
    else:
        q, r = divmod(k, t)
        mat = np.linalg.matrix_power(table[t], q)
        if r:
            mat = mat @ table[r]
    return mat if power > 0 else mat.conj().T


def evaluate(rep, element, *, tables=None):
    """Matrix image of a group-ring element under the representation.

    The terms are summed in their canonical order, one matrix product per
    syllable, with powers read from :func:`power_tables` (built here unless
    ``tables`` is given). A word whose syllables all have power +-1 is
    multiplied out letter by letter, left to right, from its first letter's
    image. A 1 x 1 pair, a character, is evaluated by the scalar rule
    :func:`_character_waves` instead, with no tables and no matrix product;
    ``tables`` is not read there.
    """
    if not isinstance(element, GroupRingElement):
        raise TypeError("expected a GroupRingElement")
    d = rep.dim
    if d == 1:
        terms = _character_terms(element)
        waves = _character_waves(terms, complex(rep.u[0, 0]), complex(rep.v[0, 0]))
        return np.array([[sum(waves)]], dtype=complex)
    if tables is None:
        tables = power_tables(rep, element)
    out = np.zeros((d, d), dtype=complex)
    for word, coeff in element.terms.items():
        syllables = word.syllables
        if not syllables:
            mat = np.eye(d, dtype=complex)
        else:
            mat = _syllable_image(tables, *syllables[0])
            for syllable in syllables[1:]:
                mat = mat @ _syllable_image(tables, *syllable)
        out = out + coeff * mat
    return out


def _character_terms(element):
    """(p, q, coeff) per term in canonical term order, (p, q) the word's
    generator sums.

    A character u -> z_u, v -> z_v sends a word to z_u^p z_v^q, so the
    scalar rule, the torus ascent and the oracle scan read an element
    through these triples.
    """
    return tuple((*word.generator_sums(), coeff) for word, coeff in element.terms.items())


def _character_waves(terms, z_u, z_v):
    """The scalar rule: c (z_u^p z_v^q) for each (p, q, c) of ``terms``.

    These are the terms' images under the character u -> z_u, v -> z_v,
    and their sum in canonical term order is the element's image f:
    :func:`evaluate` at d = 1 returns [[f]], and the optimizer's torus ascent
    reads the same sum. A negative power is taken of the conjugate, the
    inverse letter's image, so a word and its inverse have exactly conjugate
    images (u + u^-1 is real to the last bit, as U + U* is). Powers are
    Python's ``**``, two per term whatever the word's length.
    """
    bar_u, bar_v = z_u.conjugate(), z_v.conjugate()
    return [
        c * ((z_u if p > 0 else bar_u) ** abs(p) * (z_v if q > 0 else bar_v) ** abs(q))
        for p, q, c in terms
    ]


def character_level(z_u, z_v):
    """``constraint_value`` of the character u -> z_u, v -> z_v, for complex
    scalars: U + U* + V + V* is the real x below, summed in the order the
    matrix sum adds its entries, so it is what eigvalsh returns for the
    1 x 1 sum."""
    x = ((z_u.real + z_u.real) + z_v.real) + z_v.real
    return min(max(0.0, x, -x), 4.0)


def constraint_value(rep):
    """||U + U* + V + V*||, clamped into [0, 4] (the range for unitary pairs).

    The sum is Hermitian, so its norm is its largest |eigenvalue|, from
    eigvalsh; a 1 x 1 pair, a character, reads its level from
    :func:`character_level` in scalar arithmetic, with the same result.
    """
    if rep.u.shape == (1, 1):
        return character_level(complex(rep.u[0, 0]), complex(rep.v[0, 0]))
    eigenvalues = np.linalg.eigvalsh(generator_sum(rep.u, rep.v))
    # max keeps its first argument on a tie, so a level-zero pair reads +0.0.
    return min(max(0.0, float(eigenvalues[-1]), -float(eigenvalues[0])), 4.0)


def deformation_function(t):
    """The circle map applied eigenvalue-wise by :func:`deform`.

    Shrinks the real part by the factor (1-t) while keeping the point on the
    circle; the upper semicircle (Im >= 0, including both real points) maps
    into the upper semicircle and the open lower half into the lower.
    Consequently g(z) + conj(g(z)) = (1-t)(z + conj(z)) pointwise, which is
    what makes the constraint scale exactly. The map works on scalars and
    arrays. Re g(z) is (1-t) Re z bit for bit, so t = 1 lands exactly on
    +-i, and the imaginary part sqrt((1-c)(1+c)) keeps full relative
    accuracy where 1 - c^2 would cancel near |c| = 1.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"deformation parameter must lie in [0, 1], got {t}")

    def fn(z):
        c = np.clip((1.0 - t) * np.real(z), -1.0, 1.0)
        s = np.sqrt((1.0 - c) * (1.0 + c))
        return c + 1j * np.where(np.imag(z) >= 0, s, -s)

    return fn


def deform(rep, t):
    """Apply the spectral deformation to both generator images, in one call.

    Scales the constraint value by exactly (1 - t): the deformed image of
    each generator satisfies g(W) + g(W)* = (1-t)(W + W*). The images are
    unitary up to the eigendecomposition residual and are not re-checked
    here; :func:`~constrep.optimize.estimate_norm` checks its witness.
    At t = 1 the eigenvalues are +-i, so each image is skew-Hermitian up to
    that residual; it is replaced by its skew-Hermitian part (W - W*)/2,
    which is skew-Hermitian in floating point, so the images' sum with
    their adjoints, and the constraint value, are exactly 0.
    """
    w = apply_circle_function(np.stack((rep.u, rep.v)), deformation_function(t))
    if t == 1.0:
        w = (w - w.conj().swapaxes(-1, -2)) / 2.0
    return Representation._unchecked(*w)


def retract_to(rep, mu):
    """Retract a pair onto constraint level mu.

    Already-feasible pairs are returned unchanged (the same object); an
    infeasible pair with constraint value m is deformed with t = 1 - mu/m,
    which lands the constraint on mu up to the decomposition residual, and
    exactly on 0 when mu = 0.
    """
    mu = check_mu(mu)
    m = constraint_value(rep)
    if m <= mu:
        return rep
    return deform(rep, 1.0 - mu / m)


def random_constrained(dim, mu, seed):
    """Haar-random pair retracted to constraint level mu; deterministic per seed.

    At mu = 4 the constraint is vacuous and the raw Haar pair, unitary by QR, is returned.
    """
    mu = check_mu(mu)
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    v = haar_unitary(dim, rng)
    return retract_to(Representation._unchecked(u, v), mu)


def zero_constrained_from(u):
    """Check a unitary U, as the constructor does, and complete it to a pair
    with constraint value zero.

    Sets V = fold(U) by functional calculus, for the circle map
    fold(z) = -Re z + i |Im z| (:func:`~constrep.homotopy.upper_fold`), so
    that V + V* = -(U + U*) and the constraint functional vanishes.
    """
    u = _checked_image("u", u)
    return Representation._unchecked(u, upper_fold_matrix(u))


# --------------------------------------------------------------------------
# JSON on-disk format: {"dim": d, "u": [[[re, im], ...] ...], "v": ...}
# --------------------------------------------------------------------------


def _matrix_to_json(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_json(data, dim, name):
    try:
        mat = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in data],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"field {name!r} is not a matrix of [re, im] pairs") from exc
    if mat.shape != (dim, dim):
        raise ValueError(f"field {name!r} has shape {mat.shape}, expected ({dim}, {dim})")
    return mat


def save_representation(rep, path):
    """Write a pair to a JSON file."""
    payload = {
        "dim": rep.dim,
        "u": _matrix_to_json(rep.u),
        "v": _matrix_to_json(rep.v),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_representation(path):
    """Read a pair from a JSON file, validated by the constructor at ``UNITARY_TOL``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "dim" not in payload:
        raise ValueError("representation file must be an object with a 'dim' field")
    dim = payload["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    matrices = {}
    for name in ("u", "v"):
        if name not in payload:
            raise ValueError(f"representation file is missing field {name!r}")
        matrices[name] = _matrix_from_json(payload[name], dim, name)
    return Representation(matrices["u"], matrices["v"])
