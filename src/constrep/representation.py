"""Finite-dimensional unitary representation pairs under a norm constraint.

A representation assigns unitaries U, V to the two generators. The constraint
functional is ``||U + U* + V + V*||``; a pair is mu-constrained when that
value is at most mu. The key operation is an exact spectral retraction: the
one-parameter deformation ``deform`` scales the constraint by exactly (1-t),
so ``retract_to`` can land on a target level in one shot.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .freegroup import GroupRingElement
from .linalg import (
    NonUnitaryError,
    UNITARY_TOL,
    apply_circle_function,
    apply_hermitian_function,
    haar_unitary,
    project_to_unitary,
    unitarity_defect,
)

LOAD_UNITARY_TOL = 1e-6
_REPAIR_TOL = 1e-10


def check_mu(mu):
    """Validate a constraint level; returns it as a float in [0, 4]."""
    mu = float(mu)
    if not (0.0 <= mu <= 4.0):
        raise ValueError(f"constraint level must lie in [0, 4], got {mu}")
    return mu


@dataclass(frozen=True, eq=False)
class Representation:
    """A pair of same-dimension unitaries assigned to the generators u, v."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        for name, mat in (("u", u), ("v", v)):
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"image of {name} must be a square matrix")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"image of {name} has non-finite entries")
        if u.shape != v.shape:
            raise ValueError("generator images must have equal dimensions")
        for name, mat in (("u", u), ("v", v)):
            defect = unitarity_defect(mat)
            if defect > UNITARY_TOL:
                raise NonUnitaryError(
                    f"image of {name} is not unitary (defect {defect:.3e})"
                )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def dim(self):
        return self.u.shape[0]

    def distance(self, other):
        """Max Frobenius distance between corresponding generator images."""
        return max(
            float(np.linalg.norm(self.u - other.u)),
            float(np.linalg.norm(self.v - other.v)),
        )


def evaluate(rep, element):
    """Matrix image of a group-ring element under the representation."""
    if not isinstance(element, GroupRingElement):
        raise TypeError("expected a GroupRingElement")
    d = rep.dim
    images = {
        ("u", 1): rep.u,
        ("u", -1): rep.u.conj().T,
        ("v", 1): rep.v,
        ("v", -1): rep.v.conj().T,
    }
    out = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for word, coeff in element.terms.items():
        mat = eye
        for letter in word.letters:
            mat = mat @ images[letter]
        out = out + coeff * mat
    return out


def constraint_value(rep):
    """||U + U* + V + V*||, clamped into [0, 4] (the range for unitary pairs).

    The sum is Hermitian, so its norm is its largest |eigenvalue|.
    """
    x = rep.u + rep.u.conj().T + rep.v + rep.v.conj().T
    eigenvalues = np.linalg.eigvalsh(x)
    value = max(-float(eigenvalues[0]), float(eigenvalues[-1]))
    return min(max(value, 0.0), 4.0)


def is_constrained(rep, mu, tol=1e-8):
    """Whether the pair satisfies the constraint at level mu, within tol."""
    mu = check_mu(mu)
    return constraint_value(rep) <= mu + tol


def deformation_function(t):
    """The circle map applied eigenvalue-wise by :func:`deform`.

    Shrinks the real part by the factor (1-t) while keeping the point on the
    circle; the upper semicircle (Im >= 0, including both real points) maps
    into the upper semicircle and the open lower half into the lower.
    Consequently g(z) + conj(g(conj(z))) = (1-t)(z + conj(z)) pointwise, which
    is what makes the constraint scale exactly.
    """
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"deformation parameter must lie in [0, 1], got {t}")

    def fn(z):
        c = (1.0 - t) * z.real
        c = min(1.0, max(-1.0, c))
        angle = math.acos(c)
        if z.imag >= 0:
            return complex(math.cos(angle), math.sin(angle))
        return complex(math.cos(angle), -math.sin(angle))

    return fn


def deform(rep, t):
    """Apply the spectral deformation to both generator images.

    Scales the constraint value by exactly (1 - t): the deformed image of
    each generator satisfies g(W) + g(W)* = (1-t)(W + W*).
    """
    fn = deformation_function(t)
    new_u = apply_circle_function(rep.u, fn)
    new_v = apply_circle_function(rep.v, fn)
    if unitarity_defect(new_u) > _REPAIR_TOL:
        new_u = project_to_unitary(new_u)
    if unitarity_defect(new_v) > _REPAIR_TOL:
        new_v = project_to_unitary(new_v)
    return Representation(new_u, new_v)


def retract_to(rep, mu):
    """Retract a pair onto constraint level mu.

    Already-feasible pairs are returned unchanged (the same object); an
    infeasible pair with constraint value m is deformed with t = 1 - mu/m,
    which lands the constraint on mu up to the decomposition residual.
    """
    mu = check_mu(mu)
    m = constraint_value(rep)
    if m <= mu:
        return rep
    return deform(rep, 1.0 - mu / m)


def one_dim_rep(theta, phi):
    """The 1-dimensional pair u -> e^(i theta), v -> e^(i phi)."""
    return Representation(
        np.array([[np.exp(1j * float(theta))]]),
        np.array([[np.exp(1j * float(phi))]]),
    )


def random_constrained(dim, mu, seed):
    """Haar-random pair retracted to constraint level mu; deterministic per seed.

    At mu = 4 the constraint is vacuous and the raw Haar pair is returned.
    """
    mu = check_mu(mu)
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    v = haar_unitary(dim, rng)
    return retract_to(Representation(u, v), mu)


def zero_constrained_from(u):
    """Complete a unitary U to a pair with constraint value zero.

    Sets K = -(U + U*)/2 and V = K + i sqrt(I - K^2), so that
    V + V* = 2K = -(U + U*) and the constraint functional vanishes.
    """
    u = np.asarray(u, dtype=complex)
    if unitarity_defect(u) > UNITARY_TOL:
        raise NonUnitaryError("input matrix is not unitary")
    k = -(u + u.conj().T) / 2.0

    def fn(x):
        xc = min(1.0, max(-1.0, x))
        return complex(xc, math.sqrt(max(0.0, 1.0 - xc * xc)))

    v = apply_hermitian_function(k, fn)
    return Representation(u, v)


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
    """Read a pair from a JSON file, validating unitarity at 1e-6."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "dim" not in payload:
        raise ValueError("representation file must be an object with a 'dim' field")
    dim = payload["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    matrices = {}
    for name in ("u", "v"):
        if name not in payload:
            raise ValueError(f"representation file is missing field {name!r}")
        mat = _matrix_from_json(payload[name], dim, name)
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError(f"field {name!r} has non-finite entries")
        defect = unitarity_defect(mat)
        if defect > LOAD_UNITARY_TOL:
            raise ValueError(
                f"field {name!r} is not unitary within {LOAD_UNITARY_TOL:g} "
                f"(defect {defect:.3e})"
            )
        matrices[name] = mat
    return Representation(matrices["u"], matrices["v"])
