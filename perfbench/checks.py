"""Independent checks behind ``failed_frac`` and ``cert_gap_max``.

Nothing here calls the package's power iteration, its ``evaluate`` or its
oracle: images are multiplied out letter by letter, norms come from LAPACK
(``np.linalg.norm(., 2)``, ``eigvalsh``), the 1-D floor is rescanned on the
same 720-point grid the estimator uses, and tree-ball norms are compared with
the radial Jacobi matrix (zero diagonal, off-diagonals 2, sqrt 3, sqrt 3, ...),
whose top eigenvalue is the ball norm (Kesten 1959). A failed check is
recorded as a message, never raised.
"""

from __future__ import annotations

import math

import numpy as np

UNITARITY_TOL = 1e-8
CONSTRAINT_TOL = 1e-8
VALUE_TOL = 1e-9
CURVE_LINE_TOL = 5e-2
BALL_TOL = 1e-9
ORACLE_GRID = 720
KESTEN_NORM = 2.0 * math.sqrt(3.0)


def _terms(element):
    """(coefficient, letters) pairs read straight from the element's dict."""
    return [(complex(c), word.letters) for word, c in element.terms.items()]


def coefficient_l1(element):
    return float(sum(abs(c) for c, _ in _terms(element)))


def letter_count(element):
    return sum(len(letters) for _, letters in _terms(element))


def image(element, u, v):
    """Matrix of the element under u, v, multiplied out letter by letter."""
    mats = {("u", 1): u, ("u", -1): u.conj().T, ("v", 1): v, ("v", -1): v.conj().T}
    d = u.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for coeff, letters in _terms(element):
        prod = np.eye(d, dtype=complex)
        for letter in letters:
            prod = prod @ mats[letter]
        out += coeff * prod
    return out


def oracle_floor(element, mu):
    """Max of |a| over 1-dim pairs on the grid plus the antidiagonal curve."""
    theta = 2.0 * np.pi * np.arange(ORACLE_GRID) / ORACLE_GRID
    phi = np.pi - theta
    coeffs, pu, qv = [], [], []
    for coeff, letters in _terms(element):
        coeffs.append(coeff)
        pu.append(sum(e for g, e in letters if g == "u"))
        qv.append(sum(e for g, e in letters if g == "v"))
    curve = sum(c * np.exp(1j * (p * theta + q * phi)) for c, p, q in zip(coeffs, pu, qv))
    best = float(np.max(np.abs(curve)))
    cos_t = 2.0 * np.cos(theta)
    feasible = np.abs(cos_t[:, None] + cos_t[None, :]) <= mu
    grid = sum(
        c * np.exp(1j * p * theta)[:, None] * np.exp(1j * q * theta)[None, :]
        for c, p, q in zip(coeffs, pu, qv)
    )
    if feasible.any():
        best = max(best, float(np.max(np.abs(grid)[feasible])))
    return best


def check_estimate(element, mu, value, witness):
    """Return (failures, recomputed norm) for one estimate."""
    u = np.asarray(witness.u, dtype=complex)
    v = np.asarray(witness.v, dtype=complex)
    eye = np.eye(u.shape[0])
    failures = []
    defect = max(np.linalg.norm(m.conj().T @ m - eye) for m in (u, v))
    if not defect <= UNITARITY_TOL:
        failures.append(f"unitarity defect {defect:.3e}")
    x = u + u.conj().T + v + v.conj().T
    constraint = float(np.max(np.abs(np.linalg.eigvalsh((x + x.conj().T) / 2.0))))
    if not constraint <= mu + CONSTRAINT_TOL:
        failures.append(f"constraint {constraint!r} > mu {mu!r}")
    norm = float(np.linalg.norm(image(element, u, v), 2))
    if not value <= norm + VALUE_TOL:
        failures.append(f"value {value!r} above witness norm {norm!r}")
    floor = oracle_floor(element, mu)
    if not value >= floor - VALUE_TOL:
        failures.append(f"value {value!r} below 1-D floor {floor!r}")
    l1 = coefficient_l1(element)
    if not value <= l1 + VALUE_TOL:
        failures.append(f"value {value!r} above coefficient l1 {l1!r}")
    return failures, norm


def check_curve(grid, values):
    """Curve-level failures, one list per grid point."""
    out = []
    for i, (mu, value) in enumerate(zip(grid, values)):
        failures = []
        if i and value < values[i - 1]:
            failures.append(f"curve decreases at mu={mu!r}")
        if not abs(value - mu) <= CURVE_LINE_TOL:
            failures.append(f"|value - mu| = {abs(value - mu):.3e} at mu={mu!r}")
        out.append(failures)
    return out


def jacobi_ball_norm(depth):
    """Top eigenvalue of the radial Jacobi matrix of the radius-depth ball."""
    # Imported here, so that the timed set-up, which loads this module, pays
    # only for the package's own imports.
    from scipy.linalg import eigvalsh_tridiagonal

    off = np.full(depth, math.sqrt(3.0))
    off[0] = 2.0
    return float(eigvalsh_tridiagonal(np.zeros(depth + 1), off)[-1])


def check_balls(depths, norms):
    """Return (failures per ball, recomputed norms) for one ball table."""
    refs = [jacobi_ball_norm(r) for r in depths]
    out = []
    for i, (r, norm, ref) in enumerate(zip(depths, norms, refs)):
        failures = []
        if not abs(norm - ref) <= BALL_TOL:
            failures.append(f"depth {r}: |norm - Jacobi| = {abs(norm - ref):.3e}")
        if i and not norm > norms[i - 1]:
            failures.append(f"depth {r}: norm does not increase")
        if not norm < KESTEN_NORM:
            failures.append(f"depth {r}: norm {norm!r} >= 2*sqrt(3)")
        out.append(failures)
    return out, refs
