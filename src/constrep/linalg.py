"""Dense complex spectral kernel, on LAPACK.

Provides the few linear-algebra primitives everything else is built on:
:func:`unitary_eig` behind :func:`apply_circle_function`, the one functional
calculus (every matrix function is a circle function of a unitary); ``eigh``
behind the ascent's :func:`unitary_exponential`; ``eigvalsh`` for the
constraint value; one SVD for the operator norm and the top singular triple,
so no result depends on an iteration cap and a witness's recomputed norm is
the float its triple reported; and Haar-random unitaries. A 1 x 1 matrix,
the image of a character, is scored and checked in scalar arithmetic
instead: its norm is ``abs`` of its entry, which an SVD can read ulps too
high, and the entry itself comes from the scalar rule of
:mod:`constrep.representation`, with no matrix product. The matrix
functions are internal plumbing: they check nothing and take square complex
arrays that the package built, or checked with :func:`unitarity_defect`
where they entered, or a stack (..., d, d) of them, such as both images of
a pair, with the bits of one call per matrix.

A unitary matrix is diagonalized through the commuting Hermitian pair
H = (W + W*)/2 and S = (W - W*)/(2i): eigenvectors of H are refined inside
eigenvalue clusters (gap tolerance ``CLUSTER_TOL``) by diagonalizing the
compression of S, which separates conjugate eigenvalue pairs that share a
real part. Eigenvalues are read off as the diagonal of Q*WQ and renormalized
to the unit circle.
"""

from __future__ import annotations

import numpy as np

UNITARY_TOL = 1e-8
CLUSTER_TOL = 1e-8
# Largest Haar draw, so the largest start: at d = 128 a start on a long-word
# element peaks near 0.1 GB, and d = 256 would take 4x that (README, Limits).
MAX_DIM = 128


class NonUnitaryError(ValueError):
    """Input matrix is not unitary within tolerance."""


def unitarity_defect(w):
    """Frobenius norm of W*W - I; |conj(z) z - 1| for a 1 x 1 matrix W = (z)."""
    w = np.asarray(w, dtype=complex)
    if w.shape == (1, 1):
        z = complex(w[0, 0])
        return abs(z.conjugate() * z - 1.0)
    eye = np.eye(w.shape[0])
    return float(np.linalg.norm(w.conj().T @ w - eye))


def _rebuild(vectors, values):
    """Q diag(values) Q*, for a matrix Q or each matrix of a stack."""
    return (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def unitary_eig(w):
    """(eigenvalues, vectors) of a unitary matrix, or of each matrix of a
    stack, that the package built or validated.

    Eigenvalues are renormalized to unit modulus and ordered by increasing
    real part, with clusters of equal real part split by increasing
    imaginary part.
    """
    w_star = w.conj().swapaxes(-1, -2)
    h = (w + w_star) / 2.0
    s = (w - w_star) / 2.0j
    real_parts, q = np.linalg.eigh(h)

    # Refine eigenvectors inside clusters of (numerically) equal real part:
    # within a cluster the compression of S is Hermitian and separates the
    # eigenvalues that H cannot.
    n = w.shape[-1]
    for i in np.ndindex(w.shape[:-2]):
        start = 0
        for stop in range(1, n + 1):
            if stop < n and real_parts[i][stop] - real_parts[i][stop - 1] < CLUSTER_TOL:
                continue
            if stop - start > 1:
                block = q[i][:, start:stop]
                compressed = block.conj().T @ s[i] @ block
                compressed = (compressed + compressed.conj().T) / 2.0
                _, rot = np.linalg.eigh(compressed)
                q[i][:, start:stop] = block @ rot
            start = stop

    eigenvalues = np.diagonal(q.conj().swapaxes(-1, -2) @ w @ q, axis1=-2, axis2=-1)
    return eigenvalues / np.abs(eigenvalues), q


def apply_circle_function(w, fn):
    """Functional calculus g(W) for a circle function and a checked unitary
    W, or each W of a stack.

    ``fn`` is called once, on the complex array of eigenvalues, and returns
    g elementwise. If |g| = 1 on the spectrum the result is unitary up to
    rounding, and it always commutes with W up to the decomposition residual.
    """
    eigenvalues, vectors = unitary_eig(w)
    return _rebuild(vectors, np.asarray(fn(eigenvalues), dtype=complex))


def unitary_exponential(eigh, scale=1.0):
    """exp(i * scale * H) from ``eigh = np.linalg.eigh(H)``, for a Hermitian
    H or a stack of them; the result is unitary up to rounding. Taking the
    decomposition rather than H lets a caller that exponentiates one H at
    several scales decompose it once.
    """
    eigenvalues, vectors = eigh
    return _rebuild(vectors, np.exp(1j * scale * eigenvalues))


def top_singular_triple(a):
    """Largest singular value of a built square matrix A, with its singular vectors.

    One LAPACK SVD. Returns ``(sigma, left, right, converged)`` with
    ``left^* A right = sigma``, so the triple certifies its own value;
    ``converged`` is always True and is kept for callers that read it. A
    1 x 1 A = (z) takes no SVD: sigma is |z| exactly as ``abs`` rounds it,
    the left vector the phase z/|z| (1 where z = 0) and the right vector 1.
    """
    if a.shape == (1, 1):
        z = complex(a[0, 0])
        sigma = abs(z)
        phase = z / sigma if sigma else 1.0
        return sigma, np.array([phase], dtype=complex), np.ones(1, dtype=complex), True
    left, s, right_h = np.linalg.svd(a)
    return float(s[0]), left[:, 0], right_h[0].conj(), True


def operator_norm(a):
    """Operator (spectral) norm of a built square matrix: the sigma of
    :func:`top_singular_triple`, from the same SVD (at d = 1, |a_11|), so a
    witness's recomputed norm is the float its ascent reported."""
    return top_singular_triple(a)[0]


def haar_unitary(dim, rng):
    """Haar-distributed unitary drawn from an existing Generator."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dimension must lie in [1, {MAX_DIM}], got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)  # nonzero: a Gaussian draw is full rank
    phases = diag / np.abs(diag)
    # Fixing the triangular factor's diagonal to be real-positive makes the
    # distribution exactly Haar rather than QR-convention dependent.
    return q * phases


def random_unitary(dim, seed):
    """Deterministic Haar-random unitary for a given integer seed."""
    return haar_unitary(dim, np.random.default_rng(seed))
