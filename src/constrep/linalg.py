"""Dense complex spectral kernel, on LAPACK.

Provides the few linear-algebra primitives everything else is built on:
Hermitian and unitary eigendecompositions, functional calculus on the unit
circle and on the real line, the operator norm and the top singular triple
(both from one SVD, so no result depends on an iteration cap), and
Haar-random unitaries.

A unitary matrix is diagonalized through the commuting Hermitian pair
H = (W + W*)/2 and S = (W - W*)/(2i): eigenvectors of H are refined inside
eigenvalue clusters (gap tolerance ``CLUSTER_TOL``) by diagonalizing the
compression of S, which separates conjugate eigenvalue pairs that share a
real part. Eigenvalues are read off as the diagonal of Q*WQ and renormalized
to the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8
CLUSTER_TOL = 1e-8


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NonUnitaryError(ValueError):
    """Input matrix is not unitary within tolerance."""


def _as_square(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def unitarity_defect(w):
    """Frobenius norm of W*W - I."""
    w = np.asarray(w, dtype=complex)
    eye = np.eye(w.shape[0])
    return float(np.linalg.norm(w.conj().T @ w - eye))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with a matching orthonormal eigenvector basis."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self):
        return (self.vectors * self.eigenvalues) @ self.vectors.conj().T


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises :class:`NonHermitianError` when the input is not Hermitian within
    ``HERMITIAN_TOL`` relative to its size.
    """
    a = _as_square(a)
    scale = float(np.linalg.norm(a))
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > HERMITIAN_TOL * (1.0 + scale):
        raise NonHermitianError(f"matrix is not Hermitian (defect {defect:.3e})")
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    return SpectralDecomposition(values, vectors)


def unitary_eig(w):
    """Eigendecomposition of a unitary matrix.

    Eigenvalues are renormalized to unit modulus and ordered by increasing
    real part, with clusters of equal real part split by increasing
    imaginary part.
    """
    w = _as_square(w)
    defect = unitarity_defect(w)
    if defect > UNITARY_TOL:
        raise NonUnitaryError(f"matrix is not unitary (defect {defect:.3e})")

    h = (w + w.conj().T) / 2.0
    s = (w - w.conj().T) / 2.0j
    real_parts, q = np.linalg.eigh(h)

    # Refine eigenvectors inside clusters of (numerically) equal real part:
    # within a cluster the compression of S is Hermitian and separates the
    # eigenvalues that H cannot.
    n = w.shape[0]
    start = 0
    for stop in range(1, n + 1):
        if stop < n and real_parts[stop] - real_parts[stop - 1] < CLUSTER_TOL:
            continue
        if stop - start > 1:
            block = q[:, start:stop]
            compressed = block.conj().T @ s @ block
            compressed = (compressed + compressed.conj().T) / 2.0
            _, rot = np.linalg.eigh(compressed)
            q[:, start:stop] = block @ rot
        start = stop

    eigenvalues = np.diag(q.conj().T @ w @ q).copy()
    moduli = np.abs(eigenvalues)
    moduli[moduli == 0] = 1.0
    eigenvalues = eigenvalues / moduli
    return SpectralDecomposition(eigenvalues, q)


def apply_circle_function(w, fn):
    """Functional calculus g(W) for a unitary W and a function on the circle.

    ``fn`` is evaluated on each eigenvalue (scalar complex in, complex out).
    If |g| = 1 on the spectrum the result is unitary up to rounding, and it
    always commutes with W up to the decomposition residual.
    """
    dec = unitary_eig(w)
    values = np.array([complex(fn(complex(z))) for z in dec.eigenvalues])
    return (dec.vectors * values) @ dec.vectors.conj().T


def apply_hermitian_function(a, fn):
    """Functional calculus g(A) for a Hermitian A and a real-spectrum function."""
    dec = hermitian_eig(a)
    values = np.array([complex(fn(float(x))) for x in dec.eigenvalues])
    return (dec.vectors * values) @ dec.vectors.conj().T


def unitary_exponential(h, scale=1.0):
    """exp(i * scale * H) for Hermitian H; exactly unitary up to rounding."""
    dec = hermitian_eig(h)
    phases = np.exp(1j * scale * dec.eigenvalues)
    return (dec.vectors * phases) @ dec.vectors.conj().T


def project_to_unitary(w):
    """Nearest-unitary repair by renormalizing eigenvalues to the circle."""
    return unitary_eig(w).reconstruct()


def top_singular_triple(a):
    """Largest singular value of A with its left/right singular vectors.

    One LAPACK SVD. Returns ``(sigma, left, right, converged)`` with
    ``left^* A right = sigma``, so the triple certifies its own value;
    ``converged`` is always True and is kept for callers that read it.
    """
    left, s, right_h = np.linalg.svd(_as_square(a))
    return float(s[0]), left[:, 0], right_h[0].conj(), True


def operator_norm(a):
    """Operator (spectral) norm of a square complex matrix: its top singular value."""
    return float(np.linalg.svd(_as_square(a), compute_uv=False)[0])


def haar_unitary(dim, rng):
    """Haar-distributed unitary drawn from an existing Generator."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r).copy()
    moduli = np.abs(diag)
    moduli[moduli == 0] = 1.0
    phases = diag / moduli
    # Fixing the triangular factor's diagonal to be real-positive makes the
    # distribution exactly Haar rather than QR-convention dependent.
    return q * phases


def random_unitary(dim, seed):
    """Deterministic Haar-random unitary for a given integer seed."""
    return haar_unitary(dim, np.random.default_rng(seed))
