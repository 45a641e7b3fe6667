"""Eigendecompositions, functional calculus, and certified norm bounds."""

import numpy as np
import scipy.linalg

from constrep.linalg import (
    apply_circle_function,
    operator_norm,
    random_unitary,
    top_singular_triple,
    unitary_eig,
    unitary_exponential,
    unitarity_defect,
)
from constrep.representation import Representation, constraint_value


def _random_complex(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_unitary_eig_recovers_known_spectrum():
    # construct-then-recover, including a conjugate pair that collides in
    # the hermitian part cos(theta)
    angles = np.array([0.3, -0.3, 1.9, 2.7, -2.7])
    q = random_unitary(5, seed=7)
    w = q @ np.diag(np.exp(1j * angles)) @ q.conj().T
    eigenvalues, vectors = unitary_eig(w)
    assert np.max(np.abs(np.abs(eigenvalues) - 1.0)) < 1e-12
    rebuilt = (vectors * eigenvalues) @ vectors.conj().T
    assert np.max(np.abs(rebuilt - w)) < 1e-10
    got = np.sort(np.angle(eigenvalues))
    assert np.max(np.abs(got - np.sort(angles))) < 1e-10


def test_operator_norm_matches_svd_oracle():
    for seed in range(20):
        a = _random_complex(2 + seed % 7, 100 + seed)
        want = np.linalg.norm(a, 2)
        got = operator_norm(a)
        assert abs(got - want) <= 1e-8 * max(1.0, want)
        assert abs(operator_norm(a.conj().T) - want) <= 1e-8 * max(1.0, want)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((4, 4), dtype=complex)) == 0.0


def test_operator_norm_survives_symmetric_start_trap():
    # the all-ones start vector is an exact eigenvector for eigenvalue 1
    # here; the top eigenvalue is 3 and must still be found
    a = np.array([[2.0, -1.0], [-1.0, 2.0]], dtype=complex)
    assert abs(operator_norm(a) - 3.0) < 1e-9


def test_operator_norm_separates_near_degenerate_top_pair():
    # two top singular values 1e-7 apart, which defeats power iteration
    a = np.diag([1.0, 1.0 - 1e-7, 0.5]).astype(complex)
    assert abs(operator_norm(a) - 1.0) < 1e-12
    sigma, left, right, converged = top_singular_triple(a)
    assert converged
    assert abs(sigma - 1.0) < 1e-12


def _assert_certified_triple(a):
    sigma, left, right, converged = top_singular_triple(a)
    assert converged
    assert abs(sigma - np.linalg.norm(a, 2)) < 1e-12
    # the triple realizes its value, so sigma is a true lower bound
    assert abs(complex(left.conj() @ (a @ right)).real - sigma) < 1e-12
    assert abs(np.linalg.norm(left) - 1.0) < 1e-12
    assert abs(np.linalg.norm(right) - 1.0) < 1e-12


def test_top_singular_triple_certificate():
    _assert_certified_triple(_random_complex(5, 11))


def test_haar_generator_sums_match_lapack():
    # d = 16 generator sums have near-degenerate +-lambda spectra; a power
    # iteration capped at 10^4 steps was off by up to 1.6e-6 on 4 of these
    for seed in range(200):
        rep = Representation(random_unitary(16, seed), random_unitary(16, seed + 1000))
        x = rep.u + rep.u.conj().T + rep.v + rep.v.conj().T
        assert abs(constraint_value(rep) - np.linalg.norm(x, 2)) < 1e-12
        _assert_certified_triple(x)
        _assert_certified_triple(rep.u @ rep.v + 2.0 * rep.v.conj().T)


def _plus_minus_one_unitary(diagonal, seed=5):
    q = random_unitary(len(diagonal), seed=seed)
    return q @ np.diag(np.asarray(diagonal, dtype=complex)) @ q.conj().T


def test_spectral_edge_cases():
    w = _plus_minus_one_unitary([1, -1, 1, -1, 1j, -1j])
    edge_cases = [
        w,
        w + w.conj().T,
        np.eye(4, dtype=complex),
        np.kron(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.25]])).astype(complex),
        np.array([[-3.0 + 4.0j]]),
        np.zeros((1, 1), dtype=complex),
        np.zeros((4, 4), dtype=complex),
    ]
    for a in edge_cases:
        _assert_certified_triple(a)
        assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-12


def test_constraint_value_edge_cases():
    # eigenvalues exactly at +-1 (and +-i) make the generator sum's spectrum
    # exactly symmetric: diag(4, -4, 0, 0, 0, 0) up to the shared basis
    u = _plus_minus_one_unitary([1, -1, 1, -1, 1j, -1j])
    v = _plus_minus_one_unitary([1, -1, -1, 1, 1j, -1j])
    assert abs(constraint_value(Representation(u, v)) - 4.0) < 1e-12
    assert abs(constraint_value(Representation(u, u.conj().T)) - 4.0) < 1e-12
    eye = np.eye(3, dtype=complex)
    assert constraint_value(Representation(eye, eye)) == 4.0
    assert abs(constraint_value(Representation(eye, -eye))) < 1e-12
    one = np.array([[1j]])
    assert abs(constraint_value(Representation(one, one))) < 1e-12


def test_apply_circle_function_identity_and_square():
    w = random_unitary(5, seed=3)
    assert np.max(np.abs(apply_circle_function(w, lambda z: z) - w)) < 1e-12
    assert np.max(np.abs(apply_circle_function(w, lambda z: z * z) - w @ w)) < 1e-11


def test_unitary_exponential_matches_expm():
    a = _random_complex(4, 5)
    h = (a + a.conj().T) / 2.0
    dec = np.linalg.eigh(h)
    for scale in (0.0, 0.37, -1.2):
        got = unitary_exponential(dec, scale)
        want = scipy.linalg.expm(1j * scale * h)
        assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(unitary_exponential(dec, 0.0) - np.eye(4))) < 1e-12


def test_random_unitary_is_deterministic():
    a = random_unitary(5, seed=42)
    b = random_unitary(5, seed=42)
    c = random_unitary(5, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert unitarity_defect(a) < 1e-12
