"""Constrained pairs: evaluation, deformation, retraction, persistence."""

import math

import numpy as np
import pytest

from constrep.freegroup import averaging_element, generator, parse_element
from constrep.linalg import NonUnitaryError, random_unitary, unitarity_defect
from constrep.representation import (
    Representation,
    constraint_value,
    deform,
    deformation_function,
    evaluate,
    is_constrained,
    load_representation,
    one_dim_rep,
    random_constrained,
    retract_to,
    save_representation,
    zero_constrained_from,
)


def _sum_matrix(rep):
    return rep.u + rep.u.conj().T + rep.v + rep.v.conj().T


def test_validation_rejects_bad_pairs():
    good = np.eye(2, dtype=complex)
    with pytest.raises(NonUnitaryError):
        Representation(2.0 * good, good)
    with pytest.raises(ValueError):
        Representation(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        Representation(np.ones((2, 3)), np.ones((2, 3)))


def test_evaluate_on_identity_pair():
    rep = Representation(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    x = averaging_element()
    assert np.array_equal(evaluate(rep, x), 4.0 * np.eye(3))
    assert np.array_equal(
        evaluate(rep, parse_element("u*v^-1")), np.eye(3, dtype=complex)
    )
    assert np.array_equal(
        evaluate(rep, parse_element("2 + i")), (2 + 1j) * np.eye(3)
    )


def test_evaluate_word_products():
    rep = random_constrained(3, 4.0, seed=12)
    a = parse_element("u*v*u^-1")
    want = rep.u @ rep.v @ rep.u.conj().T
    assert np.max(np.abs(evaluate(rep, a) - want)) < 1e-12
    b = parse_element("2*u - i*v")
    assert np.max(np.abs(evaluate(rep, b) - (2.0 * rep.u - 1j * rep.v))) < 1e-12


def test_constraint_identity_pair_is_four():
    rep = Representation(np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    assert abs(constraint_value(rep) - 4.0) < 1e-12
    assert is_constrained(rep, 4.0)
    assert not is_constrained(rep, 3.0)


@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7, 2.1), (math.pi, 0.4)])
def test_constraint_one_dim_formula(theta, phi):
    rep = one_dim_rep(theta, phi)
    want = abs(2.0 * math.cos(theta) + 2.0 * math.cos(phi))
    assert abs(constraint_value(rep) - want) < 1e-12


def test_deformation_function_endpoints():
    f0 = deformation_function(0.0)
    f1 = deformation_function(1.0)
    for theta in (0.1, 1.2, 2.9, -0.4, -2.2):
        z = complex(math.cos(theta), math.sin(theta))
        assert abs(f0(z) - z) < 1e-15
        assert abs(abs(f1(z)) - 1.0) < 1e-15
        # at full strength everything lands on +/- i, by half-plane
        want = 1j if z.imag >= 0 else -1j
        assert abs(f1(z) - want) < 1e-15


@pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_deformation_scalar_scaling(t):
    fn = deformation_function(t)
    for theta in np.linspace(-3.0, 3.0, 13):
        z = complex(math.cos(theta), math.sin(theta))
        fz = fn(z)
        assert abs(abs(fz) - 1.0) < 1e-15
        assert abs((fz + fz.conjugate()) - (1.0 - t) * (z + z.conjugate())) < 1e-14


def test_deform_scales_generator_sum():
    rep = random_constrained(5, 4.0, seed=3)
    base = _sum_matrix(rep)
    for t in np.linspace(0.0, 1.0, 21):
        moved = deform(rep, float(t))
        assert unitarity_defect(moved.u) < 1e-9
        assert unitarity_defect(moved.v) < 1e-9
        assert np.max(np.abs(_sum_matrix(moved) - (1.0 - t) * base)) < 1e-10


def test_deform_commutes_with_original():
    rep = random_constrained(4, 4.0, seed=9)
    moved = deform(rep, 0.6)
    assert np.max(np.abs(moved.u @ rep.u - rep.u @ moved.u)) < 1e-10
    assert np.max(np.abs(moved.v @ rep.v - rep.v @ moved.v)) < 1e-10


def test_deform_at_zero_is_identity_map():
    rep = random_constrained(4, 4.0, seed=21)
    moved = deform(rep, 0.0)
    assert rep.distance(moved) < 1e-12


def test_deform_halving():
    rep = random_constrained(4, 4.0, seed=30)
    base = constraint_value(rep)
    half = deform(rep, 0.5)
    assert abs(constraint_value(half) - base / 2.0) < 1e-9


def test_retract_feasible_returns_same_object():
    rep = random_constrained(3, 1.0, seed=5)
    assert retract_to(rep, 2.0) is rep
    assert retract_to(rep, constraint_value(rep)) is rep


@pytest.mark.parametrize("mu", [0.0, 1.0, 2.0, 3.0])
def test_retract_hits_target_exactly(mu):
    rep = random_constrained(6, 4.0, seed=18)  # constraint ~3.199, above all targets
    assert constraint_value(rep) > mu
    pulled = retract_to(rep, mu)
    assert abs(constraint_value(pulled) - mu) < 1e-8


@pytest.mark.parametrize("mu", [0.0, 2.0, 4.0])
def test_retract_lands_on_target_with_eigenvalues_at_plus_minus_one(mu):
    # U and V share an eigenbasis with eigenvalues exactly at +-1 and +-i,
    # so the generator sum is diag(4, -4, 0, 0, 0, 0) in that basis
    q = random_unitary(6, seed=5)
    u = q @ np.diag([1, -1, 1, -1, 1j, -1j]) @ q.conj().T
    v = q @ np.diag([1, -1, -1, 1, 1j, -1j]) @ q.conj().T
    rep = Representation(u, v)
    assert abs(constraint_value(rep) - 4.0) < 1e-12
    pulled = retract_to(rep, mu)
    assert abs(constraint_value(pulled) - mu) < 1e-12
    assert max(unitarity_defect(pulled.u), unitarity_defect(pulled.v)) < 1e-12


def test_validation_accepts_transposed_views():
    u = random_unitary(3, seed=2)
    rep = Representation(u, u.conj().T)
    assert np.allclose(rep.u @ rep.v, np.eye(3))


def test_retract_to_zero_gives_anticommuting_sums():
    rep = random_constrained(4, 4.0, seed=23)
    pulled = retract_to(rep, 0.0)
    total = _sum_matrix(pulled)
    assert np.max(np.abs(total)) < 1e-8


def test_zero_constrained_identity_input():
    rep = zero_constrained_from(np.eye(3, dtype=complex))
    assert np.max(np.abs(rep.v + np.eye(3))) < 1e-12


def test_zero_constrained_purely_imaginary_input():
    rep = zero_constrained_from(1j * np.eye(3, dtype=complex))
    assert np.max(np.abs(rep.v - 1j * np.eye(3))) < 1e-12


def test_zero_constrained_random_inputs():
    for seed in range(8):
        u = random_unitary(2 + seed % 5, seed=seed)
        rep = zero_constrained_from(u)
        assert unitarity_defect(rep.v) < 1e-9
        assert constraint_value(rep) < 1e-9
        assert np.array_equal(rep.u, u)


def test_random_constrained_is_deterministic_and_feasible():
    a = random_constrained(4, 2.5, seed=11)
    b = random_constrained(4, 2.5, seed=11)
    c = random_constrained(4, 2.5, seed=12)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)
    assert not np.array_equal(a.u, c.u)
    for mu in (0.0, 1.0, 3.0, 4.0):
        rep = random_constrained(3, mu, seed=2)
        assert constraint_value(rep) <= mu + 1e-8


def test_random_constrained_validates_arguments():
    with pytest.raises(ValueError):
        random_constrained(0, 2.0, seed=0)
    with pytest.raises(ValueError):
        random_constrained(2, 4.5, seed=0)
    with pytest.raises(ValueError):
        random_constrained(2, -0.1, seed=0)


def test_json_round_trip(tmp_path):
    rep = random_constrained(4, 2.0, seed=8)
    path = tmp_path / "pair.json"
    save_representation(rep, path)
    loaded = load_representation(path)
    assert np.array_equal(loaded.u, rep.u)
    assert np.array_equal(loaded.v, rep.v)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text('{"dim": 2}')
    with pytest.raises(ValueError):
        load_representation(path)

    path.write_text('{"dim": 2, "u": [[[1,0],[0,0]],[[0,0],[1,0]]], "v": "x"}')
    with pytest.raises(ValueError):
        load_representation(path)

    # right shape but badly non-unitary
    big = [[[5, 0], [0, 0]], [[0, 0], [5, 0]]]
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    path.write_text('{"dim": 2, "u": %s, "v": %s}' % (big, eye))
    with pytest.raises(ValueError):
        load_representation(path)


def test_distance_between_pairs():
    rep = random_constrained(3, 4.0, seed=14)
    assert rep.distance(rep) == 0.0
    other = Representation(rep.u, -rep.v)
    assert rep.distance(other) > 0.1


def test_one_dim_rep_matrices():
    rep = one_dim_rep(0.5, -1.2)
    assert rep.dim == 1
    assert abs(rep.u[0, 0] - complex(math.cos(0.5), math.sin(0.5))) < 1e-15
    assert abs(rep.v[0, 0] - complex(math.cos(-1.2), math.sin(-1.2))) < 1e-15
    assert abs(evaluate(rep, generator("u"))[0, 0] - rep.u[0, 0]) == 0.0
