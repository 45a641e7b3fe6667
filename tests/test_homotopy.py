"""Circle loops, winding numbers, wedge images, and homotopy identities."""

import math

import numpy as np
import pytest
from conftest import loop_calculus

from constrep.homotopy import (
    WEDGE_IMAGES,
    character_at_i,
    character_path,
    circle_points,
    composed_images,
    homotopy_images,
    split_endpoint_images,
    upper_fold,
    upper_fold_matrix,
    wedge_samples,
    winding_number,
    winding_total,
)
from constrep.freegroup import averaging_element, parse_element
from constrep.linalg import unitarity_defect
from constrep.representation import Representation, constraint_value, random_constrained
from constrep.verify import rotation_residuals, scalar_character_residuals, wedge_residuals


def test_upper_fold_scalar_values():
    assert upper_fold(1.0) == -1.0
    assert upper_fold(-1.0) == 1.0
    assert upper_fold(1j) == 1j  # the fixed point is exact
    assert upper_fold(-1j) == 1j
    theta = 0.8
    z = complex(math.cos(theta), math.sin(theta))
    want = complex(math.cos(math.pi - theta), math.sin(math.pi - theta))
    assert abs(upper_fold(z) - want) < 1e-15


def test_upper_fold_has_unit_modulus_on_circle():
    points = circle_points(256)
    folded = upper_fold(points)
    assert np.max(np.abs(np.abs(folded) - 1.0)) < 1e-15


def test_upper_fold_matrix_on_diagonal():
    w = np.diag([1.0 + 0j, 1j, -1.0 + 0j])
    got = upper_fold_matrix(w)
    want = np.diag([-1.0 + 0j, 1j, 1.0 + 0j])
    assert np.max(np.abs(got - want)) < 1e-12
    assert unitarity_defect(got) < 1e-12


def test_circle_points_validation():
    with pytest.raises(ValueError):
        circle_points(7)
    points = circle_points(8)
    assert points[0] == 1.0 + 0j
    assert abs(points[2] - 1j) < 1e-15


@pytest.mark.parametrize("n", [64, 4096])
def test_winding_numbers_of_reference_loops(n):
    points = circle_points(n)
    assert winding_number(points) == 1
    assert winding_number(upper_fold(points)) == 0
    assert winding_number(points**2) == 2
    assert winding_number(points**3) == 3
    assert abs(winding_total(points) - 1.0) < 1e-12


def test_winding_refuses_zero_samples():
    values = circle_points(16).copy()
    values[3] = 0.0
    with pytest.raises(ValueError):
        winding_total(values)


def test_winding_refuses_undersampled_loop():
    # consecutive gap of exactly pi: the branch is ambiguous
    points = circle_points(8)
    with pytest.raises(ValueError):
        winding_total(points**4)


def test_circle_samples_validation():
    with pytest.raises(ValueError):
        winding_total(np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        winding_total(np.ones((8, 2), dtype=complex))


def test_wedge_samples_components():
    u_image, _ = wedge_samples(16)
    first, second = u_image[0, 0]
    assert np.array_equal(first, circle_points(16))
    assert np.array_equal(second, np.ones(16, dtype=complex))
    first, second = u_image[1, 1]
    assert np.array_equal(first, np.full(16, -1.0 + 0j))
    assert np.max(np.abs(second - upper_fold(circle_points(16)))) == 0.0


@pytest.mark.parametrize("n", [8, 64, 4096, 8192])
def test_wedge_images_satisfy_conditions(n):
    assert wedge_residuals(n) == (0.0, 0.0)
    for image in wedge_samples(n):
        for k in (0, 1):
            assert np.max(np.abs(np.abs(image[k, k, 0]) - 1.0)) < 1e-15
            assert np.max(np.abs(image[k, 1 - k, 0])) == 0.0


def test_substitution_gives_block_diagonal_images():
    rep = random_constrained(3, 4.0, seed=41)
    d = rep.dim
    eye = np.eye(d, dtype=complex)
    image_u, image_v = composed_images(rep)

    want_u = np.zeros((4 * d, 4 * d), dtype=complex)
    want_u[0:d, 0:d] = rep.u
    want_u[d : 2 * d, d : 2 * d] = eye
    want_u[2 * d : 3 * d, 2 * d : 3 * d] = -eye
    want_u[3 * d :, 3 * d :] = upper_fold_matrix(rep.v)
    assert np.max(np.abs(image_u - want_u)) < 1e-12

    want_v = np.zeros((4 * d, 4 * d), dtype=complex)
    want_v[0:d, 0:d] = upper_fold_matrix(rep.u)
    want_v[d : 2 * d, d : 2 * d] = -eye
    want_v[2 * d : 3 * d, 2 * d : 3 * d] = eye
    want_v[3 * d :, 3 * d :] = rep.v
    assert np.max(np.abs(image_v - want_v)) < 1e-12


@pytest.mark.parametrize(
    "rep",
    [
        *(random_constrained(d, 4.0, seed=42) for d in (1, 2, 3, 5)),
        # eigenvalues exactly at +-1 and +-i, and repeated
        Representation(np.eye(2), -np.eye(2)),
        Representation(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])),
        Representation(np.diag([1j, 1j, -1j]), np.diag([1j, -1j, -1j])),
    ],
    ids=["haar1", "haar2", "haar3", "haar5", "identity", "signs", "plus_minus_i"],
)
def test_substituted_images_kill_averaging_element(rep):
    image_u, image_v = composed_images(rep)
    total = image_u + image_u.conj().T + image_v + image_v.conj().T
    assert np.max(np.abs(total)) < 1e-12
    start_u, start_v = homotopy_images(rep, 0.0)
    assert np.max(np.abs(image_u - start_u)) < 1e-10
    assert np.max(np.abs(image_v - start_v)) < 1e-10


def test_homotopy_endpoints_match():
    rep = random_constrained(2, 4.0, seed=43)
    start_u, start_v = homotopy_images(rep, 0.0)
    comp_u, comp_v = composed_images(rep)
    assert np.max(np.abs(start_u - comp_u)) < 1e-10
    assert np.max(np.abs(start_v - comp_v)) < 1e-10

    end_u, end_v = homotopy_images(rep, math.pi / 2)
    split_u, split_v = split_endpoint_images(rep)
    assert np.max(np.abs(end_u - split_u)) < 1e-10
    assert np.max(np.abs(end_v - split_v)) < 1e-10


def test_homotopy_images_stay_unitary():
    rep = random_constrained(3, 2.0, seed=44)
    for t in np.linspace(0.0, math.pi / 2, 9):
        image_u, image_v = homotopy_images(rep, float(t))
        assert unitarity_defect(image_u) < 1e-9
        assert unitarity_defect(image_v) < 1e-9
    with pytest.raises(ValueError):
        homotopy_images(rep, -0.1)
    with pytest.raises(ValueError):
        homotopy_images(rep, 2.0)


def test_sine_law_on_grid():
    for seed, (dim, mu) in enumerate(((2, 1.0), (4, 3.0))):
        rep = random_constrained(dim, mu, seed=50 + seed)
        sine, _ = rotation_residuals([rep], np.linspace(0.0, math.pi / 2, 17))
        assert sine < 1e-8


def test_interpolant_block_structure():
    rep = random_constrained(2, 3.0, seed=51)
    _, blocks = rotation_residuals([rep], (0.0, 0.3, 1.1, math.pi / 2))
    assert blocks < 1e-12


def test_character_path_fold_swap_is_exact_at_zero():
    rep = random_constrained(3, 3.0, seed=52)
    u0, v0 = character_path(rep, "fold_swap", 0.0)
    assert np.array_equal(u0, 1j * np.eye(3))
    assert np.array_equal(v0, 1j * np.eye(3))


def test_character_path_fold_swap_endpoint():
    rep = random_constrained(3, 3.0, seed=53)
    u1, v1 = character_path(rep, "fold_swap", 1.0)
    assert np.max(np.abs(u1 - upper_fold_matrix(rep.v))) < 1e-10
    assert np.max(np.abs(v1 - upper_fold_matrix(rep.u))) < 1e-10


def test_character_path_fold_swap_scaling():
    rep = random_constrained(3, 3.0, seed=54)
    base = constraint_value(rep)
    for t in np.linspace(0.0, 1.0, 11):
        u_t, v_t = character_path(rep, "fold_swap", float(t))
        total = u_t + u_t.conj().T + v_t + v_t.conj().T
        value = np.linalg.norm(total, 2)
        assert abs(value - float(t) * base) < 1e-9


def test_character_path_fold_swap_matches_the_scalar_loop():
    rep = random_constrained(3, 3.0, seed=58)
    for t in (0.3, 0.7, 1.0):

        def scalar(z):
            x = z.real
            return complex(-t * x, math.sqrt(max(0.0, 1.0 - t * t * x * x)))

        u_t, v_t = character_path(rep, "fold_swap", t)
        assert np.array_equal(u_t, loop_calculus(rep.v, scalar))
        assert np.array_equal(v_t, loop_calculus(rep.u, scalar))


@pytest.mark.parametrize("which", ["plus_minus", "minus_plus"])
def test_character_path_scalar_paths(which):
    rep = random_constrained(2, 2.0, seed=55)
    sign = 1.0 if which == "plus_minus" else -1.0
    u0, v0 = character_path(rep, which, 0.0)
    assert np.array_equal(u0, sign * np.eye(2))
    assert np.array_equal(v0, -sign * np.eye(2))
    u1, v1 = character_path(rep, which, math.pi / 2)
    assert np.max(np.abs(u1 - 1j * np.eye(2))) < 1e-15
    assert np.max(np.abs(v1 - 1j * np.eye(2))) < 1e-15
    for t in np.linspace(0.0, math.pi / 2, 9):
        u_t, v_t = character_path(rep, which, float(t))
        total = u_t + u_t.conj().T + v_t + v_t.conj().T
        assert np.max(np.abs(total)) == 0.0  # cancels exactly in floats


def test_character_path_rejects_bad_input():
    rep = random_constrained(2, 2.0, seed=56)
    with pytest.raises(ValueError):
        character_path(rep, "fold_swap", 1.5)
    with pytest.raises(ValueError):
        character_path(rep, "plus_minus", 2.0)
    with pytest.raises(ValueError):
        character_path(rep, "sideways", 0.5)


def test_scalar_character_values():
    for image in WEDGE_IMAGES:
        assert [[h(1j, 1j) for h in row] for row in image] == [[1j, 0], [0, 1j]]


def test_scalar_character_residuals_are_zero():
    residuals = scalar_character_residuals()
    assert set(residuals) == {
        "fold_fixes_i",
        "wedge_character_diagonal",
        "unit_embedding_identity",
    }
    assert all(value == 0.0 for value in residuals.values())


def test_character_at_i_examples():
    assert character_at_i(averaging_element()) == 0.0
    assert character_at_i(parse_element("u*v")) == -1.0
    assert character_at_i(parse_element("u^2")) == -1.0
    assert character_at_i(parse_element("u^-1")) == -1j
    assert character_at_i(parse_element("2*u - v + u*v")) == complex(-1.0, 1.0)
    assert character_at_i(parse_element("1")) == 1.0
