"""Constrained pairs: evaluation, deformation, retraction, persistence."""

import math

import numpy as np
import pytest
from conftest import character, loop_calculus
from hypothesis import given, settings
from hypothesis import strategies as st

from constrep import linalg, representation
from constrep.freegroup import GroupRingElement, Word, averaging_element, generator, parse_element
from constrep.homotopy import upper_fold_matrix
from constrep.linalg import NonUnitaryError, random_unitary, unitarity_defect
from constrep.representation import (
    Representation,
    constraint_value,
    deform,
    deformation_function,
    evaluate,
    load_representation,
    random_constrained,
    retract_to,
    save_representation,
    zero_constrained_from,
)


def _sum_matrix(rep):
    return rep.u + rep.u.conj().T + rep.v + rep.v.conj().T


def _is_positive_zero(value):
    return value == 0.0 and math.copysign(1.0, value) == 1.0


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


_SYLLABLE_POWERS = st.integers(1, 16).flatmap(lambda k: st.sampled_from((k, -k)))
_WORDS = st.tuples(st.sampled_from("uv"), st.lists(_SYLLABLE_POWERS, min_size=1, max_size=3)).map(
    lambda drawn: [("uv"[("uv".index(drawn[0]) + i) % 2], k) for i, k in enumerate(drawn[1])]
)
_COEFFICIENTS = st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _characters_and_elements(draw):
    """A character and an element of 2-4 terms of 1-3 alternating syllables,
    |exponent| <= 16; one syllable of power +-2^16 is appended to the first
    term's word in about half of the draws."""
    words = draw(st.lists(_WORDS, min_size=2, max_size=4))
    if draw(st.booleans()):
        gen = "v" if words[0][-1][0] == "u" else "u"
        words[0] = words[0] + [(gen, draw(st.sampled_from((2**16, -(2**16)))))]
    terms = {}
    for word in words:
        terms[Word(word)] = draw(_COEFFICIENTS)
    angles = st.floats(-math.pi, math.pi)
    return character(draw(angles), draw(angles)), GroupRingElement(terms)


@settings(max_examples=150)
@given(_characters_and_elements())
def test_character_image_is_the_scalar_rule(case):
    # evaluate at d = 1 is the scalar rule exactly, and the rule meets the
    # word multiplied out letter by letter (what a 1 x 1 matmul computes,
    # in Python complex arithmetic) within 4 * letters * eps * l1; the
    # largest ratio seen in 3000 seeded draws was 0.7 of that.
    rep, element = case
    z_u, z_v = complex(rep.u[0, 0]), complex(rep.v[0, 0])
    image = evaluate(rep, element)
    f = sum(representation._character_waves(representation._character_terms(element), z_u, z_v))
    assert image.shape == (1, 1) and image[0, 0] == f
    letters = {("u", 1): z_u, ("u", -1): z_u.conjugate(), ("v", 1): z_v, ("v", -1): z_v.conjugate()}
    looped = 0j
    for word, coeff in element.terms.items():
        product = 1.0 + 0j
        for letter in word.letters:
            product *= letters[letter]
        looped += coeff * product
    longest = max(len(word) for word in element.terms)
    assert abs(f - looped) <= 4 * longest * np.finfo(float).eps * element.coefficient_l1()


def test_constraint_identity_pair_is_four():
    rep = Representation(np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    assert abs(constraint_value(rep) - 4.0) < 1e-12
    assert constraint_value(rep) <= 4.0 + 1e-8
    assert not constraint_value(rep) <= 3.0 + 1e-8


@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.7, 2.1), (math.pi, 0.4)])
def test_constraint_one_dim_formula(theta, phi):
    rep = character(theta, phi)
    want = abs(2.0 * math.cos(theta) + 2.0 * math.cos(phi))
    assert abs(constraint_value(rep) - want) < 1e-12
    assert evaluate(rep, generator("u"))[0, 0] == rep.u[0, 0]


def test_deformation_function_endpoints():
    f0 = deformation_function(0.0)
    f1 = deformation_function(1.0)
    for theta in (0.1, 1.2, 2.9, -0.4, -2.2):
        z = complex(math.cos(theta), math.sin(theta))
        assert abs(f0(z) - z) < 1e-15
        # at full strength everything lands exactly on +/- i, by half-plane
        assert f1(z) == (1j if z.imag >= 0 else -1j)


_CIRCLE_POINTS = st.one_of(
    # the real points with both signs of zero, and +-i
    st.sampled_from((1 + 0j, complex(1, -0.0), -1 + 0j, complex(-1, -0.0), 1j, -1j)),
    st.floats(-math.pi, math.pi).map(lambda theta: complex(math.cos(theta), math.sin(theta))),
)


@settings(max_examples=300)
@given(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)), _CIRCLE_POINTS)
def test_deformation_function_properties(t, z):
    g = deformation_function(t)(z)
    assert g.real == (1.0 - t) * z.real
    assert abs(abs(g) - 1.0) <= 1e-15
    if t == 1.0:
        assert g in (1j, -1j)


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
    assert max(np.linalg.norm(rep.u - moved.u), np.linalg.norm(rep.v - moved.v)) < 1e-12


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


def _plus_minus_one_pair(d):
    """A d x d pair with eigenvalues at +-1, where the circle map has its
    kinks; the second image shares no eigenbasis with the first."""
    q = random_unitary(d, seed=5)
    u = q @ np.diag(np.resize([1, -1, 1, -1, 1j, -1j], d)) @ q.conj().T
    r = random_unitary(d, seed=6)
    v = r @ np.diag(np.resize([1, 1, -1, -1, -1, np.exp(0.4j)], d)) @ r.conj().T
    return Representation(u, v)


def test_deform_keeps_unitarity_with_eigenvalues_at_plus_minus_one():
    # deform has no repair step, so its eigendecomposition alone must keep
    # eigenvalues exactly at +-1 on the circle
    rep = _plus_minus_one_pair(6)
    base = _sum_matrix(rep)
    for t in (0.0, 0.3, 0.7, 1.0):
        moved = deform(rep, t)
        assert max(unitarity_defect(moved.u), unitarity_defect(moved.v)) < 1e-13
        assert np.max(np.abs(_sum_matrix(moved) - (1.0 - t) * base)) < 1e-13
    assert constraint_value(rep) > 2.0
    for mu in (0.0, 1.0, 2.0):
        assert abs(constraint_value(retract_to(rep, mu)) - mu) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_stacked_spectral_calls_equal_single_calls(d):
    # deform and the ascent decompose both images of a pair in one call; each
    # result must be the per-matrix call's bit for bit. A U whose eigenvalues
    # come in conjugate pairs makes V = fold(U) repeat each eigenvalue, so
    # both run the cluster loop.
    phases = np.exp(1j * np.random.default_rng(d).uniform(0.1, 3.0, d // 2))
    q = random_unitary(d, seed=d)
    folded = zero_constrained_from(q @ np.diag(np.concatenate([phases, phases.conj()])) @ q.conj().T)
    assert len(np.unique(np.round(np.linalg.eigvalsh(folded.v + folded.v.conj().T), 8))) < d
    for rep in (random_constrained(d, 4.0, seed=d), folded, _plus_minus_one_pair(d)):
        pair = (rep.u, rep.v)
        values, vectors = linalg.unitary_eig(np.stack(pair))
        for k, w in enumerate(pair):
            one_values, one_vectors = linalg.unitary_eig(w)
            assert np.array_equal(values[k], one_values)
            assert np.array_equal(vectors[k], one_vectors)
        for t in (0.3, 1.0):
            fn = deformation_function(t)
            stacked = linalg.apply_circle_function(np.stack(pair), fn)
            for k, w in enumerate(pair):
                assert np.array_equal(stacked[k], linalg.apply_circle_function(w, fn))
        hermitian = np.stack([w + w.conj().T for w in pair])
        stacked = linalg.unitary_exponential(np.linalg.eigh(hermitian), 0.37)
        for k, h in enumerate(hermitian):
            assert np.array_equal(stacked[k], linalg.unitary_exponential(np.linalg.eigh(h), 0.37))
        assert _is_positive_zero(constraint_value(deform(rep, 1.0)))


def test_validation_accepts_transposed_views():
    u = random_unitary(3, seed=2)
    rep = Representation(u, u.conj().T)
    assert np.allclose(rep.u @ rep.v, np.eye(3))


def test_retract_to_zero_gives_anticommuting_sums():
    rep = random_constrained(4, 4.0, seed=23)
    pulled = retract_to(rep, 0.0)
    total = _sum_matrix(pulled)
    assert np.max(np.abs(total)) < 1e-8


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_retract_to_zero_lands_exactly_on_zero(dim):
    for seed in range(200):
        pulled = retract_to(random_constrained(dim, 4.0, seed=seed), 0.0)
        assert _is_positive_zero(constraint_value(pulled))
        assert np.array_equal(_sum_matrix(pulled), np.zeros((dim, dim)))


@pytest.mark.parametrize(
    "spectrum",
    [[1, 1, 1], [-1, -1, -1], [1j, 1j, 1j], [-1j, -1j, -1j], [1, -1, 1j, -1j], [1], [-1]],
    ids=["I3", "-I3", "iI3", "-iI3", "diag(1,-1,i,-i)", "1", "-1"],
)
def test_zero_constrained_edge_spectra(spectrum):
    z = np.array(spectrum, dtype=complex)
    rep = zero_constrained_from(np.diag(z))
    assert np.array_equal(_sum_matrix(rep), np.zeros((len(z), len(z))))
    assert _is_positive_zero(constraint_value(rep))
    assert np.array_equal(rep.v, np.diag(-z.real + 1j * np.abs(z.imag)))


def test_zero_constrained_matches_the_scalar_loop():
    def scalar(z):
        return complex(-z.real, abs(z.imag))

    for seed in range(4):
        u = random_unitary(2 + seed, seed=seed)
        assert np.array_equal(zero_constrained_from(u).v, loop_calculus(u, scalar))


def test_zero_constrained_random_inputs():
    for seed in range(8):
        u = random_unitary(2 + seed % 5, seed=seed)
        rep = zero_constrained_from(u)
        assert unitarity_defect(rep.v) < 1e-9
        assert constraint_value(rep) < 1e-9
        assert np.array_equal(rep.u, u)
        assert rep.v.tobytes() == upper_fold_matrix(u).tobytes()


def test_zero_constrained_checks_u_before_decomposing(monkeypatch):
    def decomposed(w):
        raise AssertionError("a caller's matrix reached unitary_eig unchecked")

    monkeypatch.setattr(linalg, "unitary_eig", decomposed)
    with pytest.raises(NonUnitaryError, match="image of u is not unitary"):
        zero_constrained_from(1.5 * np.eye(3))
    with pytest.raises(ValueError, match="image of u has non-finite entries"):
        zero_constrained_from(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="image of u must be a square matrix"):
        zero_constrained_from(np.ones((2, 3)))


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

    # JSON true is a Python bool, hence an int, but not a dimension
    path.write_text('{"dim": true, "u": [[[1, 0]]], "v": [[[1, 0]]]}')
    with pytest.raises(ValueError, match="'dim'"):
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


def test_load_uses_the_constructor_tolerance(tmp_path):
    # The loader applies the constructor's UNITARY_TOL (1e-8): a defect of
    # 7e-8 is rejected, and a saved unitary pair loads bit for bit.
    path = tmp_path / "pair.json"
    rep = random_constrained(8, 4.0, seed=9)
    save_representation(rep, path)
    loaded = load_representation(path)
    assert loaded.u.tobytes() == rep.u.tobytes()
    assert loaded.v.tobytes() == rep.v.tobytes()

    scaled = (1.0 + 2.475e-8) * random_unitary(2, 3)
    assert 6.5e-8 < unitarity_defect(scaled) < 7.5e-8
    save_representation(Representation._unchecked(scaled, np.eye(2, dtype=complex)), path)
    with pytest.raises(ValueError, match="not unitary"):
        load_representation(path)
