"""Words, group-ring arithmetic, parsing, and canonical printing."""

import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constrep.freegroup import (
    MAX_EXPONENT,
    GroupRingElement,
    ParseError,
    Word,
    averaging_element,
    format_element,
    generator,
    parse_element,
    unit,
)


def test_reduce_cancels_adjacent_inverses():
    assert Word([("u", 1), ("u", -1), ("v", 1)]).letters == (("v", 1),)
    assert Word([("u", 1), ("v", 1), ("v", -1), ("u", 1)]).letters == (
        ("u", 1),
        ("u", 1),
    )
    assert Word([("u", 1), ("u", -1)]).letters == ()


@pytest.mark.parametrize(
    "syllable",
    [("w", 1), ("u", 1.0), ("u", True), ("v", MAX_EXPONENT + 1), ("u", -MAX_EXPONENT - 1)],
)
def test_word_rejects_invalid_syllables(syllable):
    with pytest.raises(ValueError):
        Word([("u", 1), syllable])


def test_word_drops_zero_powers():
    assert Word([("u", 0)]) == Word.identity()
    assert Word([("u", 1), ("v", 0), ("u", 1)]).syllables == (("u", 2),)
    assert len(Word([("u", MAX_EXPONENT), ("v", -MAX_EXPONENT)])) == 2 * MAX_EXPONENT


def test_word_multiplication_reduces():
    uv = Word([("u", 1), ("v", 1)])
    w = uv * Word([("v", -1), ("u", 1)])
    assert w == Word([("u", 1), ("u", 1)])
    assert str(w) == "u^2"


def test_word_inverse():
    w = Word([("u", 1), ("v", -1)])
    assert w.inverse() == Word([("v", 1), ("u", -1)])
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


def test_word_generator_sums():
    w = Word([("u", 1), ("u", 1), ("v", -1)])
    assert w.generator_sums() == (2, -1)
    assert Word.identity().generator_sums() == (0, 0)


def test_word_string_forms():
    assert str(Word.identity()) == "1"
    assert str(Word([("u", 1)])) == "u"
    assert str(Word([("v", -1), ("v", -1)])) == "v^-2"
    assert str(Word([("u", 1), ("v", -1), ("u", 1)])) == "u*v^-1*u"


def test_square_of_generator_plus_inverse():
    # hand oracle: (u + u^-1)^2 = u^2 + 2 + u^-2
    u = generator("u")
    a = u + generator("u", -1)
    expected = (
        generator("u") * generator("u")
        + GroupRingElement.from_scalar(2.0)
        + generator("u", -1) * generator("u", -1)
    )
    assert a * a == expected


def test_averaging_element_is_self_adjoint():
    x = averaging_element()
    assert x.adjoint() == x
    assert x.coefficient_l1() == 4.0


def test_adjoint_reverses_products():
    u = generator("u")
    v = generator("v")
    a = 2.0 * u + (1 + 2j) * v
    b = u * v - unit()
    assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_scalar_and_ring_arithmetic():
    u = generator("u")
    assert (u - u) == GroupRingElement({})
    assert 0.0 * u == GroupRingElement({})
    assert (u + u) == 2.0 * u
    assert (u**3) == u * u * u
    assert (u**0) == unit()


def test_parse_examples():
    u = generator("u")
    v = generator("v")
    inv_u = generator("u", -1)
    inv_v = generator("v", -1)
    assert parse_element("u") == u
    assert parse_element("2*u*v^-1 - i*u") == 2.0 * (u * inv_v) - 1j * u
    assert parse_element("u + u^-1 + v + v^-1") == averaging_element()
    assert parse_element("1") == unit()
    assert parse_element("-3") == GroupRingElement.from_scalar(-3.0)
    assert parse_element("(1+2i)*v") == (1 + 2j) * v
    assert parse_element("(1.5e-3 - 2i) * u^2") == (1.5e-3 - 2j) * (u * u)
    assert parse_element("i") == GroupRingElement.from_scalar(1j)
    assert parse_element("u*v*u^-2") == u * v * (inv_u**2)


def test_parse_whitespace_and_signs():
    assert parse_element(" - u + v ") == -generator("u") + generator("v")
    assert parse_element("+u") == generator("u")
    assert parse_element("2 - 1") == unit()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2u",
        "u^",
        "u^x",
        "* u",
        "u +",
        "w",
        "u^999999999999",
        "(1+2i",
        "2**u",
        "i*",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_element(text)


def test_parse_error_carries_position():
    for text, position in [
        ("u + w", 4),
        ("u^" + "9" * 5000, 2),  # more digits than int() converts
        ("v*u^-" + "9" * 5000, 5),
        ("u^65537", 2),
        ("1e400*u", 0),  # coefficients that overflow to inf
        ("u + " + "1" * 400 + "*v", 4),
        ("u - (1e400+0i)*v", 4),
        ("2 + 1e400i*v", 4),
        ("1e308*u + 1e308*u", 10),  # finite coefficients whose sum overflows
        ("-1e308i - 1e308i", 10),
    ]:
        with pytest.raises(ParseError) as info:
            parse_element(text)
        assert info.value.position == position, text
    assert parse_element("u^" + "0" * 5000 + "7") == parse_element("u^7")


def test_parse_merges_terms_as_repeated_addition():
    """Equal to adding the terms one by one: the same words in the same dict
    order, the same coefficient bits, zero sums dropped, and an overflowing
    merge reported at its term."""
    pieces = ["u", "2*v", "0*u", "(0-0i)*u", "(1-0i)*u", "0.5i*v", "u^-1*v^2", "1", "(0.25-3i)*u"]
    rng = random.Random(11)
    for _ in range(300):
        parts = [rng.choice(pieces) for _ in range(rng.randint(1, 9))]
        signs = [rng.choice("+-") for _ in parts]
        expected = parse_element(parts[0]) * (-1 if signs[0] == "-" else 1)
        for sign, part in zip(signs[1:], parts[1:]):
            expected = expected + parse_element(part) * (-1 if sign == "-" else 1)
        text = " ".join(f"{sign} {part}" for sign, part in zip(signs, parts))
        got = parse_element(text)
        assert [(w, repr(c)) for w, c in got.terms.items()] == [
            (w, repr(c)) for w, c in expected.terms.items()
        ], text
    assert list(parse_element("u + v - u + u").terms) == [Word([("v", 1)]), Word([("u", 1)])]
    with pytest.raises(ParseError) as info:
        parse_element("u + 1e308*v - u + 1e308*v")
    assert info.value.position == 18


def test_parse_builds_each_term_once(monkeypatch):
    # Adding term by term copied every earlier term at every step.
    sizes = []
    init = GroupRingElement.__init__

    def counting(self, terms=None):
        sizes.append(len(terms or ()))
        init(self, terms)

    monkeypatch.setattr(GroupRingElement, "__init__", counting)
    for n in (10, 100, 2000):
        sizes.clear()
        element = parse_element(" + ".join(f"{k}*u^{k}*v" for k in range(1, n + 1)))
        assert len(element.terms) == n
        assert sum(sizes) <= 4 * n


def test_format_canonical_order():
    x = averaging_element()
    assert format_element(x) == "u + u^-1 + v + v^-1"
    # Letter by letter: uuv < uvv and vuu < vvu.
    a = parse_element("v^2*u + v*u^2 + u*v^2 + u^2*v")
    assert format_element(a) == "u^2*v + u*v^2 + v*u^2 + v^2*u"
    assert format_element(GroupRingElement({})) == "0"
    assert format_element(unit()) == "1.0"


def test_long_runs_print_as_factors_that_parse():
    for text, printed in [
        ("u^65536*u", "u^65536*u"),
        ("u^65536*u^65536", "u^65536*u^65536"),
        ("2*v^-65536*v^-65536*v^-3", "2.0*v^-65536*v^-65536*v^-3"),
    ]:
        a = parse_element(text)
        assert format_element(a) == printed
        assert parse_element(format_element(a)) == a


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_words_and_elements_copy_and_pickle(clone):
    # u^65536*u merges into one run of power 65537, past the parser's cap.
    a = parse_element("u^65536*u - 2*v")
    b = clone(a)
    assert b == a
    assert list(b.terms.items()) == list(a.terms.items())
    assert [len(word) for word in b.terms] == [len(word) for word in a.terms] == [65537, 1]
    word = Word([("u", 2), ("v", -1)])
    assert clone(word) == word and len(clone(word)) == 3
    assert clone(Word.identity()).is_identity


def test_parse_cost_is_per_syllable():
    tracemalloc.start()
    try:
        a = parse_element("u^65536*v^-65536 + u")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert sorted(len(w) for w in a.terms) == [1, 2 * MAX_EXPONENT]
    assert parse_element("u^65536*u^-65536") == unit()


def test_format_coefficient_styles():
    u = generator("u")
    v = generator("v")
    assert format_element(-u) == "-u"
    assert format_element(2.0 * u - 3.0 * v) == "2.0*u - 3.0*v"
    assert format_element(1j * u) == "i*u"
    assert format_element(-1j * u) == "-i*u"
    assert format_element((1 + 2j) * u) == "(1.0+2.0i)*u"
    assert format_element(u * v - unit()) == "-1.0 + u*v"


# --------------------------------------------------------------------------
# property tests
# --------------------------------------------------------------------------

_letters = st.lists(
    st.tuples(st.sampled_from(["u", "v"]), st.sampled_from([1, -1])), max_size=6
)
# Runs of up to MAX_EXPONENT letters, whose merged runs print as several factors.
_long_runs = st.lists(
    st.tuples(st.sampled_from(["u", "v"]), st.integers(-MAX_EXPONENT, MAX_EXPONENT)), max_size=5
)
_words = st.one_of(_letters.map(Word), _long_runs.map(Word))
_coeffs = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=8.0, allow_nan=False, allow_infinity=False
)
_elements = st.dictionaries(_words, _coeffs, max_size=5).map(GroupRingElement)


def _terms_close(a, b, tol=1e-9):
    words = set(a.terms) | set(b.terms)
    return all(
        abs(a.terms.get(w, 0.0) - b.terms.get(w, 0.0)) <= tol for w in words
    )


@settings(deadline=None)
@given(_elements)
def test_print_parse_round_trip(a):
    assert parse_element(format_element(a)) == a


@settings(deadline=None)
@given(_elements, _elements, _elements)
def test_multiplication_associates(a, b, c):
    assert _terms_close((a * b) * c, a * (b * c))


@settings(deadline=None)
@given(_elements, _elements)
def test_adjoint_is_antimultiplicative(a, b):
    assert _terms_close((a * b).adjoint(), b.adjoint() * a.adjoint(), tol=1e-12)


@settings(deadline=None)
@given(_elements)
def test_adjoint_is_involutive(a):
    assert a.adjoint().adjoint() == a
    assert a.adjoint().coefficient_l1() == a.coefficient_l1()


@settings(deadline=None)
@given(_elements, _elements)
def test_addition_commutes(a, b):
    assert a + b == b + a
    assert a - a == GroupRingElement({})


# Letter-level reference: a word as its tuple of letters (generator, +-1),
# reduced by cancelling adjacent inverse pairs and ordered by length, then
# letter rank u < u^-1 < v < v^-1.
_RANK = {("u", 1): 0, ("u", -1): 1, ("v", 1): 2, ("v", -1): 3}


def _expand(syllables):
    return tuple((gen, 1 if p > 0 else -1) for gen, p in syllables for _ in range(abs(p)))


def _reference_reduce(letters):
    stack = []
    for gen, exp in letters:
        if stack and stack[-1] == (gen, -exp):
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


def _reference_key(letters):
    return len(letters), tuple(_RANK[letter] for letter in letters)


def _assert_maximal_runs(w):
    assert all(p != 0 for _, p in w.syllables)
    assert all(a[0] != b[0] for a, b in zip(w.syllables, w.syllables[1:]))
    assert len(w) == len(w.letters)


# Runs (generator, power) with |power| <= 5, zero included, given to Word
# unreduced, so neighbouring runs may merge or cancel.
_runs = st.lists(st.tuples(st.sampled_from(["u", "v"]), st.integers(-5, 5)), max_size=6)
_run_words = _runs.map(Word)


def test_word_syllables_examples():
    assert Word.identity().syllables == ()
    assert parse_element("u^3*v^-2*u").sorted_terms()[0][0].syllables == (
        ("u", 3),
        ("v", -2),
        ("u", 1),
    )
    assert (Word([("u", 1), ("v", 1)]) * Word([("v", 1), ("u", -1)])).syllables == (
        ("u", 1),
        ("v", 2),
        ("u", -1),
    )
    assert Word([("u", 2), ("v", 3), ("v", -3), ("u", -2), ("v", 1)]).syllables == (("v", 1),)


@settings(deadline=None)
@given(_runs)
def test_syllables_expand_to_the_letters(runs):
    w = Word(runs)
    assert w.letters == _reference_reduce(_expand(runs))
    _assert_maximal_runs(w)
    assert w.generator_sums() == (
        sum(e for g, e in w.letters if g == "u"),
        sum(e for g, e in w.letters if g == "v"),
    )


@settings(deadline=None)
@given(_run_words)
def test_inverse_reverses_and_negates_syllables(w):
    assert w.inverse().syllables == tuple((gen, -p) for gen, p in reversed(w.syllables))
    assert w.inverse().letters == tuple((gen, -e) for gen, e in reversed(w.letters))


@settings(deadline=None)
@given(_run_words, _run_words)
def test_product_merges_syllables_at_the_boundary(a, b):
    assert (a * b).letters == _reference_reduce(a.letters + b.letters)
    _assert_maximal_runs(a * b)


# Up to three runs of at most three letters: lists of these hold many pairs of
# equal length that share a first run, where the order is decided run by run.
_short_run_words = st.lists(
    st.tuples(st.sampled_from(["u", "v"]), st.integers(-3, 3)), max_size=3
).map(Word)


@settings(deadline=None, max_examples=400)
@given(st.lists(_short_run_words, min_size=2, max_size=16))
def test_sort_key_orders_as_the_letters(words):
    for a in words:
        for b in words:
            assert (a.sort_key() < b.sort_key()) == (
                _reference_key(a.letters) < _reference_key(b.letters)
            )
            assert (a.sort_key() == b.sort_key()) == (a == b)
