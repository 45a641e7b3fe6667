"""Constrained norm estimation: oracles, brackets, ascent, determinism, curves."""

import cmath
import copy
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from conftest import character, run_python

from constrep import linalg, optimize, representation
from constrep.freegroup import (
    GroupRingElement,
    Word,
    averaging_element,
    generator,
    parse_element,
)
from constrep.linalg import (
    MAX_DIM,
    NonUnitaryError,
    SpectralDecomposition,
    operator_norm,
    unitary_exponential,
)
from constrep.optimize import (
    NormCurve,
    OptimizerConfig,
    estimate_norm,
    norm_curve,
    one_dim_oracle,
    upper_bound,
)
from constrep.representation import (
    Representation,
    constraint_value,
    deformation_function,
    evaluate,
    letter_images,
    power_tables,
    random_constrained,
    retract_to,
)

SMALL = OptimizerConfig(dims=(1, 2), restarts=3, max_steps=120, seed=0)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(dims=())
    with pytest.raises(ValueError):
        OptimizerConfig(dims=(0, 2))
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_steps=0)
    # The constructor is the one rule: no truncation, no late TypeError.
    for bad in (
        {"dims": 4},
        {"dims": "12"},
        {"dims": [1.9]},
        {"dims": (True, 2)},
        {"max_steps": 2.5},
        {"max_steps": 2.7},
        {"restarts": "3"},
        {"seed": -1},
        {"seed": False},
    ):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)
    config = OptimizerConfig(dims=[np.int64(2), 1], max_steps=np.int64(7))
    assert config.dims == (2, 1)
    assert type(config.max_steps) is int and config.max_steps == 7
    # Every size is accepted up to its cap, and dims reads one entry past it.
    at_cap = tuple(range(MAX_DIM - optimize.MAX_DIMS + 1, MAX_DIM + 1))
    config = OptimizerConfig(
        dims=at_cap,
        restarts=optimize.MAX_RESTARTS,
        max_steps=optimize.MAX_STEPS,
    )
    assert config.dims == at_cap and len(at_cap) == optimize.MAX_DIMS
    # A repeated size would rerun the same seeded starts.
    for dims in ((2, 2), (1, 2, 1), (np.int64(4), 4)):
        with pytest.raises(ValueError, match="distinct"):
            OptimizerConfig(dims=dims)

    def sizes():
        yield from [1] * (optimize.MAX_DIMS + 1)
        raise AssertionError("read past the cap")

    with pytest.raises(ValueError, match="sizes"):
        OptimizerConfig(dims=sizes())


def _long_word_element(seed):
    """Seeded element with long syllables (|exponent| <= 16), repeated and
    inverse letters of both generators, and an identity-word term."""
    rng = np.random.default_rng(seed)

    def coeff():
        return complex(rng.standard_normal(), rng.standard_normal())

    def syllable(name, sign):
        return generator(name, sign) ** int(rng.integers(2, 17))

    terms = (
        generator("u") ** 16 * syllable("v", -1),
        syllable("v", 1) * syllable("u", -1) * syllable("v", 1),
        generator("u") * generator("v", -1) * generator("u"),
    )
    element = GroupRingElement.from_scalar(coeff())
    for term in terms:
        element = element + coeff() * term
    return element


def _exponential(h, scale):
    """exp(i * scale * H) for Hermitian H, decomposed as the ascent does."""
    return unitary_exponential(SpectralDecomposition(*np.linalg.eigh(h)), scale)


def _check_gradient_by_finite_differences(element, rep, eps=1e-6):
    _, left, right, tables = optimize._objective(element, rep)
    g_u, g_v = optimize._subgradient(element, rep, left, right, tables)
    assert np.linalg.norm(g_u - g_u.conj().T) < 1e-12
    assert np.linalg.norm(g_v - g_v.conj().T) < 1e-12

    dim = rep.dim
    rng = np.random.default_rng(5)
    for _ in range(4):
        h_u = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h_u = (h_u + h_u.conj().T) / 2.0
        h_v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h_v = (h_v + h_v.conj().T) / 2.0
        predicted = float(np.real(np.trace(h_u @ g_u) + np.trace(h_v @ g_v)))

        def shifted(sign):
            moved = Representation(
                _exponential(h_u, sign * eps) @ rep.u,
                _exponential(h_v, sign * eps) @ rep.v,
            )
            return optimize._objective(element, moved)[0]

        numeric = (shifted(+1.0) - shifted(-1.0)) / (2.0 * eps)
        assert abs(numeric - predicted) < 1e-6 * max(1.0, abs(predicted))


@pytest.mark.parametrize("dim", [1, 2, 4, 8], ids="d{}".format)
@pytest.mark.parametrize("seed", [0, 1], ids="seed{}".format)
def test_subgradient_matches_finite_differences(seed, dim):
    element = _long_word_element(seed)
    rep = random_constrained(dim, 4.0, seed=31 + seed)
    _check_gradient_by_finite_differences(element, rep)


@pytest.mark.parametrize("dim", [1, 2, 4, 8], ids="d{}".format)
def test_subgradient_matches_finite_differences_past_one_table(dim):
    # u^150 and v^-130 are longer than a power table (64 rows): each is
    # walked in three chunks, the last one short (22 and 2 letters). The
    # central difference's error grows like eps^2 k^3 with the syllable
    # length k, so the step is 1e-7 (at 1e-6 it reaches 3e-6 at d = 8).
    element = parse_element("(0.7+0.2i)*u^150*v^-130 - 0.4i*v^3*u^-70*v + u*v^-1 + 0.3")
    rep = random_constrained(dim, 4.0, seed=41)
    tables = power_tables(rep, element)
    assert all(len(table) == 65 for table in tables.values())
    _check_gradient_by_finite_differences(element, rep, eps=1e-7)


def test_subgradient_of_identity_only_element_is_zero():
    element = GroupRingElement.from_scalar(2.0 - 1.0j)
    rep = random_constrained(3, 2.0, seed=7)
    _, left, right, tables = optimize._objective(element, rep)
    g_u, g_v = optimize._subgradient(element, rep, left, right, tables)
    assert g_u.shape == g_v.shape == (3, 3)
    assert not g_u.any()
    assert not g_v.any()


def _geometric_step(step, accepted):
    """The d >= 2 step rule: times ``_STEP_DECAY`` after every proposal."""
    return step * optimize._STEP_DECAY


def _torus_step(step, accepted):
    """The d = 1 step rule: 1.5x after an accepted proposal, capped at
    ``_INITIAL_STEP``, and half after a rejected one."""
    return min(1.5 * step, optimize._INITIAL_STEP) if accepted else 0.5 * step


def _reference_ascent(element, mu, start, config):
    """The ascent loop with the direction and its eigendecompositions
    recomputed on every step and the step rule of the start's dimension;
    returns _ascend's 4-tuple and the number of rejected proposals."""
    next_step = _torus_step if start.dim == 1 else _geometric_step
    current = start
    value, left, right, tables = optimize._objective(element, current)
    history = [value]
    step = optimize._INITIAL_STEP
    steps, converged, rejected = 0, False, 0
    for k in range(1, config.max_steps + 1):
        g_u, g_v = optimize._subgradient(element, current, left, right, tables)
        scale = float(np.sqrt(np.linalg.norm(g_u) ** 2 + np.linalg.norm(g_v) ** 2))
        if scale < optimize._GRADIENT_FLOOR:
            steps, converged = k, True
            break
        proposal = Representation._unchecked(
            _exponential(g_u / scale, step) @ current.u,
            _exponential(g_v / scale, step) @ current.v,
        )
        proposal = retract_to(proposal, mu)
        new_value, new_left, new_right, new_tables = optimize._objective(element, proposal)
        accepted = new_value > value
        if accepted:
            current, value, left, right = proposal, new_value, new_left, new_right
            tables = new_tables
        else:
            rejected += 1
        steps = k
        step = next_step(step, accepted)
        history.append(value)
        if len(history) > 25 and history[-1] - history[-26] < optimize._STALL_TOLERANCE:
            converged = True
            break
    return (value, current, steps, converged), rejected


def _scalar_pair(z_u, z_v):
    """The 1 x 1 pair of two unit scalars, unchecked as the ascent builds it."""
    return Representation._unchecked(np.array([[z_u]]), np.array([[z_v]]))


def _reference_torus_ascent(element, mu, start, config, next_step=_torus_step):
    """The torus ascent with its direction recomputed on every step, each
    proposal's level taken from ``constraint_value`` of the 1 x 1 pair and
    its retraction from ``deformation_function``; returns _ascend's 4-tuple
    and the number of rejected proposals."""
    terms = optimize._torus_terms(element)
    start_value = optimize._objective(element, start)[0]
    value, point = optimize._torus_objective(terms, complex(start.u[0, 0]), complex(start.v[0, 0]))
    history = [value]
    step = optimize._INITIAL_STEP
    steps, converged, rejected, moved = 0, False, 0, False
    for k in range(1, config.max_steps + 1):
        g_u, g_v = optimize._torus_gradient(terms, point)
        scale = math.sqrt(g_u * g_u + g_v * g_v)
        if scale < optimize._GRADIENT_FLOOR:
            steps, converged = k, True
            break
        z_u = point[0] * cmath.rect(1.0, step * (g_u / scale))
        z_v = point[1] * cmath.rect(1.0, step * (g_v / scale))
        m = constraint_value(_scalar_pair(z_u, z_v))
        if m > mu:
            z_u, z_v = deformation_function(1.0 - mu / m)(np.array([z_u, z_v])).tolist()
        new_value, new_point = optimize._torus_objective(terms, z_u, z_v)
        accepted = new_value > value
        if accepted:
            point, value, moved = new_point, new_value, True
        else:
            rejected += 1
        steps = k
        step = next_step(step, accepted)
        history.append(value)
        if len(history) > 25 and history[-1] - history[-26] < optimize._STALL_TOLERANCE:
            converged = True
            break
    if moved:
        pair = _scalar_pair(point[0], point[1])
        value = optimize._objective(element, pair)[0]
        if value >= start_value:
            return (value, pair, steps, converged), rejected
    return (start_value, start, steps, converged), rejected


@pytest.mark.parametrize("dim", [1, 2, 4], ids="d{}".format)
@pytest.mark.parametrize("initial_step", [0.1, 0.3], ids="step{}".format)
@pytest.mark.parametrize("kind", ["long", "short"])
def test_ascent_matches_per_step_direction_bit_for_bit(kind, initial_step, dim, monkeypatch):
    # d = 1 ascends on the torus, d >= 2 on the unitary group.
    reference = _reference_torus_ascent if dim == 1 else _reference_ascent
    if kind == "long":
        element = _long_word_element(1)
    else:
        element = parse_element("u + i*v - u*v^-1")
    monkeypatch.setattr(optimize, "_INITIAL_STEP", initial_step)
    config = OptimizerConfig(max_steps=60)
    start = random_constrained(dim, 2.5, seed=10 + dim)
    (value, witness, steps, converged), rejected = reference(
        element, 2.5, start, config
    )
    got = optimize._ascend(element, 2.5, start, config)
    assert got[0] == value
    assert got[2] == steps
    assert got[3] == converged
    assert got[1].u.tobytes() == witness.u.tobytes()
    assert got[1].v.tobytes() == witness.v.tobytes()
    if kind == "long" and initial_step == 0.3:
        if dim == 1:
            assert 0 < rejected < steps  # the torus step grows and shrinks
        else:
            assert 2 * rejected >= steps  # mostly rejected proposals


def _one_dim_starts():
    """(element, mu, start, initial step): the oracle start and two Haar
    starts of 12 seeded elements, and the bit-for-bit test's d = 1 cases."""
    config = OptimizerConfig(dims=(1,), restarts=2)
    cases = []
    for seed in range(12):
        element = _syllable_element(np.random.default_rng(seed))
        mu = (0.5, 1.5, 2.5, 3.5)[seed % 4]
        for start in optimize._candidate_starts(element, mu, config, ()):
            cases.append((element, mu, start, (0.1, 0.3)[len(cases) % 2]))
    start = random_constrained(1, 2.5, seed=11)
    for element in (_long_word_element(1), parse_element("u + i*v - u*v^-1")):
        cases += [(element, 2.5, start, 0.1), (element, 2.5, start, 0.3)]
    return cases


def test_torus_ascent_matches_the_matrix_ascent(monkeypatch):
    """The same steps, stopping and rejections; every move to rounding.

    Each torus proposal is compared with the matrix proposal from the same
    point. Whole ascents are compared by their decisions only: near a
    maximum the unit direction g/|g| turns by about H dz/|g| for a point
    moved by dz, so once a start climbs there, a rounding difference
    between scalar and matrix arithmetic grows from step to step.
    """
    moves, proposals, decisions = optimize._torus_moves, [], []

    def logged_moves(element, mu):
        score, direction, propose, next_step = moves(element, mu)

        def logged_propose(point, direction, step):
            pair = propose(point, direction, step)
            proposals.append((point, step, pair))
            return pair

        def logged_next_step(step, accepted):
            decisions.append(accepted)
            return next_step(step, accepted)

        return score, direction, logged_propose, logged_next_step

    monkeypatch.setattr(optimize, "_torus_moves", logged_moves)
    moved = 0
    config = OptimizerConfig(max_steps=60)
    for element, mu, start, initial_step in _one_dim_starts():
        monkeypatch.setattr(optimize, "_INITIAL_STEP", initial_step)
        (_, _, steps, converged), rejected = _reference_ascent(element, mu, start, config)
        proposals.clear()
        decisions.clear()
        got = optimize._ascend(element, mu, start, config)
        assert got[2] == steps
        assert got[3] == converged
        assert decisions.count(False) == rejected
        score, direction, propose, _ = optimize._matrix_moves(element, mu)
        for point, step, (z_u, z_v) in proposals:
            value, matrix_point = score(_scalar_pair(point[0], point[1]))
            assert abs(abs(point[2]) - value) <= 1e-12 * max(1.0, value)
            pair = propose(matrix_point, direction(matrix_point), step)
            assert abs(pair.u[0, 0] - z_u) <= 1e-12
            assert abs(pair.v[0, 0] - z_v) <= 1e-12
        moved += got[1] is not start
    assert moved >= 20


def _check_one_direction_per_accepted_point(events, steps):
    """``events``: ("value", point, value) and ("direction", point, None) in
    call order, the start's value first. Returns the last accepted point and
    its value."""
    kind, current, best = events[0]
    assert kind == "value"
    stale, directions, accepted = True, 0, 0
    for kind, point, new_value in events[1:]:
        if kind == "direction":
            # Only at a newly accepted point, so never twice on one point.
            assert stale and point is current
            stale = False
            directions += 1
        else:
            assert not stale
            if new_value > best:
                current, best, stale = point, new_value, True
                accepted += 1
    assert directions == 1 + accepted - stale
    return current, best, accepted


def test_ascent_computes_direction_once_per_accepted_point(monkeypatch):
    subgradient, objective = optimize._subgradient, optimize._objective
    events = []

    def logged_subgradient(element, rep, left, right, tables):
        events.append(("direction", rep, None))
        return subgradient(element, rep, left, right, tables)

    def logged_objective(element, rep):
        result = objective(element, rep)
        events.append(("value", rep, result[0]))
        return result

    monkeypatch.setattr(optimize, "_subgradient", logged_subgradient)
    monkeypatch.setattr(optimize, "_objective", logged_objective)
    element = _long_word_element(1)
    monkeypatch.setattr(optimize, "_INITIAL_STEP", 0.3)
    config = OptimizerConfig(max_steps=60)
    for dim in (2, 4):
        events.clear()
        start = random_constrained(dim, 2.5, seed=10 + dim)
        value, witness, steps, _ = optimize._ascend(element, 2.5, start, config)
        assert events[0][1] is start
        current, best, accepted = _check_one_direction_per_accepted_point(events, steps)
        assert current is witness and best == value
        assert 2 * (steps - accepted) >= steps  # mostly rejected proposals


def test_torus_ascent_computes_direction_once_per_accepted_point(monkeypatch):
    gradient, objective = optimize._torus_gradient, optimize._torus_objective
    events = []

    def logged_gradient(terms, point):
        events.append(("direction", point, None))
        return gradient(terms, point)

    def logged_objective(terms, z_u, z_v):
        result = objective(terms, z_u, z_v)
        events.append(("value", result[1], result[0]))
        return result

    monkeypatch.setattr(optimize, "_torus_gradient", logged_gradient)
    monkeypatch.setattr(optimize, "_torus_objective", logged_objective)
    element = _long_word_element(1)
    monkeypatch.setattr(optimize, "_INITIAL_STEP", 0.3)
    config = OptimizerConfig(max_steps=60)
    start = random_constrained(1, 2.5, seed=11)
    value, witness, steps, _ = optimize._ascend(element, 2.5, start, config)
    assert events[0][1][:2] == (start.u[0, 0], start.v[0, 0])
    current, best, accepted = _check_one_direction_per_accepted_point(events, steps)
    # Both kinds occur, so a direction is reused after a rejection.
    assert 0 < accepted < steps
    assert (witness.u[0, 0], witness.v[0, 0]) == current[:2]
    assert abs(best - value) <= 1e-12 * value


def test_torus_gradient_is_the_subgradient_of_the_scalar_pair():
    # A syllable of 65536 letters amplifies rounding in both computations.
    cases = [(_long_word_element(0), 1e-12), (_long_word_element(1), 1e-12)]
    cases.append((parse_element("u^65536*v^-65536 + u"), 1e-9))
    for element, tol in cases:
        terms = optimize._torus_terms(element)
        for seed in range(10):
            rep = random_constrained(1, 4.0, seed=(seed, 1))
            _, left, right, tables = optimize._objective(element, rep)
            g_u, g_v = optimize._subgradient(element, rep, left, right, tables)
            want = np.array([g_u[0, 0].real, g_v[0, 0].real])
            _, point = optimize._torus_objective(terms, complex(rep.u[0, 0]), complex(rep.v[0, 0]))
            got = np.array(optimize._torus_gradient(terms, point))
            assert np.max(np.abs(got - want)) <= tol * np.linalg.norm(want)


def test_torus_level_is_the_constraint_value_bit_for_bit():
    rng = np.random.default_rng(12)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(1000, 2))
    antidiagonal = 0
    for k, (theta, phi) in enumerate(angles):
        z_u = cmath.rect(1.0, theta)
        if k % 4 == 0:
            z_v = -z_u.conjugate()  # the oracle's exact level-zero start
            antidiagonal += 1
        elif k % 4 == 1:
            z_v = complex(random_constrained(1, phi / 2.0, seed=k).v[0, 0])
        else:
            z_v = cmath.rect(1.0, phi)
        level = optimize._torus_level(z_u, z_v)
        want = constraint_value(_scalar_pair(z_u, z_v))
        assert np.float64(level).tobytes() == np.float64(want).tobytes()
    assert antidiagonal == 250


def test_torus_retraction_at_level_zero_lands_on_positive_zero():
    _, _, propose, _ = optimize._torus_moves(parse_element("u + 2*v"), 0.0)
    for seed in range(50):
        start = random_constrained(1, 4.0, seed=seed)
        point = (complex(start.u[0, 0]), complex(start.v[0, 0]))
        z_u, z_v = propose(point, (0.6, 0.8), 0.1)
        for level in (optimize._torus_level(z_u, z_v), constraint_value(_scalar_pair(z_u, z_v))):
            assert level == 0.0 and math.copysign(1.0, level) == 1.0
        assert abs(z_u.imag) == abs(z_v.imag) == 1.0


def test_torus_retraction_is_the_deformation_function_bit_for_bit():
    # Seeded unit points, the four axis points with either sign of zero in
    # each part, and points whose real part is -0.0.
    rng = np.random.default_rng(27)
    axes = [complex(a, b) for a in (1.0, -1.0, 0.0, -0.0) for b in (0.0, -0.0, 1.0, -1.0)]
    unit = [cmath.rect(1.0, a) for a in rng.uniform(0.0, 2.0 * math.pi, size=10_000)]
    points = axes + unit + [complex(-0.0, z.imag) for z in unit[:100]]
    # Levels m > mu, as propose meets them, where mu = 0 gives t = 1; and
    # t = 0, where the lower-half point 1 - i maps to 1 + 0i, not 1 - 0i.
    levels = [(0.0, 4.0), (0.0, 1e-300), (2.0, 4.0), (4.0 - 1e-15, 4.0), (4.0, 4.0)]
    levels += [(mu, float(rng.uniform(mu, 4.0))) for mu in rng.uniform(0.0, 4.0, size=6)]
    for mu, m in levels:
        t = 1.0 - mu / m
        want = deformation_function(t)(np.array(points))
        got = np.array([optimize._torus_retraction(z, 1.0 - t) for z in points])
        assert got.tobytes() == want.tobytes()
        if mu == 0.0:
            # Every point lands on +-i with real part +0.0 or -0.0, and the
            # level of any such pair is +0.0.
            assert all(w.real == 0.0 and abs(w.imag) == 1.0 for w in got)
            for w in got[:16]:
                level = optimize._torus_level(w, complex(-0.0, -1.0))
                assert level == 0.0 and math.copysign(1.0, level) == 1.0


def test_torus_ascent_ends_at_or_above_the_geometric_step_rule():
    # The oracle start sits within a grid cell of a local maximum: the
    # geometric rule's steps, 0.1 * 0.97^k > 0.047 over its first 25
    # proposals, overshoot it, while the torus rule halves until it climbs.
    config = OptimizerConfig(max_steps=60)
    higher = 0
    for seed in range(300):
        element = _syllable_element(np.random.default_rng((27, seed)))
        mu = (0.5, 1.5, 2.5, 3.5)[seed % 4]
        start = next(optimize._candidate_starts(element, mu, config, ()))
        (old, _, _, _), _ = _reference_torus_ascent(element, mu, start, config, _geometric_step)
        value = optimize._ascend(element, mu, start, config)[0]
        assert value >= old
        higher += value > old
    assert higher >= 250


def test_torus_ascent_stops_where_the_scalar_image_vanishes():
    element = parse_element("u*v - v*u")  # 0 at every 1-dimensional pair
    start = random_constrained(1, 2.0, seed=3)
    config = OptimizerConfig(max_steps=60)
    (value, _, steps, converged), _ = _reference_ascent(element, 2.0, start, config)
    assert (value, steps, converged) == (0.0, 1, True)
    assert optimize._ascend(element, 2.0, start, config) == (0.0, start, 1, True)


def test_one_dimensional_winner_is_its_recomputed_norm():
    config = OptimizerConfig(dims=(1,), restarts=2, max_steps=60)
    stepped = 0
    for seed in range(12):
        element = _syllable_element(np.random.default_rng(seed))
        result = estimate_norm(element, (0.5, 1.5, 2.5, 3.5)[seed % 4], config)
        assert result.dim_used == 1
        assert operator_norm(evaluate(result.witness, element)) == result.value
        stepped += result.steps > 0
    assert stepped >= 6


def test_torus_ascent_of_a_long_word_skips_the_matrix_walk(monkeypatch):
    calls = {"_objective": 0, "_subgradient": 0}
    for name in calls:
        original = getattr(optimize, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(optimize, name, counted)
    element = parse_element("u^65536*v^-65536 + u")
    start = random_constrained(1, 2.0, seed=4)
    value, witness, steps, converged = optimize._ascend(element, 2.0, start, OptimizerConfig(max_steps=20))
    assert steps == 20 and not converged and witness is not start
    assert calls["_subgradient"] == 0
    assert calls["_objective"] <= 2


def test_estimate_rejects_zero_element():
    with pytest.raises(ValueError):
        estimate_norm(parse_element("u - u"), 2.0, SMALL)


def test_estimate_unit_generator_is_one():
    for mu in (0.0, 2.0, 4.0):
        result = estimate_norm(generator("u"), mu, SMALL)
        assert abs(result.value - 1.0) < 1e-6


def test_estimate_averaging_element_tracks_constraint():
    x = averaging_element()
    for mu in (0.0, 1.0, 2.5, 4.0):
        result = estimate_norm(x, mu, SMALL)
        assert abs(result.value - mu) < 5e-2


def test_witness_realizes_value_and_is_feasible():
    element = parse_element("u + v")
    mu = 1.5
    result = estimate_norm(element, mu, SMALL)
    witness = result.witness
    assert constraint_value(witness) <= mu + 1e-8
    recomputed = operator_norm(evaluate(witness, element))
    assert recomputed == result.value
    assert witness.dim == result.dim_used


def test_estimate_is_deterministic():
    # One closed and one open bracket: repeated runs agree byte for byte.
    for text, mu in (("2*u - v + u*v", 2.0), ("u + i*v - u*v^-1", 1.0)):
        element = parse_element(text)
        first = estimate_norm(element, mu, SMALL)
        second = estimate_norm(element, mu, SMALL)
        assert first.value == second.value
        assert first.upper == second.upper
        assert first.restart_index == second.restart_index
        assert first.steps == second.steps
        assert first.converged == second.converged
        assert first.witness.u.tobytes() == second.witness.u.tobytes()
        assert first.witness.v.tobytes() == second.witness.v.tobytes()


def test_estimate_checks_its_witness(monkeypatch):
    # Ascent steps build pairs without validation; a witness that left the
    # unitary group is caught once, when the estimate returns.
    original = optimize.unitary_exponential

    def inflated(h, scale=1.0):
        return 1.01 * original(h, scale)

    monkeypatch.setattr(optimize, "unitary_exponential", inflated)
    config = OptimizerConfig(dims=(2,), restarts=1, max_steps=20, seed=0)
    with pytest.raises(NonUnitaryError):
        estimate_norm(parse_element("u + i*v - u*v^-1"), 4.0, config)


def test_estimate_checks_unitarity_once_per_witness_image(monkeypatch):
    # Matrices are checked where they enter; the Haar start, the retracted
    # proposals and their eigendecompositions are not re-checked.
    calls = []
    original = linalg.unitarity_defect

    def counting(w):
        calls.append(w.shape)
        return original(w)

    for module in (linalg, representation, optimize):
        monkeypatch.setattr(module, "unitarity_defect", counting, raising=False)
    deforms = []
    original_deform = representation.deform

    def counting_deform(rep, t):
        deforms.append(t)
        return original_deform(rep, t)

    monkeypatch.setattr(representation, "deform", counting_deform)
    config = OptimizerConfig(dims=(2,), restarts=1, max_steps=30, seed=0)
    est = estimate_norm(parse_element("u*v^2 - v^2*u + u^-1*v"), 0.5, config)
    assert est.dim_used == 2 and est.steps > 0
    assert len(deforms) > 2
    assert calls == [(2, 2), (2, 2)]


@pytest.mark.parametrize(
    "terms",
    [{"u": float("nan")}, {"u": 1e308, "v": 1e308}, {"u": complex(1.5e308, 1.5e308)}],
    ids=["nan", "l1_overflow", "modulus_overflow"],
)
def test_element_with_non_finite_l1_norm_is_rejected_before_any_grid(terms, monkeypatch):
    def grid(element):
        raise AssertionError("an oracle grid was built")

    monkeypatch.setattr(optimize, "_oracle_grid", grid)
    element = GroupRingElement({Word([(g, 1)]): c for g, c in terms.items()})
    with pytest.raises(ValueError, match="finite l1 norm"):
        estimate_norm(element, 1.0, OptimizerConfig(dims=(1, 2), restarts=1, max_steps=5))
    with pytest.raises(ValueError, match="finite l1 norm"):
        upper_bound(element, 1.0)
    with pytest.raises(ValueError, match="finite l1 norm"):
        one_dim_oracle(element, 1.0)
    with pytest.raises(TypeError):
        upper_bound("u", 1.0)


def test_one_dim_oracle_on_averaging_element():
    x = averaging_element()
    for mu in (0.5, 1.5, 2.5, 3.0, 3.5):
        assert abs(one_dim_oracle(x, mu) - mu) <= 2e-2
    # mu = 0 uses the exact zero-constraint curve
    assert one_dim_oracle(x, 0.0) <= 1e-10


def test_one_dim_oracle_fallback_curve():
    # at constraint level 0 the scan mask is empty and the exact curve
    # phi = pi - theta applies: |e^(i theta) + e^(i (pi - theta))| peaks at 2
    a = parse_element("u + v")
    value = one_dim_oracle(a, 0.0)
    assert 2.0 - 2e-2 <= value <= 2.0 + 1e-9


def test_one_dim_oracle_argmax_is_feasible():
    x = averaging_element()
    for mu in (0.5, 2.0, 3.5):
        value, theta, phi = optimize._oracle_scan(x, mu)
        level = abs(2.0 * np.cos(theta) + 2.0 * np.cos(phi))
        assert level <= mu + 1e-9
        assert abs(value - level) < 1e-12  # for x the value equals the level


def _syllable_element(rng, terms=None):
    """``terms`` (default 2-4) terms of 1-3 alternating syllables with |exponent| <= 16."""
    element = GroupRingElement({})
    for _ in range(int(rng.integers(2, 5)) if terms is None else terms):
        first = int(rng.integers(0, 2))
        term = GroupRingElement.from_scalar(1.0)
        for s in range(int(rng.integers(1, 4))):
            letter = generator("uv"[(first + s) % 2], int(rng.choice((-1, 1))))
            term = term * letter ** int(rng.integers(1, 17))
        coeff = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        element = element + coeff * term
    return element


def _identity_first_evaluate(rep, element):
    """evaluate with every word's product started from the identity matrix."""
    images = letter_images(rep)
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for word, coeff in element.terms.items():
        mat = np.eye(rep.dim, dtype=complex)
        for letter in word.letters:
            mat = mat @ images[letter]
        out = out + coeff * mat
    return out


def _letter_word_element(rng):
    """2-4 terms of 1-6 letters whose neighbours belong to different
    generators, so every syllable has power +-1."""
    element = GroupRingElement({})
    for _ in range(int(rng.integers(2, 5))):
        first = int(rng.integers(0, 2))
        term = GroupRingElement.from_scalar(1.0)
        for s in range(int(rng.integers(1, 7))):
            term = term * generator("uv"[(first + s) % 2], int(rng.choice((-1, 1))))
        element = element + complex(rng.standard_normal(), rng.standard_normal()) * term
    return element


def test_evaluate_equals_the_identity_first_products():
    """Bit for bit where every syllable has power +-1; within rounding otherwise.

    A word of single letters is still multiplied out letter by letter from
    its first letter's image, so x, the averaging element and such words
    match the loop exactly. A longer syllable W^k is read from a power table
    filled by doubling (W^3 = W (W W), not (W W) W), so its products are
    grouped differently and agree only to rounding: within
    8 * letters * eps * sum |coeff| for unitary images.
    """
    x = averaging_element()
    for dim in (1, 2, 4, 8):
        rep = random_constrained(dim, 4.0, seed=(99, dim))
        for e in (x, x * 0.5 - 1.0, parse_element("u*v^-1*u - 2i*v*u")):
            assert np.array_equal(evaluate(rep, e), _identity_first_evaluate(rep, e))

    def check_rounding(rep, e):
        letters = max(len(w) for w in e.terms)
        error = np.max(np.abs(evaluate(rep, e) - _identity_first_evaluate(rep, e)))
        assert error <= 8 * letters * np.finfo(float).eps * e.coefficient_l1()

    for seed in range(20):
        rng = np.random.default_rng(seed)
        single, element = _letter_word_element(rng), _syllable_element(rng)
        assert all(abs(p) == 1 for w in single.terms for _, p in w.syllables)
        for dim in (1, 2, 4, 8):
            rep = random_constrained(dim, 4.0, seed=(seed, dim))
            for e in (single, single + 1.5):  # with and without the empty word
                assert np.array_equal(evaluate(rep, e), _identity_first_evaluate(rep, e))
            check_rounding(rep, element)
            check_rounding(rep, element + 1.5)
    # Powers above 64 come from the table's last row and a remainder row.
    rep = random_constrained(4, 4.0, seed=3)
    for text in ("u^150", "v^-130*u^64", "u^-65*v^128 + 2*u^3"):
        check_rounding(rep, parse_element(text))


def _reference_subgradient(element, rep, left, right, tables):
    """_subgradient as it summed every letter kind, a kind with no single
    letter included: reshaped empty lists and a (d, 0) @ (0, d) product."""
    images = letter_images(rep)
    pieces = {letter: ([], []) for letter in images}
    chunk_sums = dict.fromkeys(images)
    for word, coeff in element.terms.items():
        steps = []
        for gen, power in word.syllables:
            letter, k = (gen, 1 if power > 0 else -1), abs(power)
            if k == 1:
                steps.append((letter, None, 1))
                continue
            table = tables[letter]
            t = len(table) - 1
            steps.extend([(letter, table, t)] * (k // t))
            if k % t:
                steps.append((letter, table, k % t))
        rows = [coeff * left.conj()]
        for letter, table, n in steps[:-1]:
            rows.append(rows[-1] @ (images[letter] if table is None else table[n]))
        col = right
        for (letter, table, n), row in zip(reversed(steps), reversed(rows)):
            if table is None:
                pieces[letter][0].append(col)
                pieces[letter][1].append(row)
                col = images[letter] @ col
                continue
            chunk_cols = table[n::-1] @ col
            piece = chunk_cols[1:].T @ (row @ table[:n])
            total = chunk_sums[letter]
            chunk_sums[letter] = piece if total is None else total + piece
            col = chunk_cols[0]

    def summed(letter):
        cols, rows = pieces[letter]
        total = np.reshape(cols, (-1, rep.dim)).T @ np.reshape(rows, (-1, rep.dim))
        if chunk_sums[letter] is not None:
            total = total + chunk_sums[letter]
        return total

    def direction(gen):
        c = images[(gen, 1)] @ summed((gen, 1)) - summed((gen, -1)) @ images[(gen, -1)]
        return 0.5j * (c - c.conj().T)

    return direction("u"), direction("v")


def test_subgradient_skipping_empty_letter_kinds_is_bitwise_the_reference():
    """Compared as bytes, so signed zeros count too. The elements cover
    every letter kind both with and without single-letter pieces; real
    images make exact zeros, where a chunk sum's -0.0 must become +0.0."""
    elements = [
        parse_element("u^2 - v^3"),  # no single letter
        parse_element("u^2*v^-3 + (0.5-1i)*v^5*u^-7"),
        parse_element("u*v^2 - 2i*u^-3*v^-1 + 0.25"),  # single u and v^-1 only
        parse_element("(1-2i)*u^-1*v^3*u^-1 + v*u^-5"),  # single u^-1 and v only
    ]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        elements += [_long_word_element(seed), _syllable_element(rng), _letter_word_element(rng)]
    kinds = [
        {(g, p) for w in e.terms for g, p in w.syllables if abs(p) == 1} for e in elements
    ]
    for letter in (("u", 1), ("u", -1), ("v", 1), ("v", -1)):
        assert any(letter in k for k in kinds) and any(letter not in k for k in kinds)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    real_pairs = [
        Representation(swap, np.diag([-1.0 + 0j, 1.0])),
        Representation(np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex), swap),
    ]
    for index, element in enumerate(elements):
        reps = [random_constrained(dim, 4.0, seed=(index, dim)) for dim in (1, 2, 4)]
        for rep in reps + real_pairs:
            _, left, right, tables = optimize._objective(element, rep)
            got = optimize._subgradient(element, rep, left, right, tables)
            want = _reference_subgradient(element, rep, left, right, tables)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert g.tobytes() == w.tobytes()


def test_one_subgradient_of_a_long_word_is_small():
    # 131073 letters in three syllables: one table of 65 d x d matrices per
    # letter and one row vector per 64-letter chunk.
    element = parse_element("u^65536*v^-65536 + u")
    rep = random_constrained(8, 4.0, seed=2)
    _, left, right, tables = optimize._objective(element, rep)
    tracemalloc.start()
    try:
        g_u, g_v = optimize._subgradient(element, rep, left, right, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert np.all(np.isfinite(g_u)) and np.all(np.isfinite(g_v))


def _reference_oracle(element, mu):
    """The oracle as a loop over terms, one n x n broadcast per term."""
    terms = element.sorted_terms()
    grid_n = 720
    theta = 2.0 * np.pi * np.arange(grid_n) / grid_n
    phi = np.pi - theta
    curve = np.zeros(grid_n, dtype=complex)
    total = np.zeros((grid_n, grid_n), dtype=complex)
    for word, c in terms:
        p, q = word.generator_sums()
        curve += c * np.exp(1j * (p * theta + q * phi))
        total += c * np.exp(1j * p * theta)[:, None] * np.exp(1j * q * theta)[None, :]
    best = float(np.max(np.abs(curve)))
    cos_t = 2.0 * np.cos(theta)
    feasible = np.abs(cos_t[:, None] + cos_t[None, :]) <= mu
    if feasible.any():
        best = max(best, float(np.max(np.abs(total)[feasible])))
    return best


def test_oracle_matches_per_term_reference():
    assert optimize.ORACLE_GRID == 720
    for seed in range(20):
        element = _syllable_element(np.random.default_rng(seed))
        l1 = element.coefficient_l1()
        for mu in (0.0, 0.5, 2.0, 3.5, 4.0):
            value, theta, phi = optimize._oracle_scan(element, mu)
            assert abs(value - _reference_oracle(element, mu)) <= 1e-12 * l1
            assert one_dim_oracle(element, mu) == value
            image = evaluate(character(theta, phi), element)
            assert abs(abs(image[0, 0]) - value) <= 1e-12 * l1
            assert abs(2.0 * np.cos(theta) + 2.0 * np.cos(phi)) <= mu + 1e-12


def _two_product_oracle(element, mu):
    """The scan as one masked 720 x 720 grid per call, in natural angle order."""
    terms = element.sorted_terms()
    if not terms:
        return 0.0, 0.0, 0.0
    coeffs = np.array([coeff for _, coeff in terms])
    p, q = np.array([word.generator_sums() for word, _ in terms]).T
    theta = 2.0 * np.pi * np.arange(720) / 720
    phi = np.pi - theta
    curve = np.abs(np.exp(1j * (np.outer(theta, p) + np.outer(phi, q))) @ coeffs)
    i = int(np.argmax(curve))
    best = (float(curve[i]), float(theta[i]), float(phi[i]))
    cos_t = 2.0 * np.cos(theta)
    feasible = np.abs(cos_t[:, None] + cos_t[None, :]) <= mu
    if feasible.any():
        grid = (np.exp(1j * np.outer(theta, p)) * coeffs) @ np.exp(1j * np.outer(q, theta))
        magnitude = np.abs(grid)
        magnitude[~feasible] = -1.0
        i, j = divmod(int(np.argmax(magnitude)), 720)
        if float(magnitude[i, j]) > best[0]:
            best = (float(magnitude[i, j]), float(theta[i]), float(theta[j]))
    return best


def _grid_levels(count):
    """``count`` exact values of |2cos(theta_i) + 2cos(theta_j)| on the grid, evenly picked."""
    theta = 2.0 * np.pi * np.arange(720) / 720
    c = 2.0 * np.cos(theta)
    levels = np.unique(np.abs(c[:, None] + c[None, :]))
    return [float(m) for m in levels[np.linspace(0, len(levels) - 1, count).astype(int)]]


_NAMED_ORACLE_ELEMENTS = ("u + u^-1 + v + v^-1", "u*v - v*u", "u + v", "u - u^-1", "2")


def test_oracle_is_bitwise_the_two_product_scan():
    elements = [_syllable_element(np.random.default_rng(seed)) for seed in range(20)]
    elements += [parse_element(text) for text in _NAMED_ORACLE_ELEMENTS]
    # Sums of 20-40 terms: every block product sums more terms.
    elements += [
        _syllable_element(np.random.default_rng(seed), terms)
        for seed, terms in zip(range(100, 104), (20, 27, 33, 40))
    ]
    x = elements[20]
    pairs = [(e, mu) for e in elements for mu in (0.0, 1e-12, 1e-9, 0.5, 2.0, 3.999, 4.0)]
    # Exact grid levels and their neighbours, where the mask flips by one ulp;
    # each level is checked on x and on one other element.
    triples = [
        (float(np.nextafter(level, -np.inf)), level, min(float(np.nextafter(level, np.inf)), 4.0))
        for level in _grid_levels(30)
    ]
    pairs += [(x, mu) for triple in triples for mu in triple]
    pairs += [(elements[k % 20], mu) for k, triple in enumerate(triples) for mu in triple]
    # A, B, A: a grid kept for the wrong element would show on the second A.
    a, b = elements[0], elements[21]
    pairs += [(a, 2.0), (b, 2.0), (a, 2.0), (b, 0.5), (a, 0.5)]
    for element, mu in pairs:
        assert optimize._oracle_scan(element, mu) == _two_product_oracle(element, mu)


def test_feasible_columns_are_the_mask_in_cosine_order():
    theta = 2.0 * np.pi * np.arange(720) / 720
    c = 2.0 * np.cos(theta)
    order = np.argsort(c, kind="stable")
    assert np.array_equal(order, optimize._oracle_axes()[1])
    columns = np.arange(720)
    # At the exact grid levels and their neighbours a search on limit - c_r
    # miscounts rows by rounding, and the one-column steps correct them.
    levels = [
        mu
        for level in _grid_levels(30)
        for mu in (float(np.nextafter(level, -np.inf)), level, min(float(np.nextafter(level, np.inf)), 4.0))
    ]
    for mu in (0.0, 0.5, 2.0, 4.0, *levels):
        mask = (np.abs(c[:, None] + c[None, :]) <= mu)[np.ix_(order, order)]
        lo, hi = optimize._feasible_columns(mu)
        ranges = (columns >= lo[:, None]) & (columns < hi[:, None])
        assert np.array_equal(mask, ranges)


def test_curve_levels_equal_separate_estimates():
    x = averaging_element()
    other = _syllable_element(np.random.default_rng(3))
    grid = np.arange(0.0, 4.0 + 1e-12, 1.0)
    curve = norm_curve(x, grid, SMALL)
    pool = []
    for mu, from_curve in zip(grid, curve.estimates):
        optimize._oracle_scan(other, 2.0)  # the level starts from another element's grid
        alone = estimate_norm(x, mu, SMALL, pool=tuple(pool))
        pool.append(alone.witness)
        for field in ("value", "restart_index", "steps", "converged"):
            assert getattr(alone, field) == getattr(from_curve, field)
        assert alone.witness.u.tobytes() == from_curve.witness.u.tobytes()
        assert alone.witness.v.tobytes() == from_curve.witness.v.tobytes()


def test_import_builds_no_oracle_grid():
    code = (
        "import numpy as np, constrep\n"
        "from constrep import optimize\n"
        "big = [name for name, value in vars(optimize).items()\n"
        "       if isinstance(value, np.ndarray) and value.size > optimize.ORACLE_GRID]\n"
        "assert not big, big\n"
        "assert optimize._oracle_slot is None\n"
        "assert optimize._oracle_magnitude is None\n"
        "assert optimize._oracle_axes.cache_info().currsize == 0\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_new_element_scan_reuses_the_grid_buffer():
    optimize._oracle_scan(averaging_element(), 2.0)
    buffer = optimize._oracle_magnitude
    element = _syllable_element(np.random.default_rng(5))
    tracemalloc.start()
    try:
        optimize._oracle_scan(element, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A fresh 720 x 720 complex product and its magnitude would be 12 MB.
    assert peak < 1 << 20, peak
    assert optimize._oracle_magnitude is buffer
    assert optimize._oracle_slot[2] is buffer


def test_one_dim_oracle_checks_its_arguments():
    with pytest.raises(TypeError):
        one_dim_oracle("u + v", 1.0)
    with pytest.raises(ValueError):
        one_dim_oracle(averaging_element(), 4.5)


def test_averaging_element_bracket_is_exact_at_zero():
    # the antidiagonal start v = -conj(u) cancels the generator sum exactly
    result = estimate_norm(averaging_element(), 0.0)
    assert result.value == 0.0 <= result.upper
    assert constraint_value(result.witness) == 0.0


def test_estimate_dominates_oracle():
    element = parse_element("u + i*v - u*v^-1")
    for mu in (1.0, 3.0):
        floor = one_dim_oracle(element, mu)
        result = estimate_norm(element, mu, SMALL)
        assert result.value >= floor - 1e-9


def test_norm_curve_monotone_and_shared_pool():
    x = averaging_element()
    grid = np.arange(0.0, 4.0 + 1e-12, 1.0)
    curve = norm_curve(x, grid, SMALL)
    assert isinstance(curve, NormCurve)
    values = np.asarray(curve.values)
    assert values.shape == (5,)
    assert np.all(np.diff(values) >= 0.0)
    assert np.max(np.abs(values - grid)) < 5e-2
    for mu, estimate in zip(curve.grid, curve.estimates):
        assert constraint_value(estimate.witness) <= mu + 1e-8


def test_norm_curve_other_element_is_monotone_above_oracle():
    a = parse_element("u + v")
    curve = norm_curve(a, [1.0, 2.0], SMALL)
    assert np.all(np.diff(curve.values) >= 0.0)
    for mu, value in zip(curve.grid, curve.values):
        assert value >= one_dim_oracle(a, mu) - 1e-9


def test_norm_curve_deep_copies_and_pickles():
    curve = norm_curve(parse_element("u^65536*u - 2*v"), [1.0, 2.0], SMALL)
    for clone in (copy.deepcopy(curve), pickle.loads(pickle.dumps(curve))):
        assert clone.element == curve.element
        assert clone.grid == curve.grid and clone.values == curve.values
        for old, new in zip(curve.estimates, clone.estimates):
            assert np.array_equal(new.witness.u, old.witness.u)
            assert np.array_equal(new.witness.v, old.witness.v)


def test_norm_curve_requires_ascending_grid():
    x = averaging_element()
    with pytest.raises(ValueError):
        norm_curve(x, [2.0, 1.0], SMALL)
    with pytest.raises(ValueError):
        norm_curve(x, [], SMALL)
    with pytest.raises(ValueError):
        norm_curve(x, [3.0, 5.0], SMALL)


def test_restart_index_identifies_candidate():
    x = averaging_element()
    result = estimate_norm(x, 4.0, SMALL)
    # candidate 0 is the one-dimensional oracle start, which is exact at 4
    assert result.restart_index == 0
    assert result.dim_used == 1


# --------------------------------------------------------------------------
# Certified upper bounds
# --------------------------------------------------------------------------


def _sphere(n):
    """chi_n: the sum of all reduced words of length n, enumerated directly."""
    letters = (("u", 1), ("u", -1), ("v", 1), ("v", -1))
    words = {
        Word(seq)
        for seq in itertools.product(letters, repeat=n)
        if len(Word(seq)) == n
    }
    assert len(words) == (1 if n == 0 else 4 * 3 ** (n - 1))
    return GroupRingElement({word: 1 for word in words})


def test_sphere_sums_satisfy_recurrence():
    x = averaging_element()
    assert _sphere(1) == x
    assert x * x == _sphere(2) + 4
    for n in range(2, 5):
        assert x * _sphere(n) == _sphere(n + 1) + 3 * _sphere(n - 1)


def test_upper_bound_closed_forms():
    x = averaging_element()
    for mu in (0.0, 0.5, 1.0, 2.5, 3.5, 4.0):
        for k in range(1, 5):
            assert upper_bound(x**k, mu) == pytest.approx(mu**k, rel=1e-12, abs=1e-12)
        assert upper_bound(x * x - 4, mu) == pytest.approx(max(4.0, mu * mu - 4.0), rel=1e-12)
    for mu in (1.0, 2.5, 3.5):
        result = estimate_norm(x * x - 4, mu)
        assert result.upper == upper_bound(x * x - 4, mu)
        assert result.value >= result.upper - optimize._STALL_TOLERANCE
        assert result.gap <= optimize._STALL_TOLERANCE
        assert result.converged


def _uncached_upper_bound(element, mu):
    """upper_bound with the radial polynomial and its critical points rebuilt per call."""
    bound = float(element.coefficient_l1())
    coeffs = optimize._radial_coefficients(element)
    if coeffs is not None:
        q = optimize._x_polynomial(coeffs)
        slope = np.polyder(np.polymul(q, q.conj()).real)
        points = np.concatenate(([-mu, mu], np.clip(np.roots(slope).real, -mu, mu)))
        bound = min(bound, float(np.max(np.abs(np.polyval(q, points)))))
    return bound


def test_upper_bound_equals_the_uncached_formula():
    x = averaging_element()
    other = parse_element("u*v + 1")
    for element in [x**k for k in range(1, 5)] + [x * x - 4]:
        for mu in _grid_levels(30):
            # Radial, non-radial, another radial, radial: the cached entry is
            # evicted and rebuilt.
            for e in (element, other, x * x - 4, element):
                assert upper_bound(e, mu) == _uncached_upper_bound(e, mu)
    # Along one element's levels q and its critical points are built once.
    optimize._radial_polynomial.cache_clear()
    for mu in _grid_levels(30):
        upper_bound(x**3, mu)
    assert optimize._radial_polynomial.cache_info().misses == 1


def test_upper_bound_is_l1_for_non_radial_elements():
    chi2 = _sphere(2)
    assert optimize._radial_coefficients(chi2) == [0j, 0j, 1 + 0j]
    dropped = GroupRingElement(dict(list(chi2.terms.items())[1:]))
    perturbed = chi2 + GroupRingElement.from_word(next(iter(chi2.terms)), 1e-12)
    for element in (dropped, perturbed, generator("u"), parse_element("u*v + 1")):
        assert optimize._radial_coefficients(element) is None
        assert upper_bound(element, 2.0) == element.coefficient_l1()
    # Long words cost nothing to reject: no 3^(n-1) is formed for n = 2^16.
    assert optimize._radial_coefficients(parse_element("u^65536 + v")) is None


def _random_element(rng):
    """A random polynomial in x (radial) or a random sum of short words."""
    if rng.integers(2):
        x = averaging_element()
        out = GroupRingElement({})
        for k in range(int(rng.integers(1, 4))):
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            out = out + coeff * x**k
        return out
    letters = (("u", 1), ("u", -1), ("v", 1), ("v", -1))
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        seq = [letters[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 4)))]
        terms[Word(seq)] = complex(rng.standard_normal(), rng.standard_normal())
    return GroupRingElement(terms)


def test_upper_bound_dominates_estimates():
    config = OptimizerConfig(dims=(1, 2), restarts=2, max_steps=60, seed=0)
    radial = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        element = _random_element(rng)
        if element.is_zero:
            continue
        mu = float(rng.uniform(0.0, 4.0))
        result = estimate_norm(element, mu, config)
        assert result.upper == upper_bound(element, mu)
        assert result.upper <= element.coefficient_l1()
        assert result.upper >= result.value - 1e-12 * max(1.0, result.value)
        radial += optimize._radial_coefficients(element) is not None
    assert radial >= 5


# --------------------------------------------------------------------------
# Stopping at a closed bracket
# --------------------------------------------------------------------------


def test_open_bracket_runs_every_start():
    element = parse_element("u + i*v - u*v^-1")
    mu = 1.0
    pool = (random_constrained(2, 0.5, seed=3),)
    result = estimate_norm(element, mu, SMALL, pool=pool)
    assert result.value < result.upper - optimize._STALL_TOLERANCE

    starts = list(optimize._candidate_starts(element, mu, SMALL, pool))
    assert len(starts) == 1 + len(pool) + len(SMALL.dims) * SMALL.restarts
    runs = [optimize._ascend(element, mu, start, SMALL) for start in starts]
    best = max(range(len(runs)), key=lambda i: (runs[i][0], -i))
    value, witness, steps, converged = runs[best]
    assert result.value == value
    assert result.restart_index == best
    assert result.steps == steps
    assert result.converged == converged
    assert result.witness.u.tobytes() == witness.u.tobytes()
    assert result.witness.v.tobytes() == witness.v.tobytes()


def test_closed_bracket_builds_no_fresh_start(monkeypatch):
    calls = []
    original = optimize.random_constrained

    def counting(dim, mu, seed):
        calls.append(dim)
        return original(dim, mu, seed=seed)

    monkeypatch.setattr(optimize, "random_constrained", counting)
    result = estimate_norm(averaging_element(), 2.0)
    assert calls == []
    assert result.restart_index == 0
    assert result.steps == 0
    assert result.converged


def test_oracle_start_closes_an_off_grid_bracket(monkeypatch):
    # |u + c v| reaches 2 = l1 where theta - phi = arg c = 0.927 rad, which
    # is no multiple of the grid's half degree: the oracle start is 1.3e-6
    # short, and must climb to within _STALL_TOLERANCE with no fresh start.
    calls = []
    original = optimize.random_constrained

    def counting(dim, mu, seed):
        calls.append(dim)
        return original(dim, mu, seed=seed)

    monkeypatch.setattr(optimize, "random_constrained", counting)
    element = parse_element("u + (0.6+0.8i)*v")
    config = OptimizerConfig()
    for mu in (0.5, 2.0):
        assert one_dim_oracle(element, mu) < upper_bound(element, mu) - 1e-6
        result = estimate_norm(element, mu, config)
        assert result.restart_index == 0 and result.steps > 0
        assert result.gap <= optimize._STALL_TOLERANCE
    assert calls == []


def test_pool_witness_wins_after_bracket_closes(monkeypatch):
    # A wide tolerance closes the bracket at the oracle start; the pool
    # witness sits exactly on the level and must still be scored, unstepped.
    x = averaging_element()
    mu = 0.9
    monkeypatch.setattr(optimize, "_STALL_TOLERANCE", 0.1)
    config = OptimizerConfig()
    witness = character(math.acos(0.45), math.pi / 2)
    pool_value = operator_norm(evaluate(witness, x))
    assert one_dim_oracle(x, mu) < pool_value <= mu + 1e-12
    result = estimate_norm(x, mu, config, pool=(witness,))
    assert result.restart_index == 1
    assert result.value == pool_value
    assert result.steps == 0


def test_averaging_curve_closes_every_bracket():
    x = averaging_element()
    config = OptimizerConfig()
    grid = np.arange(0.0, 4.0 + 1e-12, 0.25)
    curve = norm_curve(x, grid, config)
    values = np.asarray(curve.values)
    assert np.all(np.diff(values) >= 0.0)
    assert np.max(np.abs(values - grid)) <= optimize._STALL_TOLERANCE
    for i, estimate in enumerate(curve.estimates):
        assert estimate.upper == pytest.approx(grid[i], abs=1e-12)
        assert estimate.gap <= optimize._STALL_TOLERANCE
        assert estimate.converged
        # Candidates 1..i are the earlier witnesses, reused unchanged; the
        # winner is never below the best of them.
        assert estimate.value >= max(values[:i], default=0.0)
        if 1 <= estimate.restart_index <= i:
            assert estimate.witness is curve.estimates[estimate.restart_index - 1].witness


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: at mu = 2 the oracle witness of these elements "
    "evaluates to 2 + 4.4e-16 against the upper bound 2",
)
def test_brackets_at_level_two_are_not_inverted():
    elements = ("u + v", "u - v", "u + i*v", "u - i*v^-1", "i*u + v^-1")
    inverted = [text for text in elements if estimate_norm(parse_element(text), 2.0).gap < 0.0]
    assert inverted == []
