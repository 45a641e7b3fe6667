"""Certified brackets for constrained norms: multi-start ascent below, spectral bounds above.

For a group-ring element a and level mu, the quantity of interest is the
supremum of ||pi(a)|| over mu-constrained unitary pairs pi. Every feasible
pair certifies a lower bound, so the estimator runs projected subgradient
ascent from many starts and reports the best witness it finds.

Every estimate also carries a certified upper bound (:func:`upper_bound`):
the coefficient l1 norm, and for a radial element, whose coefficient depends
only on word length, max |q(s)| over |s| <= mu, where the element is q(x)
for x = u + u^-1 + v + v^-1 and spec pi(x) lies in [-mu, mu]. Once the best
value reaches the upper bound to within ``_STALL_TOLERANCE`` the bracket is
closed and the search stops: the running start stops stepping and no
further fresh start is built. The pool, the estimates of earlier levels of a
curve, still counts after that, so that a curve stays exactly monotone; a
pool witness that is feasible at the level counts at its stored value, with
no recomputation. A radial element's first start is the character that
attains its radial bound; no oracle grid is built.

Ascent direction: with (sigma, xi, eta) the top singular triple of pi(a),
the derivative of sigma along U -> exp(i s H) U is <H, G_U> for a Hermitian
G_U (and likewise for V). Each letter of a word with coefficient c adds the
rank-one piece c * b a^*, where a^* = xi^* (letters before it) and
b = (letters after it) eta. The images are unitary, so an inverse letter's
image, powers and pieces are adjoints of its generator's: each generator
has one power table and one sum of pieces. Words are walked by syllables
(runs u^k, v^k): pi(a) costs one matrix product per syllable and the
gradient a few batched products per syllable, with powers read from one
table (I, W, ..., W^t), t <= 64, per generator that the objective builds
once per pair; a syllable longer than t takes one such step per t letters,
so neither time nor memory grows letter by letter. Steps multiply on the
left by exp(i * step * G/||G||) and are followed by the exact retraction,
so every iterate stays feasible. Only improving proposals are accepted, and at
d >= 2 the step size decays geometrically, by ``_STEP_DECAY`` after every
proposal. The direction depends only on the current pair, so it and the
eigendecompositions of G/||G|| are computed once per accepted point and
reused, at a shorter step, after each rejected proposal.

A 1-dimensional start ascends on the torus of characters instead: the pair
is two unit scalars (z_u, z_v) = (e^(i theta), e^(i phi)), a word with
generator sums (p, q) acts as z_u^p z_v^q, and the value is |f| for
f = sum c z_u^p z_v^q, the scalar rule
(:func:`~constrep.representation._character_waves`) that ``evaluate``
applies to every 1 x 1 pair. The direction is the gradient
Re(conj(f) i sum c (p, q) z_u^p z_v^q)/|f| of |f| in (theta, phi), a step
multiplies each scalar by e^(i step g), and the retraction applies the
deformation circle map to both scalars at the level ``constraint_value``
computes for the 1 x 1 pair
(:func:`~constrep.representation.character_level`). This is the matrix
ascent at d = 1 in scalar arithmetic, O(terms) per step whatever the word
lengths. Its step grows 1.5x after an accepted proposal, up to
``_INITIAL_STEP``, and halves after a rejected one, so a start that sits
within a step of a local maximum still climbs to it (a geometric decay
stalls there once its steps overshoot the maximum). The loop and its stall
and target rules are shared. Since the torus value at a pair is the norm
``evaluate`` gives it there, bit for bit, a moved witness is the 1 x 1
pair of its last accepted scalars at the torus value, and a reported value
is the recomputed norm of its witness, ``abs`` of the scalar rule's image,
with no power table, matrix product or SVD.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .freegroup import GroupRingElement, check_size
from .representation import (
    Representation,
    _character_terms,
    _character_waves,
    _syllable_image,
    character_level,
    check_mu,
    constraint_value,
    evaluate,
    power_tables,
    random_constrained,
    retract_to,
)
from .linalg import (
    MAX_DIM,
    NonUnitaryError,
    UNITARY_TOL,
    top_singular_triple,
    unitarity_defect,
    unitary_exponential,
)

# An estimate runs at most MAX_DIMS x MAX_RESTARTS fresh starts, each of size
# at most linalg.MAX_DIM and at most MAX_STEPS steps.
MAX_DIMS = 16
MAX_RESTARTS = 1000
MAX_STEPS = 10_000
# The step and stop rules of every start. The first step is _INITIAL_STEP. At
# d >= 2 the step is multiplied by _STEP_DECAY after every proposal; at d = 1,
# on the torus, by _TORUS_GROWTH (capped at _INITIAL_STEP) after an accepted
# proposal and by _TORUS_SHRINK after a rejected one. A start stops once its
# value gained less than _STALL_TOLERANCE over the last _STALL_WINDOW
# proposals, or came within _STALL_TOLERANCE of the upper bound.
_INITIAL_STEP = 0.1
_STEP_DECAY = 0.97
_TORUS_GROWTH = 1.5
_TORUS_SHRINK = 0.5
_STALL_WINDOW = 25
_STALL_TOLERANCE = 1e-7
# Angles per generator in the 1-D torus oracle: steps of half a degree.
ORACLE_GRID = 720
_GRADIENT_FLOOR = 1e-14
# Grid rows per matrix product in the oracle scan; divides ORACLE_GRID. One
# block of complex products is about 0.55 MB, and no larger array is built.
_ORACLE_BLOCK = 48


@dataclass(frozen=True)
class OptimizerConfig:
    """How much the multi-start ascent searches; defaults suit dimensions up to 8.

    ``dims`` and ``restarts`` set the fresh starts, ``max_steps`` caps each
    start's steps and ``seed`` draws the starts. How a start steps and when
    it stops are the module's rules (``_INITIAL_STEP`` and its neighbours),
    not settings.

    The constructor is the one check for flags and library callers alike:
    it rejects what the ascent cannot run, any size over its cap and a
    repeated size (whose starts would rerun the same seeds), with
    ``ValueError``, and stores ints. The 1-D oracle start scans the fixed
    ``ORACLE_GRID`` whatever the config, so its cost is bounded.
    """

    dims: tuple = (1, 2, 4, 8)
    restarts: int = 16
    max_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.dims, (str, bytes)) or not hasattr(self.dims, "__iter__"):
            raise ValueError(f"dims must be a sequence of integers, got {self.dims!r}")
        # At most one entry past the cap is read, whatever the iterable.
        dims = tuple(_integer("dims entry", d) for d in itertools.islice(self.dims, MAX_DIMS + 1))
        if not 1 <= len(dims) <= MAX_DIMS:
            raise ValueError(f"dims must hold 1 to {MAX_DIMS} sizes")
        if any(not 1 <= d <= MAX_DIM for d in dims):
            raise ValueError(f"dims entries must lie in [1, {MAX_DIM}], got {dims}")
        if len(set(dims)) < len(dims):
            raise ValueError(f"dims entries must be distinct, got {dims}")
        object.__setattr__(self, "dims", dims)
        for name in ("restarts", "max_steps"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must lie in [1, {MAX_RESTARTS}], got {self.restarts}")
        if not 1 <= self.max_steps <= MAX_STEPS:
            raise ValueError(f"max_steps must lie in [1, {MAX_STEPS}], got {self.max_steps}")


def _integer(name, value):
    """``value`` as an int; bools, strings and fractional numbers are rejected."""
    if not isinstance(value, (bool, str)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed):
    """Validate a master seed; returns it as a non-negative int.

    The one rule for every command's ``--seed``: the config checks its own,
    and ``verify`` and ``rep-gen`` check theirs before anything is drawn.
    """
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return seed


def _check_element(element):
    """Coefficient l1 norm of a GroupRingElement; raises unless it is finite
    and the element is within ``freegroup``'s size caps."""
    if not isinstance(element, GroupRingElement):
        raise TypeError("expected a GroupRingElement")
    check_size(element)
    l1 = float(element.coefficient_l1())
    if not math.isfinite(l1):
        raise ValueError(f"element coefficients must have a finite l1 norm, got {l1}")
    return l1


@dataclass(frozen=True)
class NormEstimate:
    """Certified bracket [value, upper] for one element and level.

    ``value`` equals ``operator_norm(evaluate(witness, element))`` bit for
    bit at every dimension: the ascent scores a pair by the sigma of
    ``top_singular_triple``, which ``operator_norm`` returns (at d = 1 by
    the scalar rule ``evaluate`` applies). ``dim_used`` is the witness's
    dimension; ``upper`` is :func:`upper_bound` of the element;
    ``restart_index`` is the index of the winning start in the deterministic
    candidate order (radial peak or oracle argmax, pool entries, fresh starts).
    ``converged`` is true when the winning start stalled or the bracket
    closed. ``constraint`` is ``constraint_value`` of the witness, so a
    later level mu tests the witness's feasibility as ``constraint <= mu``.
    """

    value: float
    witness: Representation
    restart_index: int
    steps: int
    converged: bool
    upper: float
    constraint: float

    @property
    def dim_used(self):
        return self.witness.dim

    @property
    def gap(self):
        """Width of the bracket, ``upper - value``; negative if it is inverted."""
        return self.upper - self.value


@dataclass(frozen=True)
class NormCurve:
    """Estimates along an ascending grid of constraint levels."""

    element: GroupRingElement
    grid: tuple
    estimates: tuple

    @property
    def values(self):
        return tuple(e.value for e in self.estimates)


# --------------------------------------------------------------------------
# One-dimensional torus oracle
# --------------------------------------------------------------------------


@functools.cache
def _oracle_axes():
    """(theta, 2cos(theta)) at the ``ORACLE_GRID`` angles of the oracle grid.

    Built on first use rather than at import, which would run numpy kernels
    that only the oracle needs.
    """
    theta = 2.0 * np.pi * np.arange(ORACLE_GRID) / ORACLE_GRID
    return theta, 2.0 * np.cos(theta)


def _oracle_scan(element, mu):
    """(value, theta, phi): the max of |pi(a)| over 1-D pairs on the fixed grid.

    The pair u -> e^(i theta), v -> e^(i phi) sends a word with generator
    sums (p, q) to e^(i (p theta + q phi)), so the antidiagonal and the
    square grid are one matrix product each over the terms. The square grid
    is built ``_ORACLE_BLOCK`` rows at a time in natural (theta, phi) order
    and kept nowhere. A block whose largest magnitude is at most the best
    value so far cannot replace it and is skipped; otherwise its infeasible
    cells, |2cos(theta) + 2cos(phi)| > mu, are set to -1 and its first
    argmax replaces the best only if strictly larger. So ties go to the
    smallest row-major index, and a grid value must beat the antidiagonal's.
    Callers validate the element and mu.
    """
    if element.is_zero:
        return 0.0, 0.0, 0.0
    p, q, coeffs = (np.array(column) for column in zip(*_character_terms(element)))
    theta, cos = _oracle_axes()

    # The curve phi = pi - theta is feasible at every constraint level up to
    # rounding (on this grid 2cos(theta) + 2cos(pi - theta) is nonzero at 493
    # of 720 points, at most 6.7e-16), so it is always scanned; near mu = 0
    # it is the only reliable source of feasible points, since the square
    # grid may contain almost no pairs whose cosines cancel to the last bit.
    # Each row of a product depends only on its own row of the left factor,
    # so the blocks equal the full product, and the left factors of the
    # antidiagonal and of the square grid are built per block.
    blocks = [slice(r, r + _ORACLE_BLOCK) for r in range(0, ORACLE_GRID, _ORACLE_BLOCK)]
    phi = np.pi - theta
    curve = np.concatenate([
        np.abs(np.exp(1j * (np.outer(theta[rows], p) + np.outer(phi[rows], q))) @ coeffs)
        for rows in blocks
    ])
    i = int(np.argmax(curve))
    best = (float(curve[i]), float(theta[i]), float(phi[i]))

    right = 1j * np.outer(q, theta)
    np.exp(right, out=right)
    for rows in blocks:
        left = np.exp(1j * np.outer(theta[rows], p)) * coeffs
        magnitude = np.abs(left @ right)
        if magnitude.max() <= best[0]:
            continue
        magnitude[np.abs(cos[rows, None] + cos) > mu] = -1.0
        i, j = divmod(int(np.argmax(magnitude)), ORACLE_GRID)
        if magnitude[i, j] > best[0]:
            best = (float(magnitude[i, j]), float(theta[rows][i]), float(theta[j]))
    return best


def one_dim_oracle(element, mu):
    """Max of |pi(a)| over 1-dimensional feasible pairs on the fixed grid.

    The grid is ORACLE_GRID equally spaced angles per generator, plus the
    antidiagonal phi = pi - theta. The value is the floor estimates are
    checked against, a lower bound for the constrained norm at level mu up
    to the rounding of the grid's magnitudes: it can read a few ulps of the
    coefficient l1 norm above :func:`upper_bound`. Only non-radial elements
    start from its argmax.
    """
    _check_element(element)
    value, _, _ = _oracle_scan(element, check_mu(mu))
    return value


# --------------------------------------------------------------------------
# Certified upper bounds
# --------------------------------------------------------------------------


def _radial_coefficients(element):
    """Sphere coefficients [c_0, ..., c_n] of a radial element, else None.

    Radial means that each word length present carries its whole sphere in
    the Cayley tree (1 word for length 0, 4*3^(n-1) for length n >= 1), all
    with one coefficient. The cost is O(terms): a sphere of radius n holds at
    least n words, so no sphere size beyond the term count is computed.
    """
    spheres = {}
    for word, coeff in element.terms.items():
        spheres.setdefault(len(word), []).append(coeff)
    top = max(spheres, default=0)
    if top > len(element.terms):
        return None
    coeffs = [0j] * (top + 1)
    for n, values in spheres.items():
        size = 1 if n == 0 else 4 * 3 ** (n - 1)
        if len(values) != size or len(set(values)) != 1:
            return None
        coeffs[n] = values[0]
    return coeffs


def _x_polynomial(coeffs):
    """q with sum_n c_n chi_n = q(x), as a list of complex coefficients,
    highest power first.

    The sphere sums satisfy chi_n = P_n(x) with P_0 = 1, P_1 = s,
    P_2 = s^2 - 4 and P_(n+1) = s P_n - 3 P_(n-1), from x chi_1 = chi_2 + 4
    and x chi_n = chi_(n+1) + 3 chi_(n-1) for n >= 2. The coefficients are
    combined in plain Python, lowest power first.
    """
    spheres = [[1.0], [0.0, 1.0]]
    for n in range(1, len(coeffs) - 1):
        shift = 4.0 if n == 1 else 3.0
        sphere = [0.0, *spheres[n]]
        for i, a in enumerate(spheres[n - 1]):
            sphere[i] -= shift * a
        spheres.append(sphere)
    q = [0j] * len(coeffs)
    for c, sphere in zip(coeffs, spheres):
        for i, a in enumerate(sphere):
            q[i] += c * a
    return q[::-1]


@functools.lru_cache(maxsize=1)
def _radial_polynomial(coeffs):
    """(q, critical points of |q|^2 on the real line) for sphere coefficients
    ``coeffs``: q as a tuple of complex coefficients, highest power first.

    Neither depends on mu, so the levels of a curve share one computation.
    A slope of degree 1 has its root in closed form, the value ``np.roots``
    reads off its 1 x 1 companion matrix; only a q of degree 2 or more
    calls ``np.roots``.
    """
    q = _x_polynomial(coeffs)
    # On the real line |q|^2 = q * conj(q), a polynomial with real
    # coefficients sum_(i + j = k) Re(q_i conj(q_j)).
    square = [0.0] * (2 * len(q) - 1)
    for i, a in enumerate(q):
        for j, b in enumerate(q):
            square[i + j] += a.real * b.real + a.imag * b.imag
    top = len(square) - 1
    slope = [(top - k) * r for k, r in enumerate(square[:-1])]
    if len(slope) == 2 and slope[0]:
        critical = [-slope[1] / slope[0]]
    else:
        critical = np.roots(slope).real.tolist()
    return tuple(q), tuple(critical)


def _radial_peak(element, mu):
    """(max |q(s)|, s*) over |s| <= mu for a radial element q(x), else None:
    the maximum over the endpoints and the critical points of |q|^2 clipped
    to the interval, in that order, and the first of those points that
    attains it. q is evaluated by Horner's rule in Python complex arithmetic."""
    coeffs = _radial_coefficients(element)
    if coeffs is None:
        return None
    q, critical = _radial_polynomial(tuple(coeffs))
    best = None
    for s in (-mu, mu, *(min(max(c, -mu), mu) for c in critical)):
        y = q[0]
        for c in q[1:]:
            y = y * s + c
        magnitude = abs(y)
        if best is None or magnitude > best[0]:
            best = magnitude, s
    return best


def upper_bound(element, mu):
    """Certified upper bound for ||pi(element)|| over mu-constrained pairs.

    Always the coefficient l1 norm (triangle inequality). A radial element
    is q(x) for x = u + u^-1 + v + v^-1 and a polynomial q; spec pi(x) lies
    in [-mu, mu], so by the spectral theorem ||pi(q(x))|| <= max |q(s)| over
    |s| <= mu, and 1-dimensional pairs with 2cos(theta) + 2cos(phi) = s
    attain it (:func:`_radial_peak`). The smaller of the two bounds is
    returned.
    """
    return _bound_and_peak(element, check_mu(mu))[0]


def _bound_and_peak(element, mu):
    """(:func:`upper_bound`, :func:`_radial_peak`) of a checked level: the
    peak is computed once, for the bound and for the radial start."""
    bound = _check_element(element)
    peak = _radial_peak(element, mu)
    if peak is not None:
        bound = min(bound, peak[0])
    return bound, peak


# --------------------------------------------------------------------------
# Subgradient ascent
# --------------------------------------------------------------------------


def _objective(element, rep):
    """(sigma, left, right, tables): the top singular triple of pi(element)
    and the power tables it was evaluated with, one per generator, which
    :func:`_subgradient` reuses at the same pair. The ascent calls it for
    d >= 2 only; a 1-dimensional pair is scored by :func:`_torus_objective`.
    """
    tables = power_tables(rep, element)
    sigma, left, right, _ = top_singular_triple(evaluate(rep, element, tables=tables))
    return sigma, left, right, tables


def _subgradient(element, rep, left, right, tables):
    """Hermitian ascent directions for the top singular value, as one stack
    G = (G_u, G_v) of shape (2, d, d).

    Letter i of a word with coefficient c gives the rank-one piece
    P = c * b_i a_i^*, with a_i^* = left^* (letters before i) and
    b_i = (letters after i) right; a letter u adds U P to C_u and u^-1
    subtracts P U* (likewise for v), and G = (i/2)(C - C*). As U is
    unitary, that is G = (i/2)(U S - (U S)*) for the one sum
    S = sum P(u) + sum P(u^-1)*.

    A syllable W^(+-k) is walked in chunks of n <= t letters, a single letter
    being a chunk of one, with T = (I, W, ..., W^t) its generator's table in
    ``tables``. With a^* the row before a chunk of W^n and b the column
    after it, the chunk's rows a^* W^j (j < n) are one batched product with
    T[:n], and its columns W^j b (j <= n) one with T[n::-1]; the last column
    starts the chunk before. A chunk of W^-n adds the adjoints of its pieces,
    which are a forward chunk's with row b^* and column a. Each chunk's
    pieces are summed as one product.
    """
    stacked = np.zeros((2, rep.dim, rep.dim), dtype=complex)
    sums = dict(zip("uv", stacked))  # views: a sum added to in place is its slice
    for word, coeff in element.terms.items():
        # (gen, n, sign): a chunk of n letters of gen^sign.
        steps = []
        for gen, power in word.syllables:
            k, t, sign = abs(power), len(tables[gen]) - 1, 1 if power > 0 else -1
            steps.extend([(gen, t, sign)] * (k // t))
            if k % t:
                steps.append((gen, k % t, sign))
        rows = [coeff * left.conj()]
        for gen, n, sign in steps[:-1]:
            rows.append(rows[-1] @ _syllable_image(tables, gen, sign * n))
        col = right
        for (gen, n, sign), row in zip(reversed(steps), reversed(rows)):
            table = tables[gen]
            if sign > 0:
                chunk_cols = table[n::-1] @ col
                sums[gen] += chunk_cols[1:].T @ (row @ table[:n])
                col = chunk_cols[0]
            else:
                sums[gen] += (table[:n] @ row.conj()).T @ (col.conj() @ table[n - 1::-1])
                col = table[n].conj().T @ col
    c = np.stack((rep.u, rep.v)) @ stacked
    return 0.5j * (c - c.conj().swapaxes(-1, -2))


def _matrix_moves(element, mu):
    """(score, direction, propose, next_step) of the ascent on pairs of d x d unitaries.

    score(pair) is (value, point) with point = (pair, left, right, tables);
    direction(point) is ``np.linalg.eigh`` of the stack G/s = (G_u, G_v)/s,
    or None when s = ||(G_u, G_v)|| is below the floor; propose(point,
    direction, step) is the pair (exp(i step G_u/s) U, exp(i step G_v/s) V),
    from one exponential of the stack, retracted;
    next_step(step, accepted) is step * ``_STEP_DECAY`` either way.
    """

    def score(rep):
        value, left, right, tables = _objective(element, rep)
        return value, (rep, left, right, tables)

    def direction(point):
        g = _subgradient(element, *point)
        scale = float(np.sqrt(np.linalg.norm(g[0]) ** 2 + np.linalg.norm(g[1]) ** 2))
        if scale < _GRADIENT_FLOOR:
            return None
        # G is (i/2)(C - C*), Hermitian to the last bit, so it goes to eigh
        # as it is, with no check or symmetrization.
        return np.linalg.eigh(g / scale)

    def propose(point, direction, step):
        rep = point[0]
        # Products of unitaries: validated once, on the estimate's witness.
        u, v = unitary_exponential(direction, step) @ np.stack((rep.u, rep.v))
        return retract_to(Representation._unchecked(u, v), mu)

    def next_step(step, accepted):
        return step * _STEP_DECAY

    return score, direction, propose, next_step


def _torus_objective(terms, z_u, z_v):
    """(|f|, point) at the character (z_u, z_v), f = sum c z_u^p z_v^q over ``terms``.

    The waves c z_u^p z_v^q are the scalar rule's
    (:func:`~constrep.representation._character_waves`), so |f| is the norm
    ``evaluate`` gives the 1 x 1 pair. The point (z_u, z_v, f, waves) keeps
    them for :func:`_torus_gradient`.
    """
    waves = _character_waves(terms, z_u, z_v)
    f = sum(waves)
    return abs(f), (z_u, z_v, f, waves)


def _torus_gradient(terms, point):
    """(d|f|/dtheta, d|f|/dphi) = Re(conj(f) i sum c (p, q) z_u^p z_v^q) / |f|.

    This is :func:`_subgradient` of the 1 x 1 pair; where f = 0, which has
    no gradient, it is (0, 0).
    """
    _, _, f, waves = point
    size = abs(f)
    if size == 0.0:
        return 0.0, 0.0
    turn = 1j * f.conjugate()
    g_u = (turn * sum(p * w for (p, _, _), w in zip(terms, waves))).real / size
    g_v = (turn * sum(q * w for (_, q, _), w in zip(terms, waves))).real / size
    return g_u, g_v


def _torus_retraction(z, scale):
    """``deformation_function(t)(z)`` for a scalar z and scale = 1 - t, bit
    for bit, signed zeros included, in ``math`` arithmetic.

    numpy computes c + 1j * y, y = +-s, as (c + (0 y - 0)) + (0 + (0 + y)) i:
    the imaginary part is never -0.0, and a real part -0.0 survives only in
    the lower half, where 0 y - 0 is -0.0.
    """
    c = min(max(scale * z.real, -1.0), 1.0)
    s = math.sqrt((1.0 - c) * (1.0 + c))
    if z.imag >= 0.0:
        return complex(c + 0.0, s)
    return complex(c, 0.0 - s)


def _torus_moves(element, mu):
    """(score, direction, propose, next_step) of the ascent on 1-dimensional
    pairs: score, direction and propose as :func:`_matrix_moves` computes
    them at d = 1, in scalar arithmetic.

    A pair is (z_u, z_v); a point is :func:`_torus_objective`'s. next_step
    grows an accepted step by ``_TORUS_GROWTH``, up to ``_INITIAL_STEP``, and
    shrinks a rejected one by ``_TORUS_SHRINK``.
    """
    terms = _character_terms(element)

    def score(pair):
        return _torus_objective(terms, *pair)

    def direction(point):
        g_u, g_v = _torus_gradient(terms, point)
        scale = math.sqrt(g_u * g_u + g_v * g_v)
        if scale < _GRADIENT_FLOOR:
            return None
        return g_u / scale, g_v / scale

    def propose(point, direction, step):
        z_u = point[0] * cmath.rect(1.0, step * direction[0])
        z_v = point[1] * cmath.rect(1.0, step * direction[1])
        m = character_level(z_u, z_v)
        if m <= mu:
            return z_u, z_v
        scale = 1.0 - (1.0 - mu / m)  # the 1 - t of deformation_function(t)
        return _torus_retraction(z_u, scale), _torus_retraction(z_v, scale)

    def next_step(step, accepted):
        if accepted:
            return min(_TORUS_GROWTH * step, _INITIAL_STEP)
        return step * _TORUS_SHRINK

    return score, direction, propose, next_step


def _ascend(element, mu, start, config, target=np.inf):
    """Projected subgradient ascent from one feasible start.

    Returns (value, witness, steps, converged). The best value is monotone
    and the ascent stops stepping once it reaches ``target``; a target of
    -inf scores the start without a step. Convergence means the target was
    reached, the trailing ``_STALL_WINDOW`` proposals improved the value by
    less than ``_STALL_TOLERANCE``, or the gradient vanished. ``config``
    gives the step cap.

    The moves, the step rule included, come from the start's geometry, and
    the start is scored by their own score. A 1-dimensional start steps on
    the torus (:func:`_torus_moves`), which scores a pair by the scalar rule
    ``evaluate`` applies at d = 1, so at every d the returned value is the
    norm of the returned witness: the start itself, or the last accepted
    point (at d = 1, the 1 x 1 pair of its two scalars).
    """
    if start.dim == 1:
        score, direction_at, propose, next_step = _torus_moves(element, mu)
        value, point = score((complex(start.u[0, 0]), complex(start.v[0, 0])))
    else:
        score, direction_at, propose, next_step = _matrix_moves(element, mu)
        value, point = score(start)
    if value >= target:
        return value, start, 0, True
    origin = point
    history = [value]
    step = _INITIAL_STEP
    converged = False
    steps = 0
    # The direction depends only on the point; a rejected proposal keeps it.
    direction = None
    for k in range(1, config.max_steps + 1):
        if value >= target:
            break
        if direction is None:
            direction = direction_at(point)
            if direction is None:
                steps = k
                converged = True
                break
        new_value, new_point = score(propose(point, direction, step))
        accepted = new_value > value
        if accepted:
            point, value = new_point, new_value
            direction = None
        steps = k
        step = next_step(step, accepted)
        history.append(value)
        if len(history) > _STALL_WINDOW:
            if history[-1] - history[-1 - _STALL_WINDOW] < _STALL_TOLERANCE:
                converged = True
                break
    converged = converged or value >= target
    if point is origin:
        return value, start, steps, converged
    if start.dim > 1:
        return value, point[0], steps, converged
    # Scalars of modulus 1 up to rounding: estimate_norm checks its witness.
    witness = Representation._unchecked(np.array([[point[0]]]), np.array([[point[1]]]))
    return value, witness, steps, converged


def _radial_start(s, mu):
    """The character u = v = z with 4 Re z = s, feasible at level mu exactly:
    while rounding puts ``constraint_value``'s level above mu, Re z moves
    one ulp toward 0."""
    a = s / 4.0
    while True:
        z = complex(a, math.sqrt((1.0 - a) * (1.0 + a)))
        if character_level(z, z) <= mu:
            # Unit scalars: the witness check of estimate_norm covers them.
            return Representation._unchecked(np.array([[z]]), np.array([[z]]))
        a = math.nextafter(a, 0.0)


def _candidate_starts(element, mu, config, peak, pool):
    """(start, value) pairs in their deterministic order, built one at a time.

    Order: radial peak (:func:`_radial_start`, at ``peak``, the element's
    :func:`_radial_peak`) or else torus-oracle argmax, when dimension 1 is in
    play; pool witnesses; then fresh Haar starts dim-major / restart-minor.
    Each fresh start has its own seed, so a start does not depend on how many
    were built before it. ``value`` is the stored value of a pool witness
    feasible at mu, which is its own start; every other start, a retracted
    pool witness included, has value None.
    """
    if 1 in config.dims and peak is not None:
        yield _radial_start(peak[1], mu), None
    elif 1 in config.dims:
        _, theta, phi = _oracle_scan(element, mu)
        u = np.array([[np.exp(1j * theta)]])
        if phi == np.pi - theta:
            # On the antidiagonal v = -conj(u) makes the generator sum cancel
            # exactly, where e^(i theta) + e^(i (pi - theta)) leaves rounding
            # that can exceed mu = 0.
            v = -u.conj()
        else:
            v = np.array([[np.exp(1j * phi)]])
        # Unit scalars: the witness check of estimate_norm covers them.
        yield Representation._unchecked(u, v), None
    for carried in pool:
        # retract_to's own test: a feasible witness is returned unchanged.
        if carried.constraint <= mu:
            yield carried.witness, carried.value
        else:
            yield retract_to(carried.witness, mu), None
    for dim in config.dims:
        for restart in range(config.restarts):
            seed = np.random.SeedSequence((int(config.seed), dim, restart))
            yield random_constrained(dim, mu, seed=seed), None


def estimate_norm(element, mu, config=None, pool=()):
    """Certified bracket [value, upper] for ||pi(element)|| over mu-constrained pairs.

    Ascends from the candidate starts in order (:func:`_candidate_starts`:
    radial peak or oracle argmax, pool, fresh starts) and keeps the best
    final value; exact ties go to the earliest candidate, so results are
    reproducible. Every start stops stepping at ``upper - _STALL_TOLERANCE``.
    Once the best value reaches it the bracket is closed: no further fresh
    start is built, and the remaining pool witnesses are scored at their
    start value without steps. They are still scored because a witness of a
    lower level may beat the closing value by less than the tolerance, and
    :func:`norm_curve` is monotone only if the best pool entry always counts.

    ``pool`` holds estimates that this function returned for the same
    element, at any level and config. A pool witness feasible at mu
    (``constraint <= mu``) counts at its stored value, the objective of that
    witness, and ascends only while that value is below the stopping value;
    an infeasible one is retracted and scored like any other start.
    """
    if config is None:
        config = OptimizerConfig()
    mu = check_mu(mu)
    upper, peak = _bound_and_peak(element, mu)  # checks the element
    if element.is_zero:
        raise ValueError("cannot estimate the norm of the zero element")
    target = upper - _STALL_TOLERANCE
    n_before_fresh = (1 in config.dims) + len(pool)
    stop = target
    best, best_index = None, 0
    for index, (start, value) in enumerate(_candidate_starts(element, mu, config, peak, pool)):
        if value is not None and value >= stop:
            result = value, start, 0, True  # _ascend's early return, without the call
        else:
            result = _ascend(element, mu, start, config, stop)
        if best is None or result[0] > best[0]:
            best, best_index = result, index
        if best[0] >= target:
            stop = -np.inf
            if index + 1 >= n_before_fresh:
                break
    value, witness, steps, converged = best
    defect = max(unitarity_defect(witness.u), unitarity_defect(witness.v))
    if defect > UNITARY_TOL:
        raise NonUnitaryError(f"witness is not unitary (defect {defect:.3e})")
    return NormEstimate(
        value=value,
        witness=witness,
        restart_index=best_index,
        steps=steps,
        converged=converged,
        upper=upper,
        constraint=constraint_value(witness),
    )


def norm_curve(element, grid, config=None):
    """Estimates along an ascending grid of levels with witness pooling.

    Every grid point's estimate is carried as a candidate to all later
    points. Feasible witnesses are reused unchanged and count at their
    stored values even after a bracket closes, so the reported values are
    exactly monotone along the grid, and a level's cost does not grow with
    the number of levels before it.
    """
    if config is None:
        config = OptimizerConfig()
    grid = tuple(check_mu(mu) for mu in grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")
    estimates = []
    for mu in grid:
        # One call of the module-level estimate_norm per level: the curve_x
        # benchmark (perfbench/workloads.py) times levels by rebinding it.
        estimates.append(estimate_norm(element, mu, config, pool=tuple(estimates)))
    return NormCurve(element=element, grid=grid, estimates=tuple(estimates))
