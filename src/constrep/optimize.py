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
further fresh start is built. Pool witnesses are still scored, without
steps, so that a curve stays exactly monotone.

Ascent direction: with (sigma, xi, eta) the top singular triple of pi(a),
the derivative of sigma along U -> exp(i s H) U is <H, G_U> for a Hermitian
G_U (and likewise for V). Each letter of a word with coefficient c adds the
rank-one piece c * b a^*, where a^* = xi^* (letters before it) and
b = (letters after it) eta. Words are walked by syllables (runs u^k, v^k):
pi(a) costs one matrix product per syllable and the gradient a few batched
products per syllable, with powers read from tables (I, W, ..., W^t),
t <= 64, that the objective builds once per pair; a syllable longer than t
takes one such step per t letters, so neither time nor memory grows letter
by letter. Steps multiply on the left by
exp(i * step * G/||G||) and are followed by the exact retraction, so every
iterate stays feasible. Only improving proposals are accepted, and at
d >= 2 the step size decays geometrically, by ``_STEP_DECAY`` after every
proposal. The direction depends only on the current pair, so it and the
eigendecompositions of G/||G|| are computed once per accepted point and
reused, at a shorter step, after each rejected proposal.

A 1-dimensional start ascends on the torus of characters instead: the pair
is two unit scalars (z_u, z_v) = (e^(i theta), e^(i phi)), a word with
generator sums (p, q) acts as z_u^p z_v^q, and the value is |f| for
f = sum c z_u^p z_v^q over the (p, q, coeff) triples the oracle grid is built
from. The direction is the gradient Re(conj(f) i sum c (p, q) z_u^p z_v^q)/|f|
of |f| in (theta, phi), a step multiplies each scalar by e^(i step g), and
the retraction applies the deformation circle map to both scalars at the
level ``constraint_value`` computes for the 1 x 1 pair. This is the matrix
ascent at d = 1 in scalar arithmetic, O(terms) per step whatever the word
lengths. Its step grows 1.5x after an accepted proposal, up to
``_INITIAL_STEP``, and halves after a rejected one, so a start that sits
within a step of a local maximum still climbs to it (a geometric decay
stalls there once its steps overshoot the maximum). The loop and its stall
and target rules are shared, and the start's value and the value of a moved
witness are still computed on the matrix pair, so a reported value is the
recomputed norm of its witness.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .freegroup import GroupRingElement
from .representation import (
    Representation,
    check_mu,
    evaluate,
    letter_images,
    power_tables,
    random_constrained,
    retract_to,
)
from .linalg import (
    MAX_DIM,
    NonUnitaryError,
    UNITARY_TOL,
    SpectralDecomposition,
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
# Grid rows per matrix product when the magnitude grid is filled; divides
# ORACLE_GRID, and one block of complex products is about 0.55 MB.
_ORACLE_BLOCK = 48

# The last scanned element's oracle data: (key, antidiagonal best, magnitude
# grid). Emptied before the next grid is built and set once it is complete.
_oracle_slot = None
# The one ORACLE_GRID x ORACLE_GRID magnitude array, allocated on the first
# build and overwritten in place for every new element; only _oracle_scan
# reads it, through the slot.
_oracle_magnitude = None


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
    """Coefficient l1 norm of a GroupRingElement; raises unless it is finite."""
    if not isinstance(element, GroupRingElement):
        raise TypeError("expected a GroupRingElement")
    l1 = float(element.coefficient_l1())
    if not math.isfinite(l1):
        raise ValueError(f"element coefficients must have a finite l1 norm, got {l1}")
    return l1


@dataclass(frozen=True)
class NormEstimate:
    """Certified bracket [value, upper] for one element and level.

    ``value`` equals the computed operator norm of the witness image, and
    ``dim_used`` is the witness's dimension; ``upper`` is
    :func:`upper_bound` of the element; ``restart_index`` is
    the index of the winning start in the deterministic candidate order
    (oracle argmax, pool entries, fresh starts). ``converged`` is true when
    the winning start stalled or the bracket closed.
    """

    value: float
    witness: Representation
    restart_index: int
    steps: int
    converged: bool
    upper: float

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


def _torus_terms(element):
    """(p, q, coeff) per term in canonical order, (p, q) the word's generator sums.

    The character u -> e^(i theta), v -> e^(i phi) sends the word to
    e^(i (p theta + q phi)); the oracle grid and the torus ascent both read
    an element through these triples.
    """
    return tuple((*word.generator_sums(), coeff) for word, coeff in element.sorted_terms())


@functools.cache
def _oracle_axes():
    """(theta, order, theta[order], c[order]) for c = 2cos(theta), order ascending in c.

    The cosines are computed on the whole grid and then permuted, so each
    entry is the value the unsorted grid has. Built on first use rather than
    at import, which would run numpy kernels that only the oracle needs.
    """
    theta = 2.0 * np.pi * np.arange(ORACLE_GRID) / ORACLE_GRID
    cos = 2.0 * np.cos(theta)
    order = np.argsort(cos, kind="stable")
    return theta, order, theta[order], cos[order]


def _oracle_grid(element):
    """(antidiagonal best, magnitude grid) of a nonzero element, kept for the last one.

    The pair u -> e^(i theta), v -> e^(i phi) sends a word with generator
    sums (p, q) to e^(i (p theta + q phi)), so the antidiagonal and the
    square grid are one matrix product each over the terms. Neither depends
    on mu, so both are kept in ``_oracle_slot``, keyed by the (p, q, coeff)
    triples they are built from, and every level of a curve reuses them.
    The grid is written into the one ``_oracle_magnitude`` array, a block of
    rows at a time, so after the first build a new element pages in no
    grid-sized memory.
    """
    global _oracle_slot, _oracle_magnitude
    key = _torus_terms(element)
    if _oracle_slot is not None and _oracle_slot[0] == key:
        return _oracle_slot[1], _oracle_slot[2]
    _oracle_slot = None  # the grid below is overwritten in place
    p, q, coeffs = (np.array(column) for column in zip(*key))
    theta, _, theta_by_cos, _ = _oracle_axes()

    # The curve phi = pi - theta is feasible at every constraint level up to
    # rounding (on this grid 2cos(theta) + 2cos(pi - theta) is nonzero at 493
    # of 720 points, at most 6.7e-16), so it is always scanned; near mu = 0
    # it is the only reliable source of feasible points, since the square
    # grid may contain almost no pairs whose cosines cancel to the last bit.
    phi = np.pi - theta
    curve = np.abs(np.exp(1j * (np.outer(theta, p) + np.outer(phi, q))) @ coeffs)
    i = int(np.argmax(curve))
    best = (float(curve[i]), float(theta[i]), float(phi[i]))

    # Both axes in cosine order: entry (r, s) is the pair
    # (theta[order[r]], theta[order[s]]). Each row of a product depends only
    # on its own row of ``left``, so the blocks equal the full product.
    if _oracle_magnitude is None:
        _oracle_magnitude = np.empty((ORACLE_GRID, ORACLE_GRID))
    magnitude = _oracle_magnitude
    left = np.exp(1j * np.outer(theta_by_cos, p)) * coeffs
    right = np.exp(1j * np.outer(q, theta_by_cos))
    block = np.empty((_ORACLE_BLOCK, ORACLE_GRID), dtype=complex)
    for r in range(0, ORACLE_GRID, _ORACLE_BLOCK):
        rows = slice(r, r + _ORACLE_BLOCK)
        np.matmul(left[rows], right, out=block)
        np.abs(block, out=magnitude[rows])
    _oracle_slot = (key, best, magnitude)
    return best, magnitude


def _feasible_columns(mu):
    """Per row r of the cosine-ordered grid, the feasible columns [lo_r, hi_r).

    lo_r counts the columns with c_r + c_s < -mu (that is, <= the float just
    below -mu) and hi_r those with c_r + c_s <= mu. A search on the exact
    differences limit - c_r gives each count to within rounding; each row's
    count then steps by one while the exact sum the mask tests, at the
    count's edge, disagrees with it. Rows are monotone, so this stops at
    exactly the mask's count, typically after a pass or two.
    """
    c = _oracle_axes()[3]
    limits = np.array([[np.nextafter(-mu, -np.inf)], [mu]])
    count = np.searchsorted(c, limits - c, side="right")
    last = ORACLE_GRID - 1
    while True:
        # The sum just past the count is within the limit: count too low.
        low = (count <= last) & (c + c[np.minimum(count, last)] <= limits)
        # The sum at the count's last column is beyond it: count too high.
        high = (count > 0) & (c + c[np.maximum(count - 1, 0)] > limits)
        if not (low.any() or high.any()):
            return count[0], count[1]
        count += low
        count -= high


def _oracle_scan(element, mu):
    """(value, theta, phi): the max of |pi(a)| over 1-D pairs on the fixed grid.

    The grid's axes are in ascending order of c = 2cos(theta). Rounding is
    monotone, so along a row r the sum fl(c_r + c_s) never decreases in s,
    and |c_r + c_s| <= mu, which is -mu <= c_r + c_s <= mu, holds on one
    contiguous range of columns. Each level is then one maximum per row
    range. Ties go where an argmax over the grid in natural (theta, phi)
    order puts them: to the smallest row-major index in that order. A grid
    value replaces the antidiagonal's only if it is strictly larger.
    Callers validate the element and mu.
    """
    if element.is_zero:
        return 0.0, 0.0, 0.0
    best, magnitude = _oracle_grid(element)
    _, order, theta_by_cos, _ = _oracle_axes()
    lo, hi = _feasible_columns(mu)
    rows = np.flatnonzero(lo < hi)
    if not rows.size:
        return best
    starts = rows * ORACLE_GRID
    bounds = np.column_stack((starts + lo[rows], starts + hi[rows])).ravel()
    if bounds[-1] == magnitude.size:
        bounds = bounds[:-1]  # the last range runs to the end of the grid
    maxima = np.maximum.reduceat(magnitude.ravel(), bounds)[::2]
    value = maxima.max()
    if value > best[0]:
        tied = rows[maxima == value]
        r = tied[np.argmin(order[tied])]
        columns = lo[r] + np.flatnonzero(magnitude[r, lo[r]:hi[r]] == value)
        s = columns[np.argmin(order[columns])]
        best = (float(value), float(theta_by_cos[r]), float(theta_by_cos[s]))
    return best


def one_dim_oracle(element, mu):
    """Max of |pi(a)| over 1-dimensional feasible pairs on the fixed grid.

    The grid is ORACLE_GRID equally spaced angles per generator, plus the
    antidiagonal phi = pi - theta; the value is a lower bound for the
    constrained norm at level mu.
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
    """q with sum_n c_n chi_n = q(x), highest power first.

    The sphere sums satisfy chi_n = P_n(x) with P_0 = 1, P_1 = s,
    P_2 = s^2 - 4 and P_(n+1) = s P_n - 3 P_(n-1), from x chi_1 = chi_2 + 4
    and x chi_n = chi_(n+1) + 3 chi_(n-1) for n >= 2.
    """
    s = np.array([1.0, 0.0])
    spheres = [np.array([1.0]), s]
    for n in range(1, len(coeffs) - 1):
        shift = 4.0 if n == 1 else 3.0
        spheres.append(np.polysub(np.polymul(s, spheres[n]), shift * spheres[n - 1]))
    q = np.zeros(1, dtype=complex)
    for c, p in zip(coeffs, spheres):
        q = np.polyadd(q, c * p)
    return q


@functools.lru_cache(maxsize=1)
def _radial_polynomial(coeffs):
    """(q, critical points of |q|^2 on the real line) for sphere coefficients ``coeffs``.

    Neither depends on mu, so the levels of a curve share one computation.
    """
    q = _x_polynomial(coeffs)
    # On the real line |q|^2 = q * conj(q), a polynomial with real coefficients.
    slope = np.polyder(np.polymul(q, q.conj()).real)
    return q, np.roots(slope).real


def upper_bound(element, mu):
    """Certified upper bound for ||pi(element)|| over mu-constrained pairs.

    Always the coefficient l1 norm (triangle inequality). A radial element
    is q(x) for x = u + u^-1 + v + v^-1 and a polynomial q; spec pi(x) lies
    in [-mu, mu], so by the spectral theorem ||pi(q(x))|| <= max |q(s)| over
    |s| <= mu, and 1-dimensional pairs with 2cos(theta) + 2cos(phi) = s
    attain it. That maximum is taken over the endpoints and the critical
    points of |q|^2 in the interval. The smaller of the two bounds is
    returned.
    """
    bound = _check_element(element)
    mu = check_mu(mu)
    coeffs = _radial_coefficients(element)
    if coeffs is not None:
        q, critical = _radial_polynomial(tuple(coeffs))
        points = np.concatenate(([-mu, mu], np.clip(critical, -mu, mu)))
        bound = min(bound, float(np.max(np.abs(np.polyval(q, points)))))
    return bound


# --------------------------------------------------------------------------
# Subgradient ascent
# --------------------------------------------------------------------------


def _objective(element, rep):
    """(sigma, left, right, tables): the top singular triple of pi(element)
    and the power tables it was evaluated with, which :func:`_subgradient`
    reuses at the same pair."""
    tables = power_tables(rep, element)
    sigma, left, right, _ = top_singular_triple(evaluate(rep, element, tables=tables))
    return sigma, left, right, tables


def _subgradient(element, rep, left, right, tables):
    """Hermitian ascent directions (G_u, G_v) for the top singular value.

    Letter i of a word with coefficient c gives the rank-one piece
    P = c * b_i a_i^*, with a_i^* = left^* (letters before i) and
    b_i = (letters after i) right; a letter u adds U P to C_u and u^-1
    subtracts P U* (likewise for v), and G = (i/2)(C - C*).

    A syllable W^k with |k| >= 2 is walked in chunks of n <= t letters,
    with T = (I, W, ..., W^t) its letter's table in ``tables``. With a^* the
    row before a chunk and b the column after it, the chunk's rows a^* W^j
    (j < n) are one batched product with T[:n], and its columns W^j b
    (j <= n) one with T[n::-1]; the last column starts the chunk before.
    Each chunk's pieces are summed as one product, and single letters'
    pieces as one product per letter kind at the end.
    """
    images = letter_images(rep)
    pieces = {letter: ([], []) for letter in images}
    chunk_sums = dict.fromkeys(images)
    for word, coeff in element.terms.items():
        # (letter, table, n): a single letter (table None) or a chunk of n.
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
                cols, kind_rows = pieces[letter]
                cols.append(col)
                kind_rows.append(row)
                col = images[letter] @ col
                continue
            chunk_cols = table[n::-1] @ col
            piece = chunk_cols[1:].T @ (row @ table[:n])
            total = chunk_sums[letter]
            chunk_sums[letter] = piece if total is None else total + piece
            col = chunk_cols[0]

    def summed(letter):
        # Sum of the letter kind's rank-one pieces. A kind with no single
        # letter starts from a +0 matrix, which maps a chunk sum's -0.0 to +0.0.
        cols, rows = pieces[letter]
        total = np.array(cols).T @ np.array(rows) if cols else np.zeros((rep.dim, rep.dim))
        if chunk_sums[letter] is not None:
            total = total + chunk_sums[letter]
        return total

    def direction(gen):
        c = images[(gen, 1)] @ summed((gen, 1)) - summed((gen, -1)) @ images[(gen, -1)]
        return 0.5j * (c - c.conj().T)

    return direction("u"), direction("v")


def _matrix_moves(element, mu):
    """(score, direction, propose, next_step) of the ascent on pairs of d x d unitaries.

    score(pair) is (value, point) with point = (pair, left, right, tables);
    direction(point) is the eigendecompositions of G_u/s and G_v/s, or None
    when s = ||(G_u, G_v)|| is below the floor; propose(point, direction,
    step) is the pair (exp(i step G_u/s) U, exp(i step G_v/s) V), retracted;
    next_step(step, accepted) is step * ``_STEP_DECAY`` either way.
    """

    def score(rep):
        value, left, right, tables = _objective(element, rep)
        return value, (rep, left, right, tables)

    def direction(point):
        g_u, g_v = _subgradient(element, *point)
        scale = float(np.sqrt(np.linalg.norm(g_u) ** 2 + np.linalg.norm(g_v) ** 2))
        if scale < _GRADIENT_FLOOR:
            return None
        # G is (i/2)(C - C*), Hermitian to the last bit, so it goes to eigh
        # as it is, with no check or symmetrization.
        return (
            SpectralDecomposition(*np.linalg.eigh(g_u / scale)),
            SpectralDecomposition(*np.linalg.eigh(g_v / scale)),
        )

    def propose(point, direction, step):
        rep, (dec_u, dec_v) = point[0], direction
        # Products of unitaries: validated once, on the estimate's witness.
        proposal = Representation._unchecked(
            unitary_exponential(dec_u, step) @ rep.u,
            unitary_exponential(dec_v, step) @ rep.v,
        )
        return retract_to(proposal, mu)

    def next_step(step, accepted):
        return step * _STEP_DECAY

    return score, direction, propose, next_step


def _torus_objective(terms, z_u, z_v):
    """(|f|, point) at the character (z_u, z_v), f = sum c z_u^p z_v^q over ``terms``.

    The point (z_u, z_v, f, waves) keeps each term's c z_u^p z_v^q for
    :func:`_torus_gradient`.
    """
    waves = [c * z_u**p * z_v**q for p, q, c in terms]
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


def _torus_level(z_u, z_v):
    """``constraint_value`` of the 1 x 1 pair, by the same arithmetic: the
    sum U + U* + V + V* is the real x below, and eigvalsh returns it."""
    x = ((z_u.real + z_u.real) + z_v.real) + z_v.real
    return min(max(0.0, x, -x), 4.0)


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
    terms = _torus_terms(element)

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
        m = _torus_level(z_u, z_v)
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

    The moves, the step rule included, come from the start's geometry. A
    1-dimensional start steps on the torus (:func:`_torus_moves`); its
    returned value is the matrix objective of the start or, if it moved and
    that is not lower, of the moved pair.
    """
    start_value, left, right, tables = _objective(element, start)
    if start_value >= target:
        return start_value, start, 0, True
    if start.dim == 1:
        score, direction_at, propose, next_step = _torus_moves(element, mu)
        value, point = score((complex(start.u[0, 0]), complex(start.v[0, 0])))
    else:
        score, direction_at, propose, next_step = _matrix_moves(element, mu)
        value, point = start_value, (start, left, right, tables)
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
    if start.dim > 1:
        return value, point[0], steps, converged
    if point is not origin:
        # Scalars of modulus 1 up to rounding: estimate_norm checks its witness.
        witness = Representation._unchecked(np.array([[point[0]]]), np.array([[point[1]]]))
        value = _objective(element, witness)[0]
        if value >= start_value:
            return value, witness, steps, converged
    return start_value, start, steps, converged


def _candidate_starts(element, mu, config, pool):
    """Ascent starts in their deterministic order, built one at a time.

    Order: torus-oracle argmax (when dimension 1 is in play), retracted pool
    witnesses, then fresh Haar starts dim-major / restart-minor. Each fresh
    start has its own seed, so a start does not depend on how many were
    built before it.
    """
    if 1 in config.dims:
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
        yield Representation._unchecked(u, v)
    for witness in pool:
        yield retract_to(witness, mu)
    for dim in config.dims:
        for restart in range(config.restarts):
            seed = np.random.SeedSequence((int(config.seed), dim, restart))
            yield random_constrained(dim, mu, seed=seed)


def estimate_norm(element, mu, config=None, pool=()):
    """Certified bracket [value, upper] for ||pi(element)|| over mu-constrained pairs.

    Ascends from the candidate starts in order and keeps the best final
    value; exact ties go to the earliest candidate, so results are
    reproducible. Every start stops stepping at ``upper - _STALL_TOLERANCE``.
    Once the best value reaches it the bracket is closed: no further fresh
    start is built, and the remaining pool witnesses are scored at their
    start value without steps. They are still scored because a witness of a
    lower level may beat the closing value by less than the tolerance, and
    :func:`norm_curve` is monotone only if the best pool entry always counts.
    """
    if config is None:
        config = OptimizerConfig()
    mu = check_mu(mu)
    upper = upper_bound(element, mu)  # checks the element
    if element.is_zero:
        raise ValueError("cannot estimate the norm of the zero element")
    target = upper - _STALL_TOLERANCE
    n_before_fresh = (1 in config.dims) + len(pool)
    stop = target
    best, best_index = None, 0
    for index, start in enumerate(_candidate_starts(element, mu, config, pool)):
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
    )


def norm_curve(element, grid, config=None):
    """Estimates along an ascending grid of levels with witness pooling.

    Every grid point's best witness is injected as a candidate at all later
    points. Feasible witnesses are reused unchanged and scored even after a
    bracket closes, so the reported values are exactly monotone along the
    grid.
    """
    if config is None:
        config = OptimizerConfig()
    grid = tuple(check_mu(mu) for mu in grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be ascending")
    pool = []
    estimates = []
    for mu in grid:
        est = estimate_norm(element, mu, config, pool=tuple(pool))
        estimates.append(est)
        pool.append(est.witness)
    return NormCurve(element=element, grid=grid, estimates=tuple(estimates))
