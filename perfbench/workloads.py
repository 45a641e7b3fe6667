"""The benchmark's workloads: seeded inputs, timed rounds, independent checks.

A workload is built from a seed and the run length (its set-up), then runs
a fixed number of rounds. A round is one norm curve, one estimate, or one
table of ball norms. An op is one result value, timed on its own by the
clock it is given, which leaves out the samples of the workload's reference
kernel (``calibrate.py``). The round count comes from ``--seconds`` and
a nominal round time per workload, never from a clock, so the same seed and
run length always run the same inputs, however fast the code is.

Why these three:

* ``curve_x`` is the paper's identity curve ``mu -> ||x||`` for
  ``x = u + u^-1 + v + v^-1`` with the default ``OptimizerConfig``. Every word
  has length 1, images are Hermitian with +-lambda spectra and the witness
  pool grows along the grid, so the spectral kernel and ``retract_to`` do most
  of the work.
* ``estimate_words`` runs one-off estimates of seeded random elements with
  long words and non-normal images, so ``evaluate`` and ``_subgradient`` take
  a real share; it is where run-length words and stall-based early stopping
  can show. No random element closes the ``coefficient_l1`` bracket
  (``l1_closed_frac`` is 0), so bracket-based stopping can show only on
  ``curve_x``, whose mu = 4 point reaches it.
* ``kesten_balls`` computes tree-ball norms; only ``bundle`` runs, so every
  ``optimize``/``linalg`` change predicts no change here.
"""

from __future__ import annotations

import math

import numpy as np

from constrep import bundle, freegroup, optimize

import checks

X_TEXT = "u + u^-1 + v + v^-1"
CURVE_GRID = (0.0, 1.0, 2.0, 3.0, 4.0)

# restarts=4, max_steps=200 costs 6-24 s per estimate on a 2-core x86 box,
# which leaves 1-3 estimates per run and a seed-to-seed spread above 30%.
# One restart per dimension keeps the same mix of words at about 0.4 s per
# estimate (median). max_steps stays well above the optimizer's 25-step stall
# window, so a start can stop early (about half of the starts do); d = 8 is
# left out to pay for those steps.
WORDS_CONFIG = optimize.OptimizerConfig(dims=(1, 2, 4), restarts=1, max_steps=60)
WORDS_MU = (0.5, 1.5, 2.5, 3.5)
MAX_EXPONENT = 16

BALL_DEPTHS = tuple(range(1, 13))

# Seconds of the run's budget per round: a run does max(1, seconds // ROUND_S)
# rounds. On a 2-core x86 box one curve takes 17-35 s, 60 estimates 15-30 s
# and two ball tables 13-30 s, by the phase of the shared host; the rest of
# the budget is set-up, reference samples and checks.
CURVE_ROUND_S = 30.0
WORDS_ROUND_S = 0.5
BALLS_ROUND_S = 12.0

TINY_CONFIG = optimize.OptimizerConfig(dims=(1, 2), restarts=1, max_steps=5)


def round_count(seconds, round_s):
    return max(1, int(seconds // round_s))


def coefficient_text(c):
    sign = "-" if c.imag < 0 else "+"
    return f"({float(c.real)!r}{sign}{abs(float(c.imag))!r}i)"


def random_element_text(rng):
    """2-4 terms of 1-3 alternating syllables, |exponent| <= 16."""
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        first = int(rng.integers(0, 2))
        syllables = []
        for s in range(int(rng.integers(1, 4))):
            exponent = int(rng.integers(1, MAX_EXPONENT + 1)) * int(rng.choice((-1, 1)))
            syllables.append(f"{'uv'[(first + s) % 2]}^{exponent}")
        coeff = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        terms.append(coefficient_text(coeff) + "*" + "*".join(syllables))
    return " + ".join(terms)


def estimate_record(key, element, mu, estimate, seconds, extra_failures=()):
    failures, norm = checks.check_estimate(element, mu, estimate.value, estimate.witness)
    l1 = checks.coefficient_l1(element)
    return {
        "key": key,
        "value": estimate.value,
        "seconds": seconds,
        "failures": list(extra_failures) + failures,
        "gap": abs(estimate.value - norm),
        "ratio": estimate.value / l1,
        "letters": checks.letter_count(element),
        "l1_closed": abs(estimate.value - l1) <= checks.VALUE_TOL,
    }


class CurveX:
    """The identity curve is a fixed computation: the seed only names the run.

    Its cost depends strongly on the Haar starts (17-24 s per 5-point curve
    across OptimizerConfig seeds on a 2-core x86 box), so seeding the starts
    would measure the seed, not the code.
    """

    name = "curve_x"
    probe_kind = "dense"

    def __init__(self, seed, seconds, tiny=False):
        self.element = freegroup.parse_element(X_TEXT)
        self.grid = (0.0, 4.0) if tiny else CURVE_GRID
        self.config = TINY_CONFIG if tiny else optimize.OptimizerConfig()
        self.rounds = round_count(seconds, CURVE_ROUND_S)
        self.size = f"norm_curve of {X_TEXT} on {len(self.grid)} points over [0, 4], default config"

    def run_round(self, r, clock):
        times = []
        inner = optimize.estimate_norm

        def timed(*args, **kwargs):
            t0 = clock()
            result = inner(*args, **kwargs)
            times.append(clock() - t0)
            return result

        optimize.estimate_norm = timed
        try:
            curve = optimize.norm_curve(self.element, self.grid, self.config)
        finally:
            optimize.estimate_norm = inner
        return r, curve, times

    def records(self, output):
        r, curve, times = output
        line = checks.check_curve(curve.grid, curve.values)
        return [
            estimate_record(f"r{r}:mu={mu!r}", self.element, mu, est, t, extra)
            for mu, est, t, extra in zip(curve.grid, curve.estimates, times, line)
        ]


class EstimateWords:
    """Seeded elements; the mu values take turns, so every run has each equally often."""

    name = "estimate_words"
    probe_kind = "dense"

    def __init__(self, seed, seconds, tiny=False):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i in range(round_count(seconds, WORDS_ROUND_S)):
            text = random_element_text(rng)
            mu = WORDS_MU[i % len(WORDS_MU)]
            self.inputs.append((text, mu, freegroup.parse_element(text)))
        self.config = TINY_CONFIG if tiny else WORDS_CONFIG
        self.rounds = len(self.inputs)
        c = self.config
        self.size = (
            "estimate_norm of seeded 2-4 term elements, 1-3 syllables, |exponent| <= 16, "
            f"dims={c.dims}, restarts={c.restarts}, max_steps={c.max_steps}"
        )

    def run_round(self, r, clock):
        _, mu, element = self.inputs[r]
        t0 = clock()
        estimate = optimize.estimate_norm(element, mu, self.config)
        return r, estimate, clock() - t0

    def records(self, output):
        r, estimate, seconds = output
        text, mu, element = self.inputs[r]
        return [estimate_record(f"{text} @ {mu!r}", element, mu, estimate, seconds)]


class KestenBalls:
    """Tree balls have no random input: the seed only names the run.

    Every table is timed, the first one too, though it reads about 8% slower
    than later ones in the same process: the table count is fixed by the run
    length, so the mix of cold and warm tables never changes with speed.
    """

    name = "kesten_balls"
    probe_kind = "tree"

    def __init__(self, seed, seconds, tiny=False):
        self.depths = BALL_DEPTHS[:3] if tiny else BALL_DEPTHS
        self.rounds = round_count(seconds, BALLS_ROUND_S)
        self.size = f"cayley_ball_norm(R) for R = {self.depths[0]}..{self.depths[-1]}"

    def run_round(self, r, clock):
        out = []
        for depth in self.depths:
            t0 = clock()
            norm = bundle.cayley_ball_norm(depth)
            out.append((norm, clock() - t0))
        return out

    def records(self, output):
        norms = [n for n, _ in output]
        failures, refs = checks.check_balls(self.depths, norms)
        return [
            {
                "key": f"R={depth}",
                "value": norm,
                "seconds": seconds,
                "failures": fail,
                "gap": abs(norm - ref),
                "ratio": norm / checks.KESTEN_NORM,
                "letters": 0,
                "l1_closed": False,
            }
            for depth, (norm, seconds), fail, ref in zip(self.depths, output, failures, refs)
        ]


WORKLOADS = {w.name: w for w in (CurveX, EstimateWords, KestenBalls)}
