"""Reference kernels that measure how fast the host runs at a given moment.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, when neighbours load the cores and the caches; on a 2-core
x86-64 VM a fixed estimate took 0.40 s in one stretch and 0.63 s in another,
and the radius-12 tree ball 4.7 s, 7.8 s and 16 s. Such phases last longer
than a run, so wall time alone measures the host.

A probe times a small fixed kernel, written here and never changed with the
package, on a timer: every INTERVAL_S seconds of a timed round a SIGALRM
handler runs it between two bytecodes of whatever the package is doing, so
the samples are spread evenly over the run however long its ops are. Op times
are read from ``Probe.clock``, which leaves the sampling out. A sample is a
kernel's time over its nominal time (its typical time in a fast phase of a
2-core x86-64 VM); the harmonic mean of a run's samples is the host's
slowdown during the run, and the run's throughput times that slowdown is its
throughput at reference speed. Contention slows interpreter-bound and
memory-bound code by different factors, so each workload has a kernel of its
own code mix:

* ``dense``: power iteration on a 4 x 4 complex matrix, one numpy call per
  step like the estimator's own loop, where ``curve_x`` and
  ``estimate_words`` spend most of their time; set-up uses it too. A kernel
  of 8 x 8 LAPACK calls and a dict loop slowed 1.7x where ``estimate_words``
  slowed 1.2-1.3x, and left a spread of 0.20 over ten seeds.
* ``tree``: a scipy sparse product ``A @ x`` into a fresh vector, on a
  10^6-row matrix with two random entries per row, 36 MB that do not stay in
  cache. A radius-12 ball spends about 85% of its time in such products
  (power iteration on 1 062 881 vertices) and the rest building its edge
  lists. In one 6-minute trial this kernel's slowdown tracked the ball's with
  a per-op spread of 0.105, where interpreter-bound kernels gave 0.24-0.34
  and the wall time 0.4.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse

# Kernel times in a fast phase of a 2-core x86-64 VM, in seconds.
NOMINAL_S = {"dense": 0.0025, "tree": 0.0125}
# Seconds between samples: about 2% (dense) and 4% (tree) of a round's time.
INTERVAL_S = {"dense": 0.5, "tree": 1.0}
REPEATS = 3
_SEED = 20100514


class Probe:
    """Samples the host's slowdown with the reference kernel of one kind."""

    def __init__(self, kind):
        rng = np.random.default_rng(_SEED)
        self.kind = kind
        self.paused_s = 0.0
        self._next_s = 0.0
        if kind == "dense":
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            self._b = a.conj().T @ a
            self._v0 = np.full(4, 0.5, dtype=complex)
            self._kernel = self._dense
        else:
            n = 1_000_000
            rows = np.repeat(np.arange(n), 2)
            self._s = scipy.sparse.csr_matrix(
                (np.full(2 * n, 0.5), (rows, rng.integers(0, n, 2 * n))), shape=(n, n))
            self._x = np.ones(n)
            self._kernel = self._tree
        self.samples = []

    def _dense(self):
        v = self._v0
        for _ in range(300):
            bv = self._b @ v
            theta = float(np.real(np.vdot(v, bv)))
            float(np.linalg.norm(bv - theta * v))
            v = bv / float(np.linalg.norm(bv))

    def _tree(self):
        self._s @ self._x

    def sample(self):
        """Record and return the slowdown now: 1 at the nominal kernel time."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        ratio = statistics.median(times) / NOMINAL_S[self.kind]
        self.samples.append(ratio)
        return ratio

    def clock(self):
        """``perf_counter`` less the time spent in timer samples."""
        return time.perf_counter() - self.paused_s

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.paused_s += time.perf_counter() - t0

    def start(self):
        """Sample every INTERVAL_S seconds of timed rounds until ``stop``.

        The time left to the next sample carries over from the last ``stop``,
        so rounds shorter than the interval are sampled too.
        """
        signal.signal(signal.SIGALRM, self._on_alarm)
        interval = INTERVAL_S[self.kind]
        signal.setitimer(signal.ITIMER_REAL, self._next_s or interval, interval)

    def stop(self):
        self._next_s = signal.setitimer(signal.ITIMER_REAL, 0.0)[0]
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        """Harmonic mean of the samples: wall time over time at reference speed.

        Samples are evenly spaced in time, so the mean of their inverses is
        the mean speed over the run. A burst that slows one sample moves it
        by at most 1/len(samples).
        """
        if not self.samples:  # rounds shorter than one interval
            self.sample()
        return statistics.harmonic_mean(self.samples)
