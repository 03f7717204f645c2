"""A fixed reference load that tells how fast the machine runs right now.

A shared virtual machine's CPU speed drifts by 20-40% over seconds to
minutes, and a fixed pure-Python loop drifts with it, so a wall-clock
``window_s`` measures the neighbours as much as the twin. ``Pace`` runs the
same small load (weighted least-squares solves with Cholesky
log-determinants on a 48-dimensional problem, and the Python bookkeeping
around them: the mix a fusion spends its time on) about every
``PERIOD_S`` during an episode, outside the timed program time. Each
stretch of program time between two samples is then scaled by
``NOMINAL_S`` over the mean of the two samples: it reads as the seconds
the stretch would take on a machine where the load takes ``NOMINAL_S``.
On a fixed set of fusions interleaved with the load for 100 s, the ratio
of the two varied by 3% (interquartile range over 8 s stretches) while
each alone varied by 11-13%.

The load uses nothing from ``difftwin``, so a change to the twin moves the
program time and not the yardstick.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Seconds one sample takes on the reference speed: the median of the
# load on a 2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4.
NOMINAL_S = 0.012
# At most this long between two samples, so the scaling follows drift
# within a window; one sample costs about 12 ms on the machine above, so
# sampling adds about 3% to an episode's wall time.
PERIOD_S = 0.4
SUB_SAMPLES = 3
DIM = 48
ROWS = 60
STEPS = 60


class Pace:
    """Reference samples taken at chosen instants, and scaling by them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._jac = rng.standard_normal((ROWS, DIM))
        self._res = rng.standard_normal(ROWS)
        self._w = 1.0 + rng.random(ROWS)
        # (start, end, load seconds) of every sample, in order
        self.samples: list[tuple[float, float, float]] = []

    def _load(self) -> float:
        """Small weighted least-squares solves with log-determinants, and the
        Python bookkeeping around them."""
        acc = 0.0
        x = np.zeros(DIM)
        for it in range(STEPS):
            wj = self._jac * self._w[:, None]
            info = self._jac.T @ wj + (1.0 + it) * np.eye(DIM)
            chol = np.linalg.cholesky(info)
            acc += 2.0 * float(np.sum(np.log(np.diag(chol))))
            x = x + np.linalg.solve(info, self._jac.T @ (self._w * self._res))
            terms = {}
            for i in range(40):
                terms[i] = (acc * 1e-3 + i) % 7.0
            acc += sum(terms.values()) + float(x @ x)
        return acc

    def sample(self):
        """Time the load: the median of a few short bursts, scaled to one
        sample, so a single interrupt does not set the figure."""
        t0 = time.perf_counter()
        bursts = []
        for _ in range(SUB_SAMPLES):
            b0 = time.perf_counter()
            self._load()
            bursts.append(time.perf_counter() - b0)
        t1 = time.perf_counter()
        self.samples.append((t0, t1, statistics.median(bursts) * SUB_SAMPLES))

    def sample_if_due(self):
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= PERIOD_S:
            self.sample()

    def paced_s(self, start: float, end: float) -> float:
        """Seconds spent sampling between ``start`` and ``end``."""
        return sum(max(0.0, min(t1, end) - max(t0, start)) for t0, t1, _ in self.samples)

    def scaled_s(self, start: float, end: float) -> float:
        """Program time between ``start`` and ``end``, samples left out, at
        the reference speed. A stretch between two samples is scaled by
        their mean; a stretch before the first sample or after the last by
        that sample alone. Needs at least one sample."""
        s = self.samples
        stretches = [(-math.inf, s[0][0], s[0][2], s[0][2])]
        stretches += [(a[1], b[0], a[2], b[2]) for a, b in zip(s, s[1:])]
        stretches.append((s[-1][1], math.inf, s[-1][2], s[-1][2]))
        total = 0.0
        for lo, hi, a_s, b_s in stretches:
            seg = min(hi, end) - max(lo, start)
            if seg > 0:
                total += seg * NOMINAL_S / (0.5 * (a_s + b_s))
        return total
