"""Scale op times to a reference speed of the machine, by probing it.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent from one second to the next and drifts over minutes.
``probe()`` times a fixed amount of the kind of work arrlog does
(``Fraction`` sums, ``Fraction`` row reduction, products of dict-indexed
``Fraction`` polynomials) without calling arrlog, so a change to the program
cannot change it.  ``Meter`` probes just before an op, every ``SAMPLE_S``
seconds while it runs (from a ``SIGALRM`` handler in the benchmark's only
thread) and just after it.  It takes the time of the probes out of the op's
wall time and scales the rest by ``REFERENCE_S`` over the mean probe time:
an op that ran while the host was slow by some factor was slowed by about the
same factor, and the scaled time is what it would have taken at the speed
the host had when ``REFERENCE_S`` was measured.  The cyclic garbage
collector is off during a probe, so a large heap left by the program does
not slow it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# Median probe time on the 2-core reference machine (perfbench/README.md).
REFERENCE_S = 0.005
# Probe period inside an op.  A probe costs about a twentieth of it, and
# probing this often follows the host's swings within ops of about a second.
SAMPLE_S = 0.1

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(7)] for _ in range(6)]
_POLY = {(i, 7 - i): Fraction(i + 1, i + 2) for i in range(8)}


def _fraction_sum() -> Fraction:
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i * i + 1, 3 * i + 7)
    return s


def _row_reduce() -> list[list[Fraction]]:
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(m[0])):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return m


def _poly_products() -> dict:
    out = {}
    for _ in range(8):
        out = {}
        for (i, j), x in _POLY.items():
            for (k, l), y in _POLY.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + x * y
    return out


def probe() -> float:
    """Wall time of one fixed unit of work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _fraction_sum()
        _row_reduce()
        _poly_products()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Span:
    """One op's wall time without the probes run in it (``latency``) and
    that time at the reference speed (``scaled``)."""

    latency = 0.0
    scaled = 0.0


class Meter:
    """Times ops and scales each to the reference speed by the mean of the
    probes run just before it, inside it and just after it."""

    def __init__(self):
        self.probe_s = 0.0  # time of the probes run inside ops so far
        self.last = probe()

    def clock(self) -> float:
        """``time.perf_counter`` stopped while a probe runs inside an op, so
        a tracer timing the op's calls is charged for none of them."""
        return time.perf_counter() - self.probe_s

    @contextmanager
    def op(self):
        probes = [self.last]

        def sample(signum, frame):
            t0 = time.perf_counter()
            probes.append(probe())
            self.probe_s += time.perf_counter() - t0

        old = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        span = Span()
        t0 = self.clock()
        try:
            yield span
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            span.latency = self.clock() - t0
            self.last = probe()
            probes.append(self.last)
            span.scaled = span.latency * REFERENCE_S / statistics.mean(probes)
