"""A fixed pure-Python reference job, run every PERIOD_S during the timed
passes to measure the speed of the core the benchmark runs on.

On a shared host the speed of one core changes with the load of the other
tenants: the same classify-q pass took 2.2 s in one minute and 3.6 s a few
minutes later, with no steal time and process CPU time tracking wall time
(see README.md). A time divided by the reference job's time, measured in
the same process over the same stretch, no longer carries that drift. The
job uses only the standard library, so a change to ``incalg`` cannot change
it.

The job runs from a SIGALRM handler, which Python calls in the main thread
between two bytecodes, so the benchmark stays single-threaded and the
samples spread evenly over the run even while one library call lasts
seconds (a census). ``clock()`` leaves out the time spent in the handler,
so library calls are timed without it.

The job mixes the kinds of work the library does: small-integer loops (the
census odometer), boxed residues with operator methods (``Scalar``),
``Fraction`` arithmetic (classification over Q), and hashing, sorting and
JSON of small records (reports). The cyclic garbage collector is off while
it runs, so its time does not depend on how many objects the library holds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import signal
import statistics
import time
from fractions import Fraction

# Seconds one job takes on a fast core of the machine the benchmark was tuned
# on (its fastest runs took 1.6 to 2.4 ms); normalised times are scaled to
# that speed.
NOMINAL_JOB_S = 0.002
PERIOD_S = 0.05     # wall time between two jobs
FIRST_JOBS = 5      # jobs timed at once, so that there is a speed before a pass
CAP = 2.5           # samples count at most this many times the median sample


class _Residue:
    """An integer mod 7 boxed like ``incalg.fields.Scalar``."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % 7

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


class Reference:
    """Runs the reference job on a timer and keeps the seconds of each run."""

    def __init__(self):
        rng = random.Random(0)
        self._fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(100)]
        self._matrix = [[_Residue(rng.randrange(7)) for _ in range(7)] for _ in range(7)]
        self._records = [{"key": rng.random(), "row": tuple(rng.randrange(5) for _ in range(6))}
                         for _ in range(100)]
        self.samples: list[float] = []
        self._paused = 0.0  # seconds spent in the handler so far
        self._job()  # warm-up, not kept
        for _ in range(FIRST_JOBS):
            self._on_alarm(None, None)

    def _job(self):
        s = 0
        for i in range(8000):
            s = (s * 31 + i) % 1000003
        total = Fraction(0)
        for x in self._fractions:
            total += x * x - x
        m = self._matrix
        n = len(m)
        product = [[sum((m[i][k] * m[k][j] for k in range(1, n)), m[i][0] * m[0][j])
                    for j in range(n)] for i in range(n)]
        rows = {tuple(r.v for r in row): i for i, row in enumerate(product)}
        ordered = sorted(self._records, key=lambda r: (r["row"], r["key"]))
        text = json.dumps([[r["row"], str(x)] for r, x in zip(ordered, self._fractions)])
        return s, total, len(rows), len(text)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._job()
        self.samples.append(time.perf_counter() - t0)
        if was_enabled:
            gc.enable()
        self._paused += time.perf_counter() - start

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in reference jobs."""
        while True:
            paused = self._paused
            now = time.perf_counter()
            if paused == self._paused:  # no job ran between the two reads
                return now - paused

    @contextlib.contextmanager
    def sampling(self):
        """Run the job every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean(self, lo: int = 0, hi: int | None = None) -> float:
        """Mean seconds of samples ``lo:hi`` (of all samples if that slice
        is empty), each capped at CAP times the median of all samples.

        The mean, not the median: the core switches between a fast and a
        slow state within milliseconds, so samples fall in two clusters, the
        slow one about twice the fast one. A pass's time mixes the two
        states by the time spent in each, which the mean estimates; the
        median snaps to one cluster. The cap keeps the rare job that an
        interrupt stretched to several times its length from outweighing
        dozens of others; the library's own calls absorb such stretches in
        their far longer time.
        """
        cap = CAP * statistics.median(self.samples)
        return statistics.fmean(min(x, cap) for x in self.samples[lo:hi] or self.samples)
