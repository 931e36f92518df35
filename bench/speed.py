"""Correction of timings for the machine's momentary speed.

On a shared machine the same pure-Python work can take half again as long
from one minute to the next: neighbours on the host slow the cores down,
and none of it shows as steal time.  So the benchmark reports every time
as seconds at a fixed reference speed: the measured seconds times
NOMINAL_S over the time a fixed reference loop takes at that moment, run
in the same process as the work.  The reference loop is benchmark code,
the same for both commits of a comparison, so no change to the program can
move it.
"""

import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.005     # about the reference loop on a 2-core Xeon VM
PERIOD_S = 0.25       # how often Sampler measures during long operations


def reference():
    """Seconds taken by a fixed mix of the interpreter work the engine
    does: Fraction arithmetic, dict and tuple traffic, method calls."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for k in range(1, 1500):
        acc += Fraction(k, k + 1)
        key = (k % 17, k % 5)
        table[key] = table.get(key, 0) + k
        if acc.denominator > 10 ** 6:
            acc = Fraction(acc.numerator % 997, 1 + acc.denominator % 991)
    return time.perf_counter() - t0


def factor(samples):
    """NOMINAL_S over the median reference time of the samples."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Runs the reference loop every PERIOD_S seconds from a timer signal,
    also in the middle of a long library call, and keeps the reference
    times and the seconds the loop took in all."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _sample(self, *signal_args):
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def timed(self, fn, *args):
        """(result of fn, its own seconds, its seconds at nominal speed):
        the reference loop's time is taken out, and the samples taken while
        fn ran, with the one before and the one after, set the correction."""
        first, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        self._sample()
        return out, raw, raw * factor(self.samples[max(first - 1, 0):])
