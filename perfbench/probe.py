"""Machine-speed probe: rescales measured times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
10-40 % within seconds and between runs, and that drift slows the program
and everything else in the process alike.  While the probe runs, a
SIGALRM every INTERVAL_S interrupts the program between two bytecodes and
times one pass of `kernel`, a fixed pure-Python loop in the style of
gssm's series code (tuple-keyed dicts, complex and float arithmetic).  The
ticks are spread through each timed interval, so their mean measures how
fast the machine ran during that very interval.  `window` reports the
interval's own time (its wall time minus the ticks) and that time rescaled
to the speed at which one kernel pass takes REF_KERNEL_S.

This module imports only the standard library so that it can start before
numpy loads and time the imports too.
"""

import signal
import time

# seconds between ticks; one tick costs 1-2 ms, 5-10 % of this
INTERVAL_S = 0.02
# one kernel pass at the reference speed: about the median of passes run
# back to back in a quiet process on a 2-vCPU x86-64 VM under CPython 3
REF_KERNEL_S = 1.0e-3
# ticks used when an interval is too short to hold one of its own
FALLBACK_TICKS = 16


# the kernel allocates no containers, so it never triggers the cyclic
# garbage collector, whose passes cost in proportion to the program's heap
_KEYS = [(i % 11, (i * 7) % 5) for i in range(3200)]
_ACC = dict.fromkeys(_KEYS, 0j)


def kernel():
    acc = _ACC
    for key in acc:
        acc[key] = 0j
    z = 0.5 + 0.25j
    i = 0
    for key in _KEYS:
        acc[key] = acc[key] * 0.5 + z * i
        i += 1
    total = 0.0
    for i in range(2400):
        total += (i * 0.5) ** 0.5 - total * 1e-3
    for val in acc.values():
        total += abs(val)
    return total


class SpeedProbe:
    """Ticks `kernel` on SIGALRM between start() and stop()."""

    def __init__(self):
        self.ticks = []
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self._busy:  # a signal that lands inside a tick is dropped
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.ticks.append(time.perf_counter() - start)
        self._busy = False

    def mark(self, at=None):
        """Start of an interval: now, or `at` for an earlier perf_counter
        reading taken before any tick."""
        return (time.perf_counter() if at is None else at), len(self.ticks)

    def window(self, mark):
        """(work_s, ref_s) of the interval from `mark` to now: its wall time
        minus the ticks inside it, and that time at the reference speed."""
        end = time.perf_counter()
        start, first = mark
        ticks = self.ticks[first:]
        work = end - start - sum(ticks)
        if not ticks:
            ticks = self.ticks[-FALLBACK_TICKS:]
        return work, work * REF_KERNEL_S * len(ticks) / sum(ticks)
